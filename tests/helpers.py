"""Shared generators for the randomized suites.

Trees are built by attaching each token (in a random order) to one already
placed, so every draw is a valid single-root dependency tree with arbitrary
arc directions.
"""

import random
from importlib import resources

from rhesis import (
    AlignedCorpus,
    AlignedEntry,
    Segmentation,
    Sentence,
    Token,
    segmentation_from_cuts,
)

FORMS = [
    "le", "la", "un", "de", "et", "il", "elle", "sur", "dans", "avec",
    "chat", "nuit", "porte", "maison", "lumière", "chemin", "histoire",
    "regardait", "chantait", "traversa", "doucement", "souvent", "gris",
    "petite", "ancien", "merveilleux", "bibliothèque", "si", "que", "mais",
]

UPOS = [
    "NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON", "PROPN",
    "SCONJ", "CCONJ", "AUX", "PUNCT",
]

DEPRELS = [
    "nsubj", "obj", "obl", "det", "amod", "case", "advmod", "mark",
    "conj", "cc", "ccomp", "advcl", "nmod", "punct", "xcomp", "aux",
    "expl", "parataxis", "iobj", "fixed",
]


def random_sentence(
    rng: random.Random,
    n_min: int = 3,
    n_max: int = 12,
    sent_id: str = "rand",
) -> Sentence:
    n = rng.randint(n_min, n_max)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = {order[0]: 0}
    placed = [order[0]]
    for idx in order[1:]:
        heads[idx] = rng.choice(placed)
        placed.append(idx)
    tokens = [
        Token(
            index=i,
            form=rng.choice(FORMS),
            upos=rng.choice(UPOS),
            head=heads[i],
            deprel="root" if heads[i] == 0 else rng.choice(DEPRELS),
            misc="" if rng.random() < 0.85 else "SpaceAfter=No",
        )
        for i in range(1, n + 1)
    ]
    return Sentence.from_tokens(sent_id, tokens)


def random_sentences(
    rng: random.Random, count: int, n_min: int = 3, n_max: int = 12
) -> list[Sentence]:
    return [
        random_sentence(rng, n_min, n_max, sent_id=f"rand-{k:05d}")
        for k in range(count)
    ]


def random_segmentation(rng: random.Random, sentence: Sentence) -> Segmentation:
    n = len(sentence.tokens)
    cuts = tuple(pos for pos in range(1, n) if rng.random() < 0.35)
    return segmentation_from_cuts(sentence, cuts)


def corpus_from_golds(
    sentences: list[Sentence],
    golds: list[Segmentation],
    doc_label: str = "synthetic",
) -> AlignedCorpus:
    entries = tuple(
        AlignedEntry(sentence=s, gold=g, doc_label=doc_label)
        for s, g in zip(sentences, golds, strict=True)
    )
    return AlignedCorpus(entries=entries)


def relabelled_fixture_gold() -> str:
    """The bundled gold with its 30 sentences in runs of six under no ``#doc``
    line, then ``#doc B``, ``#doc A``, ``#doc B`` and ``#doc A``."""
    text = resources.files("rhesis").joinpath("data", "fixture.rhz").read_text(encoding="utf-8")
    kept = "\n".join(line for line in text.splitlines() if not line.startswith("#doc"))
    blocks = [block.strip("\n") for block in kept.split("\n\n") if block.strip()]
    assert len(blocks) == 30
    runs = ["\n\n".join(blocks[k : k + 6]) for k in range(0, 30, 6)]
    heads = ["", "#doc B\n", "#doc A\n", "#doc B\n", "#doc A\n"]
    return "\n\n".join(head + run for head, run in zip(heads, runs)) + "\n"
