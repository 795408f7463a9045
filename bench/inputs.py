"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own: sentences come from a small phrase
grammar over the bundled fixture's French vocabulary, gold segmentations
from a greedy packer, and score tables from gold spans or exported
candidates.  No rhesis segmenter is used, so two commits under comparison
read byte-identical inputs for the same seed.

Trees are projective and built the way the fixture's are: determiners and
adjectives hang on the next noun, subjects and objects on their verb, extra
clauses (coordinated, subordinate, paratactic) on a clause head of the right
spine, and punctuation on the head of the constituent that follows it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Vocabulary of the bundled fixture, by UPOS, plus the French prepositions
# the cascade treats as priority cuts so that level fires too.
DET = ("le", "la", "les", "un", "une", "des", "ses", "son", "chaque", "cette", "l'")
ADJ = (
    "petit", "grand", "blanche", "sauvages", "bavarde", "incroyables", "dressées",
    "vieux", "étrange", "bleues", "grise", "silencieux", "curieux", "vertes",
    "froides", "brune", "douce", "embuée", "patientes", "troisième",
)
NOUN = (
    "renard", "chêne", "nuit", "forêt", "lune", "voyages", "montagnes", "rivières",
    "matin", "pie", "histoires", "oreilles", "cœur", "pattes", "terre", "jardin",
    "soir", "automne", "pont", "pierre", "eau", "chanson", "collines", "côté",
    "herbe", "menthe", "miel", "secrets", "tomates", "fleurs", "patience", "soleil",
    "escargot", "salade", "traces", "argent", "feuilles", "pluies", "neige",
    "décembre", "manteau", "printemps", "mur", "fenêtre", "cuisine", "histoire",
    "vent", "promesse", "étoiles",
)
VERB = (
    "dormait", "tombait", "regardait", "brillait", "rêvait", "arriva", "racontait",
    "écoutait", "voulait", "restaient", "montra", "murmurait", "demanda", "menait",
    "traversèrent", "sentait", "revint", "dit", "garde", "cultivait", "arrosait",
    "rougissaient", "habitait", "laissait", "disait", "cacha", "tomba", "souriait",
    "savait", "finit", "emporta",
)
ADP = (
    "sous", "sur", "de", "près", "à", "du", "dans", "avec", "au", "derrière", "par",
    "vers", "pendant", "après", "avant", "chez", "contre", "depuis", "malgré",
)
PRON = ("il", "elle", "ils", "on")
ADV = ("doucement", "toujours", "aussi", "ensemble", "jamais", "lentement", "profondément")
CCONJ = ("et", "mais")
SCONJ = ("quand", "si", "que", "lorsque")
PROPN = ("grand-mère",)

# Every LONG_TOKEN_EVERY-th sentence, starting with the fourth, carries one
# address longer than the default 45-character span, so the oversized-token
# paths run on every workload and in every leading subset of four or more.
LONG_TOKEN_EVERY = 29
# Tree weights: the README's example [tree] section and its deprel table,
# plus small depth and crossing terms, so that every field of a cut
# candidate (primary edge, its deprel and depth, the crossing count) moves
# the optimum.
WEIGHTS = {"w_dep": 1.0, "w_count": 0.1, "w_balance": 0.05, "w_depth": 0.02, "w_cross": 0.01}
DEPREL_WEIGHTS = {"conj": 0.9, "advcl": 0.8, "det": -0.8, "acl:relcl": 0.35}
POPULATION, GENERATIONS = 6, 2
EVO_CONFIG = f"[evo]\npopulation = {POPULATION}\ngenerations = {GENERATIONS}\nseed = 3\n"
MAX_CHARS = 45
# Constituents added after the main clause, in these proportions, three in
# five after a comma.
_EXTENSIONS = tuple(
    (kind, k % 5 < 3)
    for kind, count in (("conj", 7), ("sub", 5), ("obl", 5), ("parataxis", 3))
    for k in range(count)
)
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Sent:
    """One generated sentence: parallel token columns, 1-based heads."""

    sent_id: str
    forms: tuple[str, ...]
    upos: tuple[str, ...]
    heads: tuple[int, ...]
    deprels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.forms)

    def space_after(self, i: int) -> bool:
        """Whether 1-based token ``i`` is followed by a space."""
        if self.forms[i - 1].endswith("'"):
            return False
        return i == len(self.forms) or self.forms[i] not in (",", ".")

    def text(self, start: int = 1, end: int | None = None) -> str:
        end = len(self.forms) if end is None else end
        parts = []
        for i in range(start, end + 1):
            parts.append(self.forms[i - 1])
            if i != end and self.space_after(i):
                parts.append(" ")
        return "".join(parts)


class _Builder:
    def __init__(self):
        self.forms: list[str] = []
        self.upos: list[str] = []
        self.heads: list[int] = []
        self.deprels: list[str] = []

    def __len__(self) -> int:
        return len(self.forms)

    def add(self, form: str, upos: str) -> int:
        self.forms.append(form)
        self.upos.append(upos)
        self.heads.append(-1)
        self.deprels.append("")
        return len(self.forms)

    def link(self, dep: int, head: int, deprel: str) -> None:
        self.heads[dep - 1] = head
        self.deprels[dep - 1] = deprel


def _nominal(rng: random.Random, b: _Builder, nmod: float = 0.2) -> int:
    """DET (ADJ) NOUN (ADJ) (de DET NOUN); returns the noun."""
    det = b.add(rng.choice(DET), "DET")
    pre = b.add(rng.choice(("petit", "grand", "vieux")), "ADJ") if rng.random() < 0.15 else 0
    noun = b.add(rng.choice(NOUN), "NOUN")
    b.link(det, noun, "det")
    if pre:
        b.link(pre, noun, "amod")
    if rng.random() < 0.3:
        b.link(b.add(rng.choice(ADJ), "ADJ"), noun, "amod")
    if rng.random() < nmod:
        case = b.add("de", "ADP")
        inner = _nominal(rng, b, nmod=0.0)
        b.link(case, inner, "case")
        b.link(inner, noun, "nmod")
    return noun


def _prepositional(rng: random.Random, b: _Builder) -> int:
    """ADP nominal; returns the noun, to be attached as obl."""
    case = b.add(rng.choice(ADP), "ADP")
    noun = _nominal(rng, b, nmod=0.1)
    b.link(case, noun, "case")
    return noun


def _clause(rng: random.Random, b: _Builder, mark: str | None = None) -> int:
    """(mark) subject (ADV) VERB (object) (obliques) (ADV); returns the verb."""
    m = b.add(mark, "SCONJ") if mark else 0
    if rng.random() < 0.4:
        subj = b.add(rng.choice(PRON), "PRON")
    elif rng.random() < 0.05:
        subj = b.add(rng.choice(PROPN), "PROPN")
    else:
        subj = _nominal(rng, b)
    adv = b.add(rng.choice(ADV), "ADV") if rng.random() < 0.15 else 0
    verb = b.add(rng.choice(VERB), "VERB")
    b.link(subj, verb, "nsubj")
    if m:
        b.link(m, verb, "mark")
    if adv:
        b.link(adv, verb, "advmod")
    if rng.random() < 0.6:
        b.link(_nominal(rng, b), verb, "obj")
    last = verb
    while rng.random() < 0.4:
        # later obliques mostly modify the noun just before them
        noun = _prepositional(rng, b)
        if last == verb:
            b.link(noun, verb, "obl")
        else:
            b.link(noun, last, "nmod")
        last = noun if rng.random() < 0.7 else verb
    if rng.random() < 0.15:
        b.link(b.add(rng.choice(ADV), "ADV"), verb, "advmod")
    return verb


def _long_token(rng: random.Random) -> str:
    length = rng.randint(MAX_CHARS + 1, MAX_CHARS + 15)
    text = "https://exemple.org/" + rng.choice(NOUN) + "/"
    while len(text) < length:
        text += rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
    return text


def _sentence(
    rng: random.Random, sent_id: str, target: int, band: tuple[int, int], long_token: bool
) -> Sent:
    """A sentence of at least ``target`` tokens that stays in ``band``."""
    while True:
        b = _Builder()
        if rng.random() < 0.2:  # fronted subordinate clause
            sub = _clause(rng, b, mark=rng.choice(SCONJ))
            comma = b.add(",", "PUNCT")
            root = _clause(rng, b)
            b.link(sub, root, "advcl")
            b.link(comma, root, "punct")
        else:
            root = _clause(rng, b)
        # Clause heads on the right spine; attaching only to these keeps the
        # tree projective.
        spine = [root]
        tail = 3 if long_token else 1
        deck: list[tuple[str, bool]] = []
        while len(b) + tail < target:
            anchor = spine[-1] if rng.random() < 0.8 else rng.choice(spine)
            if not deck:
                # dealt from a shuffled deck rather than drawn independently,
                # so clause and comma counts vary less between sentences of
                # one length, and so does the cascade's work on them
                deck = list(_EXTENSIONS)
                rng.shuffle(deck)
            kind, with_comma = deck.pop()
            comma = b.add(",", "PUNCT") if with_comma else 0
            if kind == "conj":
                cc = b.add(rng.choice(CCONJ), "CCONJ")
                head, rel = _clause(rng, b), "conj"
                b.link(cc, head, "cc")
            elif kind == "sub":
                head = _clause(rng, b, mark=rng.choice(SCONJ))
                rel = rng.choice(("advcl", "ccomp"))
            elif kind == "obl":
                head, rel = _prepositional(rng, b), "obl"
            else:
                head, rel = _clause(rng, b), "parataxis"
            if comma:
                b.link(comma, head, "punct")
            b.link(head, anchor, rel)
            spine = spine[: spine.index(anchor) + 1] + ([head] if rel != "obl" else [])
        if long_token:
            case = b.add(rng.choice(("sur", "vers", "dans")), "ADP")
            address = b.add(_long_token(rng), "PROPN")
            b.link(case, address, "case")
            b.link(address, root, "obl")
        b.link(b.add(".", "PUNCT"), root, "punct")
        b.link(root, 0, "root")
        if band[0] <= len(b) <= band[1]:
            return Sent(sent_id, tuple(b.forms), tuple(b.upos), tuple(b.heads), tuple(b.deprels))


def make_sentences(
    rng: random.Random, prefix: str, band: tuple[int, int], count: int = 0, tokens: int = 0
) -> list[Sent]:
    """Distinct sentences in the length band: ``count`` of them, or as many
    as it takes to reach ``tokens`` tokens.

    Target lengths follow a golden-ratio sequence from a seeded start, so
    every prefix of the corpus spreads evenly over the band, and corpora and
    their prefixes from different seeds have nearly the same length profile.
    """
    lo, hi = band
    start = rng.random()
    out: list[Sent] = []
    seen = set()
    total = 0
    while (count and len(out) < count) or (tokens and total < tokens):
        k = len(out)
        long_token = k % LONG_TOKEN_EVERY == 3
        if long_token:
            # one candidate-export fallback costs O(n^3) on this sentence, so
            # a fixed length keeps that cost the same from seed to seed
            target = (lo + hi) // 2
        else:
            target = lo + int(((start + k * _GOLDEN) % 1.0) * (hi - lo + 1))
        sent = _sentence(rng, f"{prefix}-{k:05d}", target, band, long_token)
        key = (sent.forms, sent.heads)
        if key in seen:
            continue
        seen.add(key)
        out.append(sent)
        total += len(sent)
    return out


def gold_spans(sent: Sent, max_chars: int = MAX_CHARS) -> list[tuple[int, int]]:
    """Greedy packing into units of at most ``max_chars`` characters.

    A unit closes after a comma once it holds 24 characters; an overfull one
    is cut at its last comma or before its last conjunction or preposition,
    else before the token that overflowed.  A token longer than the budget
    stands alone.
    """
    n = len(sent)

    def breakable(p: int) -> bool:
        return sent.forms[p - 1] == "," or sent.upos[p] in ("SCONJ", "CCONJ", "ADP")

    spans = []
    start = 1
    for i in range(1, n + 1):
        while start < i and len(sent.text(start, i)) > max_chars:
            cuts = [p for p in range(start, i) if breakable(p) and len(sent.text(start, p)) >= 12]
            cut = cuts[-1] if cuts else i - 1
            spans.append((start, cut))
            start = cut + 1
        if len(sent.text(start, i)) > max_chars:
            spans.append((i, i))
            start = i + 1
        elif i < n and sent.forms[i - 1] == "," and len(sent.text(start, i)) >= 24:
            spans.append((start, i))
            start = i + 1
    if start <= n:
        spans.append((start, n))
    return _without_orphans(sent, spans, max_chars)


def _without_orphans(sent: Sent, spans: list[tuple[int, int]], max_chars: int):
    """Fold a lone token that fits the budget (a final period, a preposition
    cut off before an oversized token) into the unit before it, or move that
    unit's last token over to it."""
    out: list[tuple[int, int]] = []
    for a, b in spans:
        if a == b and out and len(sent.text(a, b)) <= max_chars:
            pa, pb = out[-1]
            if len(sent.text(pa, b)) <= max_chars:
                out[-1] = (pa, b)
                continue
            if pb > pa and len(sent.text(pb, b)) <= max_chars:
                out[-1] = (pa, pb - 1)
                a = pb
        out.append((a, b))
    return out


def conllu(sents: list[Sent]) -> str:
    blocks = []
    for s in sents:
        lines = [f"# sent_id = {s.sent_id}", f"# text = {s.text()}"]
        for i in range(1, len(s) + 1):
            misc = "_" if s.space_after(i) or i == len(s) else "SpaceAfter=No"
            lines.append(
                f"{i}\t{s.forms[i - 1]}\t_\t{s.upos[i - 1]}\t_\t_\t{s.heads[i - 1]}"
                f"\t{s.deprels[i - 1]}\t_\t{misc}"
            )
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks) + "\n"


def gold_rhz(sents: list[Sent], label: str) -> str:
    lines = [f"#doc {label}"]
    for s in sents:
        lines.extend(s.text(a, b) for a, b in gold_spans(s))
        lines.append("")
    return "\n".join(lines) + "\n"


def _probability(rng: random.Random, label: int) -> float:
    return round((0.55 if label else 0.05) + 0.4 * rng.random(), 6)


def score_rows(rng: random.Random, candidates) -> list[str]:
    """Score-table lines over labelled candidates ``(sent_id, start, end, label)``.

    Positives score high and negatives low, with seeded noise; one row in ten
    is left out, as from a classifier that scored only part of the pool, so
    some units fall back to epsilon.
    """
    lines = []
    for sent_id, start, end, label in candidates:
        if rng.random() < 0.1:
            continue
        lines.append(f"{sent_id}\t{start}\t{end}\t{_probability(rng, label)}\n")
    return lines


def near_miss_candidates(rng: random.Random, sents: list[Sent], negatives: int = 4):
    """Gold spans plus distinct span-feasible near misses sharing one boundary."""
    for s in sents:
        n = len(s)
        spans = gold_spans(s)
        used = set(spans)
        for gs, ge in spans:
            yield s.sent_id, gs, ge, 1
            pool = [(gs, e) for e in range(gs, n + 1) if e != ge]
            pool += [(b, ge) for b in range(1, ge + 1) if b != gs]
            pool = [c for c in pool if c not in used and len(s.text(*c)) <= MAX_CHARS]
            for a, b in rng.sample(pool, min(negatives, len(pool))):
                used.add((a, b))
                yield s.sent_id, a, b, 0


def exported_candidates(tsv: str):
    """Labelled candidates from an ``export-dataset`` TSV."""
    for line in tsv.splitlines()[1:]:
        sent_id, _, start, end, _, label = line.split("\t")
        yield sent_id, int(start), int(end), int(label)


def weights_json() -> str:
    payload = dict(WEIGHTS, default_deprel_weight=0.0, deprel_weights=DEPREL_WEIGHTS)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def descriptors(sents: list[Sent]) -> dict:
    """Sentences, tokens, mean length, crossings per boundary, mean arc."""
    tokens = sum(len(s) for s in sents)
    arcs = [abs(h - i) for s in sents for i, h in enumerate(s.heads, start=1) if h]
    crossings = boundaries = 0
    for s in sents:
        for p in range(1, len(s)):
            boundaries += 1
            crossings += sum(
                1 for i, h in enumerate(s.heads, start=1) if h and min(h, i) <= p < max(h, i)
            )
    return {
        "sentences": len(sents),
        "tokens": tokens,
        "mean_len": round(tokens / len(sents), 2),
        "crossings_per_boundary": round(crossings / max(boundaries, 1), 3),
        "mean_arc": round(sum(arcs) / max(len(arcs), 1), 3),
    }


def write(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8 and return its SHA-256."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
