"""Compare segmentation methods on the fixture and print a report card.

rhesis_precision counts exact span matches against the human segmentation;
boundary_prf is the softer diagnostic over cut positions alone.
"""

import warnings
from importlib import resources

from rhesis import (
    CascadeConfig,
    ScoringWeights,
    SpanConfig,
    align_gold,
    boundary_prf,
    cascade_segment,
    document_report,
    format_length_stats,
    format_report,
    length_stats,
    parse_conllu,
    parse_gold,
    regroup,
    rhesis_precision,
    segment_best,
)

data = resources.files("rhesis").joinpath("data")
sentences = parse_conllu(data.joinpath("fixture.conllu").read_bytes())
corpus = align_gold(sentences, parse_gold(data.joinpath("fixture.rhz").read_bytes()))

span = SpanConfig()
cascade_cfg = CascadeConfig(span=span)
weights = ScoringWeights(
    w_dep=1.0,
    w_count=0.15,
    w_balance=0.02,
    deprel_weights={"conj": 0.9, "advcl": 0.8, "parataxis": 0.8, "obl": 0.3,
                    "det": -0.9, "case": -0.8, "amod": -0.7, "aux": -0.8,
                    "cop": -0.8, "nsubj": -0.4},
)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    methods = {
        "cascade": [regroup(s, cascade_segment(s, cascade_cfg), cascade_cfg)
                    for s in sentences],
        "tree": [segment_best(s, weights, span) for s in sentences],
    }

gold = [entry.gold for entry in corpus]
for name, segs in methods.items():
    p, r, f1 = rhesis_precision(segs, gold)
    bp, br, bf = boundary_prf(segs, gold)
    print(f"{name:<8} precision {p:.3f}  recall {r:.3f}  f1 {f1:.3f}"
          f"  |  boundaries {bp:.3f}/{br:.3f}/{bf:.3f}")

# Per-document rows weight the corpus average by gold rhesis counts.
print()
print(format_report(document_report(methods["cascade"], corpus)))

# How long are the units the human chose?
print(format_length_stats(length_stats(gold)))
