"""Command-line entry point tying the pipeline together.

Subcommands: segment, tune, eval, export-dataset, stats.  Exit codes: 0 on
success, 1 for usage errors, 2 for data or format errors.  Every run echoes
its effective configuration as one JSON line on stderr, so outputs can be
reproduced from logs, and prints each library warning after it as one
``rhesis: warning:`` line; payload output (stdout or --out) carries no
timestamps and is byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

from .cascade import cascade_segment, regroup
from .config import EngineConfig, _with_max_chars, effective_config, load_config
from .corpus import align_gold, parse_conllu, parse_gold
from .dataset import (
    candidates_to_tsv,
    export_candidates,
    finetune_manifest,
    load_scores,
    segment_by_scores,
    unmatched_rows,
)
from .errors import RhesisError
from .evaluate import (
    PerDocRow,
    boundary_prf,
    corpus_report,
    format_length_stats,
    format_report,
    length_stats,
    rhesis_precision,
)
from .evolve import evolve
from .render import RenderOptions, render
from .scoring import read_weights, segment_best, write_weights

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's 2
        raise _UsageError(message)


@cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="rhesis", description="Segment sentences into units of meaning.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("segment", help="segment a parsed document")
    p.add_argument("--input", required=True, help="CoNLL-U file")
    p.add_argument("--method", required=True, choices=("cascade", "tree", "scores"))
    p.add_argument("--weights", help="weight file (required for --method tree)")
    p.add_argument("--scores", help="score table (required for --method scores)")
    p.add_argument("--span", type=int, help="override the span budget")
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    p.add_argument("--format", default="txt", choices=("txt", "records", "html"))
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("tune", help="evolve scoring weights against gold data")
    p.add_argument("--conllu", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--seed", type=int, help="override [evo] seed")
    p.add_argument("--generations", type=int, help="override [evo] generations")
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    p.add_argument("--out", required=True, help="weight file to write")

    p = sub.add_parser("eval", help="score an automatic segmentation against gold")
    p.add_argument("--auto", required=True, help="automatic segmentation (.rhz)")
    p.add_argument("--gold", required=True, help="gold segmentation (.rhz)")
    p.add_argument("--conllu", required=True)
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    p.add_argument("--report", help="also write the report as JSON here")

    p = sub.add_parser("export-dataset", help="export labeled classifier candidates")
    p.add_argument("--conllu", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--negatives", type=int, default=3, help="negatives per positive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    p.add_argument("--out", required=True, help="TSV path (manifest: <out>.manifest.json)")

    p = sub.add_parser("stats", help="length statistics of a segmentation")
    p.add_argument("--rhz", required=True)
    p.add_argument("--conllu", required=True)
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _effective(cfg: EngineConfig, args: argparse.Namespace) -> EngineConfig:
    span = getattr(args, "span", None)
    if span is not None:
        cfg = replace(cfg, span=_with_max_chars(cfg.span, span))
    seed = getattr(args, "seed", None)
    generations = getattr(args, "generations", None)
    if args.command == "tune" and (seed is not None or generations is not None):
        evo = cfg.evo
        if seed is not None:
            evo = replace(evo, seed=seed)
        if generations is not None:
            evo = replace(evo, generations=generations)
        cfg = replace(cfg, evo=evo)
    return cfg


def _load_corpus(conllu_path: str, gold_path: str):
    sentences = parse_conllu(Path(conllu_path).read_bytes())
    gold = parse_gold(Path(gold_path).read_bytes())
    return sentences, align_gold(sentences, gold)


def _cmd_segment(args, cfg: EngineConfig) -> int:
    sentences = parse_conllu(Path(args.input).read_bytes())
    if args.method == "cascade":
        segs = [regroup(s, cascade_segment(s, cfg.cascade), cfg.cascade) for s in sentences]
    elif args.method == "tree":
        weights = read_weights(args.weights)
        segs = [segment_best(s, weights, cfg.span) for s in sentences]
    else:
        table = load_scores(Path(args.scores).read_bytes())
        segs = [
            segment_by_scores(s, table, cfg.span, epsilon=cfg.score_epsilon)
            for s in sentences
        ]
        _warn_unscored(table, sentences, segs)
    opts = RenderOptions(format=args.format, include_ids=args.format == "html")
    _emit(render(segs, opts), args.out)
    return 0


def _warn_unscored(table, sentences, segs) -> None:
    """One stderr line counting score rows no segmentation can use and chosen
    units that had no row (they scored epsilon); nothing when all are zero."""
    unknown, past_end = unmatched_rows(table, sentences)
    get = table.probabilities.get
    epsilon = sum(
        get((seg.sentence_id, r.start, r.end)) is None for seg in segs for r in seg.rhesis
    )
    counts = []
    if unknown or past_end:
        counts.append(
            f"{unknown} score rows name no input sentence, "
            f"{past_end} end past their sentence's last token"
        )
    if epsilon:
        counts.append(f"{epsilon} chosen units had no score row and scored epsilon")
    if counts:
        print("rhesis: warning: " + ", ".join(counts), file=sys.stderr)


def _cmd_tune(args, cfg: EngineConfig) -> int:
    _, corpus = _load_corpus(args.conllu, args.gold)
    best, trace = evolve(corpus, cfg.evo, cfg.span)
    write_weights(args.out, best.decode())
    view = effective_config(cfg)
    manifest = {
        "seed": cfg.evo.seed,
        "config": view["evo"],
        "span": view["span"],
        "labels": list(best.labels),
        "trace": trace,
    }
    Path(f"{args.out}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"best fitness {trace[-1]:.4f} after {cfg.evo.generations} generations "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args, cfg: EngineConfig) -> int:
    sentences = parse_conllu(Path(args.conllu).read_bytes())
    auto = align_gold(sentences, parse_gold(Path(args.auto).read_bytes()))
    gold = align_gold(sentences, parse_gold(Path(args.gold).read_bytes()))
    groups: dict[str, list[int]] = {}
    for i, entry in enumerate(gold.entries):
        groups.setdefault(entry.doc_label, []).append(i)
    rows = []
    for label, idxs in groups.items():
        auto_segs = [auto.entries[i].gold for i in idxs]
        gold_segs = [gold.entries[i].gold for i in idxs]
        p, r, f1 = rhesis_precision(auto_segs, gold_segs)
        bp, br, bf = boundary_prf(auto_segs, gold_segs)
        count = sum(len(seg.rhesis) for seg in gold_segs)
        rows.append(PerDocRow(label or "-", count, p, r, f1, bp, br, bf))
    report = corpus_report(rows)
    sys.stdout.write(format_report(report))
    if args.report:
        payload = {
            "per_doc": [asdict(row) for row in report.per_doc],
            "weighted_precision": report.weighted_precision,
        }
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    return 0


def _cmd_export(args, cfg: EngineConfig) -> int:
    _, corpus = _load_corpus(args.conllu, args.gold)
    examples = export_candidates(corpus, args.negatives, args.seed, span=cfg.span)
    Path(args.out).write_text(candidates_to_tsv(examples), encoding="utf-8")
    positives = sum(1 for ex in examples if ex.label == 1)
    manifest = finetune_manifest(args.negatives, args.seed, positives, len(examples) - positives)
    Path(f"{args.out}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"{len(examples)} examples -> {args.out}", file=sys.stderr)
    return 0


def _cmd_stats(args, cfg: EngineConfig) -> int:
    _, corpus = _load_corpus(args.conllu, args.rhz)
    stats = length_stats([entry.gold for entry in corpus.entries])
    sys.stdout.write(format_length_stats(stats))
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning as one ``rhesis: warning:`` line, without its source."""
    print(f"rhesis: warning: {message}", file=sys.stderr)


_HANDLERS = {
    "segment": _cmd_segment,
    "tune": _cmd_tune,
    "eval": _cmd_eval,
    "export-dataset": _cmd_export,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "segment":
            if args.method == "tree" and not args.weights:
                raise _UsageError("--method tree requires --weights")
            if args.method == "scores" and not args.scores:
                raise _UsageError("--method scores requires --scores")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _effective(load_config(getattr(args, "config", None)), args)
        header = {"command": args.command, "config": effective_config(cfg)}
        print(
            "# effective-config " + json.dumps(header, sort_keys=True, ensure_ascii=False),
            file=sys.stderr,
        )
        with warnings.catch_warnings():  # the caller's filters stay; its hook comes back
            warnings.showwarning = _show_warning
            return _HANDLERS[args.command](args, cfg)
    except (RhesisError, ValueError, OSError) as exc:
        print(f"rhesis: error: {exc}", file=sys.stderr)
        return 2
