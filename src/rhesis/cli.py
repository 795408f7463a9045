"""Command-line entry point tying the pipeline together.

Subcommands: segment, tune, eval, export-dataset, stats.  Exit codes: 0 on
success, 1 for usage errors, 2 for data or format errors.  Every run echoes
its effective configuration as one JSON line on stderr, so outputs can be
reproduced from logs.  A data error or warning raised in ``_named`` names its
option and file; payload output (stdout or --out) carries no timestamps and
is byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import contextmanager
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
from .errors import ParseError, RhesisError
from .evaluate import document_report, format_length_stats, format_report, length_stats
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
    p.set_defaults(run=_cmd_segment)
    p.add_argument("--input", required=True, help="CoNLL-U file")
    p.add_argument("--method", required=True, choices=("cascade", "tree", "scores"))
    p.add_argument("--weights", help="weight file (required for --method tree)")
    p.add_argument("--scores", help="score table (required for --method scores)")
    p.add_argument("--span", type=int, help="override the span budget")
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    p.add_argument("--format", default="txt", choices=("txt", "records", "html"))
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("tune", help="evolve scoring weights against gold data")
    p.set_defaults(run=_cmd_tune)
    p.add_argument("--conllu", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--seed", type=int, help="override [evo] seed")
    p.add_argument("--generations", type=int, help="override [evo] generations")
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    p.add_argument("--out", required=True, help="weight file to write")

    p = sub.add_parser("eval", help="score an automatic segmentation against gold")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--auto", required=True, help="automatic segmentation (.rhz)")
    p.add_argument("--gold", required=True, help="gold segmentation (.rhz)")
    p.add_argument("--conllu", required=True)
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    p.add_argument("--report", help="also write the report as JSON here")

    p = sub.add_parser("export-dataset", help="export labeled classifier candidates")
    p.set_defaults(run=_cmd_export)
    p.add_argument("--conllu", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--negatives", type=int, default=3, help="negatives per positive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    p.add_argument("--out", required=True, help="TSV path (manifest: <out>.manifest.json)")

    p = sub.add_parser("stats", help="length statistics of a segmentation")
    p.set_defaults(run=_cmd_stats)
    p.add_argument("--rhz", required=True)
    p.add_argument("--conllu", required=True)
    p.add_argument("--config", help="config file (else $RHESIS_CONFIG)")
    return parser


def _effective(cfg: EngineConfig, args: argparse.Namespace) -> EngineConfig:
    """``cfg`` with the command's overrides; ``export-dataset --seed`` seeds only the export."""
    if args.command == "segment" and args.span is not None:
        return replace(cfg, span=_with_max_chars(cfg.span, args.span))
    if args.command == "tune":
        given = {k: v for k in ("seed", "generations") if (v := getattr(args, k)) is not None}
        return replace(cfg, evo=replace(cfg.evo, **given))
    return cfg


@contextmanager
def _named(option: str, path: str):
    """Name the option and the file in each data error or warning raised inside."""
    with warnings.catch_warnings():  # the caller's filters apply; its hook comes back
        warnings.showwarning = lambda message, *_: print(
            f"rhesis: warning: {option} {path}: {message}", file=sys.stderr
        )
        try:
            yield
        except (RhesisError, Warning) as exc:
            raise RhesisError(f"{option} {path}: {exc}") from exc


def _read(option: str, path: str, parse):
    with _named(option, path):
        return parse(Path(path).read_bytes())


def _aligned(sentences, option: str, path: str):
    return _read(option, path, lambda data: align_gold(sentences, parse_gold(data)))


def _sentences(data: bytes) -> list:
    """The sentences of a ``--conllu`` input, which must hold some."""
    sentences = parse_conllu(data)
    if not sentences:
        raise ParseError("no sentences")
    return sentences


def _load_corpus(conllu_path: str, option: str, path: str):
    return _aligned(_read("--conllu", conllu_path, _sentences), option, path)


def _write_manifest(out: str, manifest: dict) -> None:
    Path(f"{out}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cmd_segment(args, cfg: EngineConfig) -> int:
    sentences = _read("--input", args.input, parse_conllu)
    if args.method == "cascade":
        segs = (regroup(s, cascade_segment(s, cfg.cascade), cfg.cascade) for s in sentences)
    elif args.method == "tree":
        with _named("--weights", args.weights):
            weights = read_weights(args.weights)
        segs = (segment_best(s, weights, cfg.span) for s in sentences)
    else:
        table = _read("--scores", args.scores, load_scores)
        segs = (segment_by_scores(s, table, cfg.span, epsilon=cfg.score_epsilon) for s in sentences)
    with _named("--input", args.input):  # the segmenters run, and warn, here
        segs = list(segs)
    if args.method == "scores":
        with _named("--scores", args.scores):
            _warn_unscored(table, sentences, segs)
    text = render(segs, RenderOptions(format=args.format, include_ids=args.format == "html"))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _warn_unscored(table, sentences, segs) -> None:
    """One warning counting score rows no segmentation can use and chosen
    units that had no row (they scored epsilon); none when all are zero."""
    unknown, past_end = unmatched_rows(table, sentences)
    rows = table._rows()  # the grouped view: a loaded table never builds its key dict
    epsilon = sum(
        b not in rows.get(seg.sentence_id, {}).get(a, ()) for seg in segs for a, b in seg.spans()
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
        warnings.warn(", ".join(counts))


def _cmd_tune(args, cfg: EngineConfig) -> int:
    corpus = _load_corpus(args.conllu, "--gold", args.gold)
    best, trace = evolve(corpus, cfg.evo, cfg.span)
    write_weights(args.out, best.decode())
    view = effective_config(cfg)
    _write_manifest(args.out, {
        "seed": cfg.evo.seed,
        "config": view["evo"],
        "span": view["span"],
        "labels": list(best.labels),
        "trace": trace,
    })
    print(
        f"best fitness {trace[-1]:.4f} after {cfg.evo.generations} generations "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args, cfg: EngineConfig) -> int:
    sentences = _read("--conllu", args.conllu, _sentences)
    auto = _aligned(sentences, "--auto", args.auto)
    gold = _aligned(sentences, "--gold", args.gold)
    report = document_report([entry.gold for entry in auto], gold)
    sys.stdout.write(format_report(report))
    if args.report:
        Path(args.report).write_text(
            json.dumps(asdict(report), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    return 0


def _cmd_export(args, cfg: EngineConfig) -> int:
    corpus = _load_corpus(args.conllu, "--gold", args.gold)
    examples = export_candidates(corpus, args.negatives, args.seed, span=cfg.span)
    Path(args.out).write_text(candidates_to_tsv(examples), encoding="utf-8")
    positives = sum(1 for ex in examples if ex.label == 1)
    _write_manifest(
        args.out, finetune_manifest(args.negatives, args.seed, positives, len(examples) - positives)
    )
    print(f"{len(examples)} examples -> {args.out}", file=sys.stderr)
    return 0


def _cmd_stats(args, cfg: EngineConfig) -> int:
    corpus = _load_corpus(args.conllu, "--rhz", args.rhz)
    stats = length_stats([entry.gold for entry in corpus.entries])
    sys.stdout.write(format_length_stats(stats))
    return 0


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
        cfg = _effective(load_config(args.config), args)
        header = {"command": args.command, "config": effective_config(cfg)}
        print(
            "# effective-config " + json.dumps(header, sort_keys=True, ensure_ascii=False),
            file=sys.stderr,
        )
        return args.run(args, cfg)
    except (RhesisError, ValueError, OSError, Warning) as exc:  # Warning: a filter's "error"
        print(f"rhesis: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
