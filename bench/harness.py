"""Workloads, passes, output checks and metrics of the rhesis benchmark.

A workload is a seeded corpus split into documents of a few hundred to a
thousand tokens, the way a user feeds the CLI one document at a time.  One
run writes the inputs, runs the job once untimed to check every output, then
repeats the job until the measuring time is used up.  A job calls
``rhesis.cli.main`` for every command on every document and, with tracing
off, makes the per-sentence library calls behind each segmenter.  Times are
nominal seconds (see ``clock``), printed beside the raw ones; every figure
is a median over the passes.
"""

from __future__ import annotations

import gc
import hashlib
import io
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import spans
from clock import Clock, Timing
from rhesis import cli
from rhesis.cascade import cascade_segment, regroup
from rhesis.config import load_config
from rhesis.corpus import align_gold, parse_conllu, parse_gold
from rhesis.dataset import load_scores, segment_by_scores
from rhesis.errors import OversizedTokenWarning, RhesisError
from rhesis.evolve import SCALAR_ORDER, Genome, corpus_labels, fitness
from rhesis.scoring import (
    crossing_edges,
    enumerate_all,
    read_weights,
    segment_best,
    segmentation_score,
)
from rhesis.span import text_measure

MIN_PASSES = 3
SETUP_REPEATS = 21
ORACLE_SAMPLE = 10
ORACLE_MAX_TOKENS = 12
METHODS = ("cascade", "tree", "scores")


@dataclass(frozen=True)
class Workload:
    band: tuple[int, int]  # sentence lengths in tokens
    count: int = 0  # sentences in the corpus, or
    tokens: int = 0  # tokens in the corpus
    doc: int = 10  # sentences per corpus document
    export: tuple[int, int] = (0, 10)  # leading sentences (0: all), sentences per document
    tune: tuple[int, int] = (0, 10)  # the same for tune
    table: str = "gold"  # score table from gold near misses, or "export"


WORKLOADS = {
    "long": Workload((60, 120), count=100, doc=10, export=(24, 2), tune=(16, 4)),
    "short": Workload((5, 20), tokens=9000, doc=60, export=(0, 60), tune=(120, 20)),
    "train": Workload((20, 60), count=150, doc=20, export=(0, 20), tune=(0, 10), table="export"),
}


class Tally:
    """Operations attempted and the distinct ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[tuple, str] = {}

    def fail(self, key: tuple, message: str) -> None:
        self.failed.setdefault(key, message)


@dataclass
class Prepared:
    name: str
    work: Path
    docs: list[dict]  # corpus documents: conllu, gold and scores paths, sentences
    export_docs: list[dict]  # conllu and gold paths, sentences
    tune_docs: list[dict]
    files: dict[str, Path]  # weights, evo, scores (the whole table)
    digests: dict[str, str]  # SHA-256 per input group
    descriptors: dict
    tokens: dict[str, int]  # in the corpus, the export and the tune documents


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale)) if n else 0


def prepare(name: str, seed: int, scale: float, work: Path, tally: Tally) -> Prepared:
    """Write the workload's inputs under ``work`` from ``seed``."""
    wl = WORKLOADS[name]
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("corpus", "export", "tune", "out"):
        (work / sub).mkdir(parents=True)
    rng = random.Random(f"{name}:{seed}")
    sents = inputs.make_sentences(
        rng, name, wl.band, count=_scaled(wl.count, scale, 3), tokens=_scaled(wl.tokens, scale, 40)
    )
    groups: dict = {}

    def put(group: str, path: Path, text: str) -> Path:
        groups.setdefault(group, hashlib.sha256()).update(inputs.write(path, text).encode())
        return path

    def documents(part: str, sub: list, size: int) -> list[dict]:
        out = []
        for k in range(0, len(sub), size):
            chunk = sub[k : k + size]
            stem = work / part / f"{part[0]}{k // size:03d}"
            out.append({
                "conllu": put(f"{part}.conllu", stem.with_suffix(".conllu"), inputs.conllu(chunk)),
                "gold": put(f"{part}.gold", stem.with_suffix(".rhz"), inputs.gold_rhz(chunk, stem.name)),
                "sentences": chunk,
            })
        return out

    subsets = {
        part: sents[: _scaled(n, scale, 2)] if n else sents
        for part, (n, _) in (("export", wl.export), ("tune", wl.tune))
    }
    docs = documents("corpus", sents, wl.doc)
    export_docs = documents("export", subsets["export"], wl.export[1])
    tune_docs = documents("tune", subsets["tune"], wl.tune[1])
    files = {
        "weights": put("weights", work / "weights.json", inputs.weights_json()),
        "evo": put("evo", work / "evo.ini", inputs.EVO_CONFIG),
    }
    if wl.table == "export":
        candidates = []
        for k, doc in enumerate(export_docs):
            source = work / "export" / f"table-source{k:03d}.tsv"
            rc, _, _, err = run_cli(_export_argv(doc, source))
            tally.attempted += 1
            if rc != 0:
                tally.fail(("prepare", k), f"export for the score table failed: {err[-500:]}")
                continue
            candidates += inputs.exported_candidates(source.read_text(encoding="utf-8"))
    else:
        candidates = list(inputs.near_miss_candidates(rng, sents))
    rows = inputs.score_rows(rng, candidates)
    files["scores"] = put("scores", work / "scores.tsv", "".join(rows))
    doc_of = {s.sent_id: k for k, doc in enumerate(docs) for s in doc["sentences"]}
    per_doc: list[list[str]] = [[] for _ in docs]
    for row in rows:
        per_doc[doc_of[row.split("\t", 1)[0]]].append(row)
    for doc, doc_rows in zip(docs, per_doc):
        doc["scores"] = put("corpus.scores", doc["conllu"].with_suffix(".scores.tsv"), "".join(doc_rows))
    return Prepared(
        name=name,
        work=work,
        docs=docs,
        export_docs=export_docs,
        tune_docs=tune_docs,
        files=files,
        digests={group: h.hexdigest() for group, h in groups.items()},
        descriptors=inputs.descriptors(sents),
        tokens={"corpus": sum(map(len, sents)), **{p: sum(map(len, s)) for p, s in subsets.items()}},
    )


def _export_argv(doc: dict, out: Path) -> list[str]:
    return [
        "export-dataset", "--conllu", str(doc["conllu"]), "--gold", str(doc["gold"]),
        "--negatives", "4", "--seed", "0", "--out", str(out),
    ]


def job(prep: Prepared) -> list[tuple[str, list[str], list[Path]]]:
    """The workload's CLI calls: (command label, argv, files holding the payload)."""
    f, out = prep.files, prep.work / "out"
    extra = {
        "cascade": lambda doc: [],
        "tree": lambda doc: ["--weights", str(f["weights"])],
        "scores": lambda doc: ["--scores", str(doc["scores"])],
    }
    calls = []
    for k, doc in enumerate(prep.docs):
        corpus = str(doc["conllu"])
        for m in METHODS:
            seg = out / f"{m}-d{k:03d}.rhz"
            argv = ["segment", "--input", corpus, "--method", m, *extra[m](doc), "--out", str(seg)]
            calls.append((f"segment.{m}", argv, [seg]))
        for m in METHODS:
            argv = ["eval", "--auto", str(out / f"{m}-d{k:03d}.rhz"), "--gold", str(doc["gold"]),
                    "--conllu", corpus]
            calls.append((f"eval.{m}", argv, []))
        calls.append(("stats", ["stats", "--rhz", str(out / f"tree-d{k:03d}.rhz"), "--conllu", corpus], []))
    for k, doc in enumerate(prep.export_docs):
        tsv = out / f"export-e{k:03d}.tsv"
        calls.append(("export", _export_argv(doc, tsv), [tsv, tsv.with_name(tsv.name + ".manifest.json")]))
    for k, doc in enumerate(prep.tune_docs):
        tuned = out / f"tuned-t{k:03d}.json"
        argv = ["tune", "--conllu", str(doc["conllu"]), "--gold", str(doc["gold"]),
                "--config", str(f["evo"]), "--out", str(tuned)]
        calls.append(("tune", argv, [tuned, tuned.with_name(tuned.name + ".manifest.json")]))
    return calls


def run_cli(argv: list[str], recorder: spans.Recorder | None = None, label: str | None = None):
    """One ``rhesis.cli.main`` call: (exit code, raw seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if recorder is None:
                rc = cli.main(argv)
            else:
                with recorder.span("cli.main", label):
                    rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    """One pass of CLI calls, per command: timings, payload hash, first error."""

    timings: dict[str, list[Timing]] = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    def digest(self, label: str) -> str:
        return self.hashes[label].hexdigest()

    def seconds(self, label: str, nominal: bool = True) -> float:
        return sum(t.seconds(nominal) for t in self.timings[label])

    def job_seconds(self) -> float:
        return sum(map(self.seconds, self.timings))


def cli_pass(calls, tally: Tally, clock: Clock, recorder: spans.Recorder | None = None) -> Pass:
    result = Pass()
    for label, argv, payload in calls:
        first_span = len(recorder.spans) if recorder else 0
        rc, seconds, stdout, stderr = run_cli(argv, recorder, label)
        traced = recorder.spans[first_span:] if recorder else ()
        result.timings.setdefault(label, []).append(clock.add(seconds, traced))
        tally.attempted += 1
        if rc != 0:
            result.errors.setdefault(label, f"{label} exited {rc}: {stderr[-500:]}")
        h = result.hashes.setdefault(label, hashlib.sha256())
        h.update(stdout.encode("utf-8"))
        for path in payload:
            h.update(b"\0")
            h.update(path.read_bytes() if path.exists() else b"")
        h.update(b"\n")
    clock.flush()
    return result


class Library:
    """The objects the per-sentence calls need, loaded the way the CLI loads them."""

    def __init__(self, prep: Prepared):
        self.cfg = load_config(None)
        self.docs = [parse_conllu(doc["conllu"].read_bytes()) for doc in prep.docs]
        self.sentences = [s for doc in self.docs for s in doc]
        self.weights = read_weights(prep.files["weights"])
        self.table = load_scores(prep.files["scores"].read_bytes())
        tune = [s for doc in prep.tune_docs for s in parse_conllu(doc["conllu"].read_bytes())]
        gold = [g for doc in prep.tune_docs for g in parse_gold(doc["gold"].read_bytes())]
        self.tune_corpus = align_gold(tune, gold)

    def call(self, method: str, sentence):
        cfg = self.cfg
        if method == "cascade":
            return regroup(sentence, cascade_segment(sentence, cfg.cascade), cfg.cascade)
        if method == "tree":
            return segment_best(sentence, self.weights, cfg.span)
        return segment_by_scores(sentence, self.table, cfg.span, epsilon=cfg.score_epsilon)


def library_pass(lib: Library, tally: Tally, pass_id: int, clock: Clock):
    """Per-sentence calls of every method: {method: [(timing, spans)]}."""
    results = {}
    for method in METHODS:
        times: list[Timing] = []
        segs = []
        for sentence in lib.sentences:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                segs.append(lib.call(method, sentence).spans())
            except Exception:  # a crash is a failed operation, as in run_cli
                tally.fail(("library", pass_id, method, sentence.sent_id), traceback.format_exc()[-500:])
                segs.append(None)
            times.append(clock.add(time.perf_counter() - t0))
        clock.flush()
        results[method] = list(zip(times, segs))
    return results


def _unit_problem(sentence, spans_, span_cfg) -> str | None:
    """Why a segmentation is invalid: gaps, overlaps, or a unit over budget."""
    expected = 1
    for start, end in spans_:
        if start != expected or end < start:
            return f"spans do not tile at ({start}, {end})"
        if start != end and text_measure(sentence.span_text(start, end), span_cfg) > span_cfg.max_chars:
            return f"unit ({start}, {end}) over the span budget"
        expected = end + 1
    if expected != len(sentence) + 1:
        return "spans do not cover the sentence"
    return None


def check_outputs(prep: Prepared, lib: Library, first: Pass, lib_first, tally: Tally) -> None:
    """Exit codes, segment round trips, tiling, budgets, CLI = library, oracle."""
    span_cfg = lib.cfg.span
    for label, message in first.errors.items():
        tally.fail(("cli", 0, label), message)
    for method in METHODS:
        label = f"segment.{method}"
        lib_spans = iter([spans_ for _, spans_ in lib_first[method]])
        for k, sentences in enumerate(lib.docs):
            path = prep.work / "out" / f"{method}-d{k:03d}.rhz"
            try:
                aligned = align_gold(sentences, parse_gold(path.read_bytes()))
            except (OSError, RhesisError) as exc:
                tally.fail(("cli", 0, label), f"{label} {path.name} fails the round trip: {exc}")
                for _ in sentences:
                    next(lib_spans)
                continue
            for entry in aligned.entries:
                problem = _unit_problem(entry.sentence, entry.gold.spans(), span_cfg)
                if next(lib_spans) != entry.gold.spans() and problem is None:
                    problem = "differs from the per-sentence library call"
                if problem:
                    tally.fail(("cli", 0, label), f"{label} {entry.sentence.sent_id}: {problem}")
    for method in METHODS:
        for sentence, (_, lib_spans) in zip(lib.sentences, lib_first[method]):
            problem = lib_spans is not None and _unit_problem(sentence, lib_spans, span_cfg)
            if problem:
                tally.fail(("library", 0, method, sentence.sent_id), f"{method} {sentence.sent_id}: {problem}")
    _check_oracle(prep, lib, tally)


def _check_oracle(prep: Prepared, lib: Library, tally: Tally) -> None:
    """Tree results on short sentences against brute-force enumeration."""
    rng = random.Random(f"oracle:{prep.name}:{prep.digests['corpus.conllu']}")
    pool = [s for s in lib.sentences if len(s) <= ORACLE_MAX_TOKENS]
    if len(pool) < ORACLE_SAMPLE:
        extra = inputs.make_sentences(rng, f"{prep.name}-oracle", (5, ORACLE_MAX_TOKENS), count=ORACLE_SAMPLE)
        pool += parse_conllu(inputs.conllu(extra))
    w, span_cfg = lib.weights, lib.cfg.span
    for sentence in rng.sample(pool, ORACLE_SAMPLE):
        tally.attempted += 1
        best = None
        try:
            for seg in enumerate_all(sentence, span_cfg, cap=ORACLE_MAX_TOKENS):
                score = segmentation_score(sentence, seg, w, span_cfg)
                if best is None or score > best[0]:  # first maximum: fewest units, earliest cuts
                    best = (score, seg.spans())
            got = segment_best(sentence, w, span_cfg).spans()
        except Exception:
            tally.fail(("oracle", sentence.sent_id), traceback.format_exc()[-500:])
            continue
        if got != best[1]:
            tally.fail(("oracle", sentence.sent_id), f"tree {sentence.sent_id}: {got} is not the optimum {best[1]}")


def compare_passes(first: Pass, later: Pass, pass_id: int, tally: Tally) -> None:
    for label in first.hashes:
        if label in later.errors:
            tally.fail(("cli", pass_id, label), later.errors[label])
        elif later.digest(label) != first.digest(label):
            tally.fail(("cli", pass_id, label), f"{label} output differs from the first pass")


def compare_library(lib: Library, first, later, pass_id: int, tally: Tally) -> None:
    for method in METHODS:
        for sentence, (_, want), (_, got) in zip(lib.sentences, first[method], later[method]):
            if got is not None and got != want:
                tally.fail(
                    ("library", pass_id, method, sentence.sent_id),
                    f"{method} {sentence.sent_id}: result differs from the first pass",
                )


def measure_setup(prep: Prepared, tally: Tally) -> list[float]:
    """Fresh interpreters, each until it is ready to segment, in seconds; the
    first only warms caches.  These are raw seconds: start-up is mostly
    process creation and file access, which the reference workload of
    ``clock`` does not track."""
    f = prep.files
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})",
        "import rhesis.cli",
        "from rhesis.config import load_config",
        "from rhesis.dataset import load_scores",
        "from rhesis.scoring import read_weights",
        f"load_config({str(f['evo'])!r})",
        f"read_weights({str(f['weights'])!r})",
        f"load_scores(open({str(f['scores'])!r}, 'rb').read())",
    ])
    times: list[float] = []
    for k in range(SETUP_REPEATS + 1):
        tally.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            tally.fail(("setup", k), f"setup interpreter exited {proc.returncode}: {proc.stderr[-500:]}")
        elif k:
            times.append(seconds)
    return times


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _run_passes(seconds: float, body, start: float | None = None) -> int:
    """Call ``body(pass_id)`` at least MIN_PASSES times, and more while one
    more pass of the mean length still ends within ``seconds`` of ``start``
    (default: now), so that a run measures for about ``seconds``."""
    t0 = time.perf_counter()
    start = t0 if start is None else start
    done = 0
    while done < MIN_PASSES or (time.perf_counter() - t0) * (done + 1) / done <= seconds - (t0 - start):
        done += 1
        body(done)
    return done


def _prologue(name: str, seed: int, scale: float, work: Path, tally: Tally):
    warnings.simplefilter("ignore", OversizedTokenWarning)
    prep = prepare(name, seed, scale, work, tally)
    d, tok = prep.descriptors, prep.tokens
    print(
        f"workload {name} seed {seed}: {d['sentences']} sentences in {len(prep.docs)} documents, "
        f"{d['tokens']} tokens, mean length {d['mean_len']}, "
        f"{d['crossings_per_boundary']} crossings per boundary, mean arc {d['mean_arc']}"
    )
    print(f"export: {tok['export']} tokens in {len(prep.export_docs)} documents; "
          f"tune: {tok['tune']} tokens in {len(prep.tune_docs)} documents")
    for group, digest in prep.digests.items():
        print(f"input {group} sha256 {digest}")
    lib = Library(prep)
    calls = job(prep)
    clock = Clock()
    first = cli_pass(calls, tally, clock)
    lib_first = library_pass(lib, tally, 0, clock)
    check_outputs(prep, lib, first, lib_first, tally)
    return prep, lib, calls, clock, first, lib_first


def _epilogue(first: Pass, tally: Tally, metrics: dict) -> bool:
    for label in first.hashes:
        print(f"output {label} sha256 {first.digest(label)}")
    for message in list(tally.failed.values())[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    failed = len(tally.failed)
    print(f"failed_share = {failed / tally.attempted:.6g} ({failed} failed of {tally.attempted} operations)")
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}  [{note}]")
    return failed == 0


def end_to_end(name: str, seed: int, seconds: float, scale: float, work: Path):
    """Untraced run: every end-to-end metric of the workload."""
    tally = Tally()
    prep, lib, calls, clock, first, lib_first = _prologue(name, seed, scale, work, tally)
    start = time.perf_counter()
    setup = measure_setup(prep, tally)
    cli_runs: list[Pass] = []
    lib_runs = []

    def one_pass(pass_id: int) -> None:
        cli_runs.append(cli_pass(calls, tally, clock))
        compare_passes(first, cli_runs[-1], pass_id, tally)
        lib_runs.append(library_pass(lib, tally, pass_id, clock))
        compare_library(lib, lib_first, lib_runs[-1], pass_id, tally)

    passes = _run_passes(seconds, one_pass, start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = _timed_metrics(prep, lib, cli_runs, lib_runs, nominal=True)
    metrics["setup_s"] = (
        statistics.median(setup) if setup else float("nan"),
        "s",
        f"median of {len(setup)} interpreters, raw seconds",
    )
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", "peak RSS of the benchmark process")
    correct = _epilogue(first, tally, metrics)
    for metric, (value, unit, _) in _timed_metrics(prep, lib, cli_runs, lib_runs, nominal=False).items():
        print(f"raw {metric} = {value:.6g} {unit}  [raw seconds, as above]")
    return correct, tally, metrics


def _timed_metrics(prep: Prepared, lib: Library, cli_runs: list[Pass], lib_runs, nominal: bool):
    """Throughput and latency metrics over the passes, in nominal or raw seconds."""
    metrics: dict[str, tuple[float, str, str]] = {}
    passes = len(cli_runs)
    med = f"median of {passes} passes"
    tok = prep.tokens
    docs = f"{tok['corpus']} tokens in {len(prep.docs)} documents"
    for method in METHODS:
        rates = [tok["corpus"] / run.seconds(f"segment.{method}", nominal) for run in cli_runs]
        metrics[f"{method}.tok_per_s"] = (statistics.median(rates), "tok/s", f"{med}, {docs}")
    n_sent = len(lib.sentences)
    for method, pcts in (("cascade", (90,)), ("tree", (50, 90)), ("scores", (90,))):
        per_sentence = [
            statistics.median(run[method][k][0].seconds(nominal) for run in lib_runs) * 1000
            for k in range(n_sent)
        ]
        for pct in pcts:
            metrics[f"{method}.sent_p{pct}_ms"] = (
                _percentile(per_sentence, pct),
                "ms",
                f"p{pct} of {n_sent} sentences, each the median of {passes} passes",
            )
    evals = [
        3 * tok["corpus"] / sum(run.seconds(f"eval.{m}", nominal) for m in METHODS) for run in cli_runs
    ]
    metrics["eval.tok_per_s"] = (statistics.median(evals), "tok/s", f"{med}, 3 x {docs}")
    exports = [tok["export"] / run.seconds("export", nominal) for run in cli_runs]
    metrics["export.tok_per_s"] = (
        statistics.median(exports),
        "tok/s",
        f"{med}, {tok['export']} input tokens in {len(prep.export_docs)} documents",
    )
    genomes = inputs.POPULATION * (inputs.GENERATIONS + 1) * len(prep.tune_docs)
    tunes = [genomes / run.seconds("tune", nominal) for run in cli_runs]
    metrics["tune.genomes_per_s"] = (
        statistics.median(tunes),
        "genomes/s",
        f"{med}, {genomes} genomes on {tok['tune']} tokens in {len(prep.tune_docs)} documents",
    )
    return metrics


# Per-layer metrics of the traced run, from the spans of each traced pass.
BUSY = (
    "corpus.parse_conllu", "corpus.parse_gold", "corpus.align_gold", "config.load_config",
    "scoring.read_weights", "dataset.load_scores", "cascade.cascade_segment", "cascade.regroup",
    "scoring.crossing_edges", "scoring.segment_best", "dataset.segment_by_scores",
    "dataset.export_candidates", "dataset.candidates_to_tsv", "evolve.fitness", "evolve.evolve",
    "evaluate.rhesis_precision", "evaluate.boundary_prf", "evaluate.length_stats",
    "render.render", "cli.main",
)
RATES = {  # metric: (span, count, unit) -- count per second of the span's self time
    "corpus.parse_conllu.tok_per_s": ("corpus.parse_conllu", "tokens", "tok/s"),
    "dataset.load_scores.rows_per_s": ("dataset.load_scores", "rows", "rows/s"),
    "scoring.crossing_edges.boundaries_per_s": ("scoring.crossing_edges", "boundaries", "1/s"),
    "scoring.segment_best.tok_per_s": ("scoring.segment_best", "tokens", "tok/s"),
    "dataset.segment_by_scores.tok_per_s": ("dataset.segment_by_scores", "tokens", "tok/s"),
    "dataset.export_candidates.cand_per_s": ("dataset.export_candidates", "candidates", "1/s"),
    "render.render.bytes_per_s": ("render.render", "bytes", "B/s"),
}
COUNTS = {  # metric: (span, count) -- per pass
    "cascade.cascade_segment.oversized": ("cascade.cascade_segment", "oversized"),
    "scoring.segment_best.oversized": ("scoring.segment_best", "oversized"),
    "evolve.evolve.genomes": ("evolve.evolve", "genomes"),
}
RATIOS = {  # metric: (span, numerator, denominator)
    "cascade.regroup.kept_ratio": ("cascade.regroup", "after", "before"),
    "dataset.segment_by_scores.epsilon_share": ("dataset.segment_by_scores", "epsilon", "units"),
}


def _direct_calls(recorder: spans.Recorder, lib: Library, genome: Genome, clock: Clock) -> None:
    """The layer calls the CLI does not make: every boundary's crossing edges, one fitness."""
    for sentence in lib.sentences:
        with recorder.span("scoring.crossing_edges", sentence.sent_id) as counts:
            for position in range(1, len(sentence)):
                crossing_edges(sentence, position)
        counts["boundaries"] = len(sentence) - 1
        _clock_span(clock, recorder.spans[-1])
    clock.flush()
    with recorder.span("evolve.fitness"):
        fitness(genome, lib.tune_corpus, lib.cfg.span)
    _clock_span(clock, recorder.spans[-1])
    clock.flush()


def _clock_span(clock: Clock, record: dict) -> None:
    clock.add(record["end"] - record["start"], [record])


def layers(name: str, seed: int, seconds: float, scale: float, work: Path):
    """Traced run: per-layer metrics, with an untraced pass beside each traced one."""
    tally = Tally()
    prep, lib, calls, clock, first, _ = _prologue(name, seed, scale, work, tally)
    recorder = spans.Recorder()
    labels = corpus_labels(lib.tune_corpus)
    w = lib.weights
    genome = Genome(labels, (*(getattr(w, scalar) for scalar in SCALAR_ORDER), *map(w.lookup, labels)))
    plain: list[float] = []
    traced: list[float] = []

    def one_pass(pass_id: int) -> None:
        run = cli_pass(calls, tally, clock)
        compare_passes(first, run, pass_id, tally)
        plain.append(run.job_seconds())
        recorder.pass_id = pass_id
        with spans.traced_cli(recorder):
            run = cli_pass(calls, tally, clock, recorder)
        compare_passes(first, run, pass_id, tally)
        traced.append(run.job_seconds())
        _direct_calls(recorder, lib, genome, clock)
        tally.attempted += len(lib.sentences) + 1

    passes = _run_passes(seconds, one_pass)
    per_pass = [recorder.pass_spans(p) for p in range(1, passes + 1)]
    selfs = [spans.self_times(s) for s in per_pass]
    med = f"median of {passes} traced passes"
    metrics: dict[str, tuple[float, str, str]] = {}
    for span_name in BUSY:
        metrics[f"{span_name}.busy_s"] = (
            statistics.median(st[span_name] for st in selfs), "s", f"self time per pass, {med}"
        )
    for metric, (span_name, key, unit) in RATES.items():
        values = [spans.totals(s, span_name, key) / st[span_name] for s, st in zip(per_pass, selfs)]
        metrics[metric] = (statistics.median(values), unit, med)
    for metric, (span_name, key) in COUNTS.items():
        metrics[metric] = (statistics.median(spans.totals(s, span_name, key) for s in per_pass), "count", "per pass")
    for metric, (span_name, num, den) in RATIOS.items():
        values = [spans.totals(s, span_name, num) / spans.totals(s, span_name, den) for s in per_pass]
        metrics[metric] = (statistics.median(values), "ratio", med)
    metrics["trace.coverage"] = (
        statistics.median(spans.coverage(s, "cli.main") for s in per_pass),
        "ratio",
        f"share of cli.main time inside layer spans, {med}",
    )
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(plain),
        "ratio",
        f"traced / untraced job time, medians of {passes} passes each",
    )
    trace_file = work / "trace.jsonl"
    recorder.dump(trace_file)
    print(f"trace: {len(recorder.spans)} spans written to {trace_file}")
    print("wait time is 0 s in every layer by construction: one thread, no queues")
    print("_dp has no public entry point: its time is inside scoring.segment_best, "
          "dataset.segment_by_scores and evolve.fitness")
    print("span (text_measure, fits_span) runs inside cascade and dataset and is not traced apart")
    return _epilogue(first, tally, metrics), tally, metrics
