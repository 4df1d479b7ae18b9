"""hydent benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload protocol-n200 --seed 0 --seconds 35 --trace 0

Runs ``run_baseline`` on ``synth_noisy_gaussian`` + ``split`` inputs, one
labeled example per class and the default ``RunConfig``, in a closed loop
with one client: the next run starts when the previous one returns.  Work
comes in units; unit ``u`` uses the paired data/split/solver seed
``seed * 1000 + u`` and holds one run per (covariance, variant) pair of the
workload.  A unit starts while, at the mean unit length so far, it would
end within half a unit of ``--seconds`` (``--units N`` runs exactly N units
instead).  Every run's output is
checked; a run that raises or fails a check counts as failed and the
benchmark carries on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
input twice, untraced and then traced (see ``tracing.py``), prints the
per-layer metrics, and writes the spans to ``bench/out/``.  The last line
of standard output is the JSON result; the line before it records the
environment and the accuracy of every run.
"""

from __future__ import annotations

import os

# Results depend on the BLAS thread count (it changes the floating-point
# reduction order, hence curricula and accuracies), so it is pinned before
# numpy loads.  One thread also keeps the process single-threaded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "hydent" / "__init__.py").is_file():
    sys.exit(f"{ROOT / 'src' / 'hydent'} is missing: run from a full checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import hydent.run
from hydent import RunConfig, SplitSpec, evaluate, split, synth_noisy_gaussian
from tracing import COUNTED, RUN_METRIC, TIMED, Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    n_per_class: int
    runs: tuple  # (covariance scale, variant) for each run of one unit


# Why these three: see BENCHMARK.json.  Each stresses different layers, and
# each optimisation planned in ROADMAP.md has one that bypasses it.
WORKLOADS = {
    "protocol-n200": Workload(100, (
        (0.5, "hydent"),
        (1.0, "hydent"),
        (1.5, "hydent"),
        (1.5, "single-teacher-gaussian"),
        (1.5, "single-teacher-flap"),
    )),
    "scale-n1000": Workload(500, ((1.0, "hydent"),)),
    "no-teaching-n2000": Workload(1000, ((1.0, "hybrid-no-teaching"),)),
}

WARNINGS = {
    "teaching.threshold_fallbacks": "every selection entry fell below the threshold",
    "teaching.drift_warnings": "selection entries drifted outside",
}

# Per-layer metrics that are per-run means of a tracer count.
COUNT_METRICS = (
    "graph.edges", "graph.dense_bytes",
    "teacher.score_calls", "teacher.pool_sum", "teacher.anchor_cube_gflop",
    "teaching.solve_calls", "teaching.sweeps", *COUNTED.values(),
    "propagate.rows", "feedback.calls",
)

# Bytes and flops are computed from array shapes, not measured.
UNITS = {"graph.dense_bytes": "bytes-computed", "teacher.anchor_cube_gflop": "gflop-computed"}


@dataclass(frozen=True)
class Case:
    covariance: float
    variant: str
    seed: int
    dataset: object
    labeled: np.ndarray
    unlabeled: np.ndarray

    @property
    def name(self) -> str:
        return f"{self.variant}@{self.covariance}@{self.seed}"


def unit_cases(workload: Workload, seed: int, unit: int):
    data_seed = seed * 1000 + unit
    for covariance, variant in workload.runs:
        dataset = synth_noisy_gaussian(workload.n_per_class, covariance, seed=data_seed)
        labeled, unlabeled = split(dataset, SplitSpec(1, seed=data_seed))
        yield Case(covariance, variant, data_seed, dataset, labeled, unlabeled)


def check(case: Case, result) -> list:
    """Every way the run's output breaks the method's contract."""
    n, c = case.dataset.n, case.dataset.class_count
    problems = []
    predictions = np.asarray(result.predictions)
    if predictions.shape != (n,) or predictions.min() < 0 or predictions.max() >= c:
        problems.append("predictions must be n classes in [0, c)")
    elif np.any(predictions[case.labeled] != case.dataset.labels[case.labeled]):
        problems.append("given labels are not pinned")
    elif evaluate(predictions, case.dataset.labels, case.unlabeled) != result.accuracy:
        problems.append("evaluate() disagrees with the reported accuracy")
    scores = np.asarray(result.scores)
    if scores.shape != (n, c) or not np.all(np.isfinite(scores)):
        problems.append("scores must be a finite n x c matrix")
    elif scores.min() < 0.0 or np.max(np.abs(scores.sum(axis=1) - 1.0)) > 1e-9:
        problems.append("scores are not row-stochastic")
    taught = np.concatenate([r.curriculum for r in result.rounds]) if result.rounds else np.empty(0, int)
    if sum(r.size for r in result.rounds) != case.unlabeled.size:
        problems.append("round sizes do not sum to the unlabeled count")
    if taught.size != np.unique(taught).size or not np.array_equal(np.sort(taught), case.unlabeled):
        problems.append("the rounds do not teach every unlabeled node exactly once")
    for r in result.rounds:
        if np.any(np.diff(r.objective) > 0.0):
            problems.append(f"objective rose during the solve of round {r.index}")
    return problems


def run_once(case: Case, tracer: Tracer | None = None, run_id: str | None = None) -> dict:
    """One checked ``run_baseline`` call; never raises."""
    config = RunConfig(seed=case.seed)
    first_round = []

    def hook(record):
        if not first_round:
            first_round.append(time.perf_counter() - record.seconds)

    args = (case.dataset, case.labeled, config, case.variant)
    row = {"case": case.name, "unlabeled": int(case.unlabeled.size), "failed": True}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if tracer is None:
                result = hydent.run.run_baseline(*args, round_hook=hook)
            else:
                result = tracer.call(run_id, "run", "run_baseline", hydent.run.run_baseline,
                                     *args, round_hook=hook)
        except Exception:
            print(f"run {case.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return row
        row["seconds"] = time.perf_counter() - start
    problems = check(case, result)
    for problem in problems:
        print(f"run {case.name}: {problem}", file=sys.stderr)
    row.update(
        failed=bool(problems),
        setup_s=first_round[0] - start if first_round else row["seconds"],
        accuracy=result.accuracy,
        rounds=len(result.rounds),
        taught=sum(r.size for r in result.rounds),
        offered=sum(r.pool_size for r in result.rounds),
    )
    for metric, text in WARNINGS.items():
        row[metric] = sum(text in str(w.message) for w in caught)
    return row


def warm_up():
    """One small untimed run, so lazy imports and BLAS start-up are not timed."""
    dataset = synth_noisy_gaussian(10, 1.0, seed=0)
    labeled, _ = split(dataset, SplitSpec(1, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hydent.run.run_baseline(dataset, labeled, RunConfig(seed=0), "hydent")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((ROOT / "src").rglob("*.py")))
    return {
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "src_lines": src_lines,
    }


def end_to_end(rows: list) -> dict:
    seconds = [row["seconds"] for row in rows]
    return {
        "run_s_p50": (statistics.median(seconds), "s"),
        "nodes_per_s": (sum(row["unlabeled"] for row in rows) / sum(seconds), "nodes/s"),
        "setup_s": (statistics.median(row["setup_s"] for row in rows), "s"),
        "accuracy_mean": (statistics.fmean(row["accuracy"] for row in rows), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(pairs: list, tracer: Tracer) -> dict:
    """Per-run means over the traced runs; ``pairs`` holds (untraced, traced) rows."""
    traced = [row for _, row in pairs]
    runs = len(traced)
    counts = tracer.counts
    self_s = tracer.self_seconds()
    metrics = {name: (self_s[name] / runs, "s") for name in (*dict.fromkeys(TIMED.values()), RUN_METRIC)}
    metrics.update({name: (counts[name] / runs, UNITS.get(name, "count")) for name in COUNT_METRICS})
    for name in WARNINGS:
        metrics[name] = (sum(row[name] for row in traced) / runs, "count")
    # A workload without solves reports 0 for the solver's ratios.
    metrics["teaching.converged_ratio"] = (
        counts["teaching.converged"] / max(counts["teaching.solve_calls"], 1), "ratio")
    metrics["teaching.selected_ratio"] = (
        counts["teaching.selected"] / max(counts["teaching.requested"], 1), "ratio")
    metrics["run.rounds"] = (sum(row["rounds"] for row in traced) / runs, "count")
    metrics["run.taught_ratio"] = (
        sum(row["taught"] for row in traced) / sum(row["offered"] for row in traced), "ratio")
    # Each input ran untraced and then traced back to back, so the median
    # paired difference cancels most of the machine's drift.
    metrics["run.trace_overhead_s"] = (
        statistics.median(t["seconds"] - u["seconds"] for u, t in pairs), "s")
    return metrics


def unaccounted_runs(tracer: Tracer) -> list:
    """Traced runs whose spans' self times do not add up to the run's span."""
    totals, roots = Counter(), {}
    for span in tracer.spans:
        totals[span["run_id"]] += span["self"]
        if span["parent"] is None:
            roots[span["run_id"]] = span["end"] - span["start"]
    return [run_id for run_id, root in roots.items() if abs(totals[run_id] - root) > 1e-6]


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--units", type=int, default=0,
                        help="run exactly this many units instead of timing by --seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.units < 0:
        parser.error("--seed must be >= 0, --seconds > 0 and --units >= 0")
    return args


def another_unit(args, unit: int, elapsed: float) -> bool:
    if args.units:
        return unit < args.units
    # Start a unit only if, at the mean unit length so far, it would end
    # within half a unit of --seconds.
    return unit == 0 or elapsed * (1 + 0.5 / unit) < args.seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer(args.workload) if args.trace else None
    warm_up()

    rows, pairs = [], []
    begin = time.perf_counter()
    unit = 0
    while another_unit(args, unit, time.perf_counter() - begin):
        for case in unit_cases(workload, args.seed, unit):
            rows.append(run_once(case))
            if tracer is not None:
                with tracer.installed():
                    pairs.append((rows[-1], run_once(case, tracer, f"{case.name}/traced")))
        unit += 1

    attempted = len(rows) + len(pairs)
    failed = sum(row["failed"] for row in rows) + sum(row["failed"] for _, row in pairs)
    rows = [row for row in rows if "seconds" in row]
    pairs = [(u, t) for u, t in pairs if "seconds" in u and "seconds" in t]
    if not rows or (tracer is not None and not pairs):
        print("no run returned; nothing to measure", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "units": unit,
        "runs": len(rows),
        "env": environment(),
        "accuracy_by_run": {row["case"]: row["accuracy"] for row in rows},
    }
    if tracer is None:
        metrics = end_to_end(rows)
        correct = failed == 0
    else:
        metrics = per_layer(pairs, tracer)
        unaccounted = unaccounted_runs(tracer)
        if unaccounted:
            print(f"self times do not add up for traced runs {unaccounted}", file=sys.stderr)
        correct = failed == 0 and not unaccounted
        detail["spans"] = str(write_spans(tracer, args.workload, args.seed).relative_to(ROOT))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_name} for name, (value, unit_name) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
