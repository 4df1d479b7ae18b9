"""Summarise one benchmark result file, or diff two by workload and metric.

    python3 bench/compare.py RESULTS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

A result file holds one JSON record per benchmark process, as
``bench/report.py`` writes them.  For each side the table gives the median
and quartiles over that side's records.  With two files, an end-to-end
metric is flagged ``WORSE`` when the change's median is worse than the
parent's by more than the metric's bound in BENCHMARK.json, and
``unresolved`` when either side's quartile spread, as a share of its median,
is wider than the bound (unless every run of the change beats every run of
the parent).  ``failed_ratio`` (failed / attempted runs) has bound 0.
Per-layer metrics have no bound and are listed without a verdict.  Runs
both sides made on the same input are paired, and their accuracies diffed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path=SPEC_PATH) -> dict:
    """Metric name -> (better, bound); bound is None for per-layer metrics."""
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    metrics["failed_ratio"] = ("lower", 0.0)
    return metrics


def load(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def collect(records: list) -> dict:
    """(workload, trace, metric) -> (unit, values over records)."""
    table = {}
    for record in records:
        result = record["result"]
        rows = dict(result["metrics"])
        rows["failed_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "fraction"}
        for name, metric in rows.items():
            key = (record["workload"], record["trace"], name)
            table.setdefault(key, (metric["unit"], []))[1].append(metric["value"])
    return table


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative(delta: float, base: float) -> float:
    return delta / abs(base) if base else delta


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return relative(q3 - q1, median)


def verdict(parent: list, change: list, better: str, bound) -> str:
    if bound is None:
        return ""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * relative(statistics.median(change) - statistics.median(parent), statistics.median(parent))
    if worse_by > bound:
        return "WORSE"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "ok"


def _fmt(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def summarize(records: list, spec: dict, out=sys.stdout) -> None:
    """Median [q1, q3], spread and bound of every metric, per workload."""
    for (workload, trace, name), (unit, values) in sorted(collect(records).items()):
        bound = spec.get(name, (None, None))[1]
        flag = "" if bound is None else f"spread {spread(values):.3f} bound {bound}"
        if bound is not None and spread(values) > bound:
            flag += " unresolved"
        print(f"{workload:18} {name:28} {unit:9} {_fmt(values):44} {flag}", file=out)
    by_workload = {}
    for record in records:
        for case, value in record["detail"]["accuracy_by_run"].items():
            config = case.rsplit("@", 1)[0]
            by_workload.setdefault(record["workload"], {}).setdefault(config, []).append(value)
    for workload, configs in sorted(by_workload.items()):
        means = ", ".join(f"{key} {statistics.fmean(v):.4f}" for key, v in configs.items())
        print(f"{workload:18} accuracy by variant@covariance: {means}", file=out)
    for workload in sorted({r["workload"] for r in records if r["trace"]}):
        table = collect([r for r in records if r["workload"] == workload and r["trace"]])
        selfs = {name: statistics.median(values) for (_, _, name), (unit, values) in table.items()
                 if unit == "s" and name != "run.trace_overhead_s"}
        top = max(selfs, key=selfs.get)
        print(f"{workload:18} largest self time: {top} {selfs[top]:.4g} s", file=out)


def paired_accuracy(parent: list, change: list, out=sys.stdout) -> None:
    """Accuracy of the runs both sides made on the same input.

    Inputs follow from the seed and the program is deterministic, so any
    difference here is a change in results, however small.
    """
    def runs(records):
        return {(r["workload"], case): acc for r in records
                for case, acc in r["detail"]["accuracy_by_run"].items()}
    before, after = runs(parent), runs(change)
    for workload in sorted({w for w, _ in before.keys() & after.keys()}):
        shared = [key for key in before.keys() & after.keys() if key[0] == workload]
        deltas = [after[key] - before[key] for key in shared]
        changed = sum(delta != 0.0 for delta in deltas)
        print(f"{workload:18} paired runs {len(shared)}, accuracy changed on {changed}, "
              f"mean change {statistics.fmean(deltas):+.5f}", file=out)


def diff(parent: list, change: list, spec: dict, out=sys.stdout) -> int:
    """Print the side-by-side table; return the number of WORSE metrics."""
    before, after = collect(parent), collect(change)
    worse = 0
    for key in sorted(before.keys() | after.keys()):
        workload, _, name = key
        if key not in before or key not in after:
            print(f"{workload:18} {name:28} only in {'change' if key in after else 'parent'}", file=out)
            continue
        unit, old = before[key]
        new = after[key][1]
        better, bound = spec.get(name, ("lower", None))
        mark = verdict(old, new, better, bound)
        worse += mark == "WORSE"
        change_pct = 100.0 * relative(statistics.median(new) - statistics.median(old), statistics.median(old))
        print(f"{workload:18} {name:28} {unit:9} {_fmt(old):40} -> {_fmt(new):40} "
              f"{change_pct:+7.2f}% {mark}", file=out)
    return worse


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    if len(args) == 1:
        summarize(load(args[0]), spec)
        return 0
    parent, change = load(args[0]), load(args[1])
    worse = diff(parent, change, spec)
    paired_accuracy(parent, change)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
