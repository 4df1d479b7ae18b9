"""Run the benchmark on every workload and print all its metrics.

    python3 bench/report.py                                  # seed 0, trace 0
    python3 bench/report.py --seeds 1 2 3 --out parent.jsonl
    python3 bench/report.py --trace 1                        # per-layer metrics
    python3 bench/report.py --workloads protocol-n200 --units 10

Each (seed, workload) runs in its own ``bench/run.py`` process, so peak
memory belongs to that workload alone.  The records go to ``--out`` (one
JSON line per process, the format ``bench/compare.py`` reads) and the table
printed at the end is ``compare.py``'s summary of them, including
``failed_ratio`` and the mean accuracy per variant and covariance.  With
``--units 10`` and seed 0 the protocol workload runs the acceptance
protocol's ten paired seeds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int, units: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if units:
        command += ["--units", str(units)]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return {"workload": workload, "seed": seed, "trace": trace, "detail": detail,
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = json.loads(compare.SPEC_PATH.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=0)
    parser.add_argument("--out", default=str(HERE / "out" / "results.jsonl"))
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    with open(out, "w", encoding="utf-8") as handle:
        for seed in args.seeds:
            for workload in args.workloads:
                record = run_one(workload, seed, args.seconds, args.trace, args.units)
                handle.write(json.dumps(record) + "\n")
                handle.flush()
                records.append(record)
                print(f"done {workload} seed {seed}", file=sys.stderr)
    print(f"environment: {json.dumps(records[0]['detail']['env'])}")
    compare.summarize(records, compare.load_spec())
    print(f"records written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
