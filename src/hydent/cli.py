"""Command-line front end.

Four subcommands: ``synth`` writes a two-blob benchmark dataset, ``run``
executes one variant on a dataset and prints a JSON summary, ``bench``
sweeps variants over labeled-set sizes and repeats into a results table,
and ``ttest`` compares two variants from such a table.  All numeric output
files are plain headerless CSV.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
from dataclasses import fields, replace

from .data import SplitSpec, load_csv, save_csv, split, synth_noisy_gaussian
from .run import (
    RunConfig,
    _parse_variant,
    paired_t_test,
    result_to_json,
    run_baseline,
    write_bcd_trace_csv,
    write_rounds_csv,
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    base = RunConfig()
    parser.add_argument("--kernels", default=",".join(base.kernels),
                        help="comma-separated learner kernels (gaussian, flap)")
    parser.add_argument("--k", type=int, default=base.k, help="neighbors per node")
    parser.add_argument("--sigma", type=float, default=base.sigma, help="kernel width")
    parser.add_argument("--kappa2", type=float, default=base.kappa2, help="prior variance")
    parser.add_argument("--beta0", type=float, default=base.beta0, help="row-sparsity weight")
    parser.add_argument("--beta1", type=float, default=base.beta1, help="binary/orthogonality weight")
    parser.add_argument("--gamma", type=float, default=base.gamma, help="feedback sharpness")
    parser.add_argument("--theta", type=float, default=base.theta, help="diffusion damping")
    parser.add_argument("--seed", type=int, default=base.seed,
                        help="split seed; bench's repeat r uses seed + r")


def _config_from(args) -> RunConfig:
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    values["kernels"] = tuple(k.strip() for k in args.kernels.split(",") if k.strip())
    return RunConfig(**values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hydent",
                                     description="curriculum-guided hybrid label propagation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a two-cluster benchmark dataset")
    p_synth.add_argument("--n-per-class", type=int, default=100)
    p_synth.add_argument("--cov", type=float, required=True, help="isotropic covariance scale")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="CSV path to write")
    p_synth.add_argument("--header", action="store_true", help="write a header line")

    p_run = sub.add_parser("run", help="run one variant on a dataset")
    p_run.add_argument("--data", required=True, help="dataset CSV (fully labeled)")
    p_run.add_argument("--labeled-per-class", type=int, default=1)
    p_run.add_argument("--variant", default="hydent")
    p_run.add_argument("--trace-dir", help="directory for rounds.csv and bcd_trace.csv")
    p_run.add_argument("--header", action="store_true", help="dataset CSV has a header line")
    _add_config_flags(p_run)

    p_bench = sub.add_parser("bench", help="sweep variants, labeled sizes and repeats")
    p_bench.add_argument("--data", required=True)
    p_bench.add_argument("--labeled-per-class", type=int, nargs="+", default=[1])
    p_bench.add_argument("--repeats", type=int, default=10)
    p_bench.add_argument("--variants",
                         help="comma-separated variant names (default: hydent, hybrid-no-teaching, "
                              "then single-teacher-<k> and single-learner-<k> for each kernel k)")
    p_bench.add_argument("--out", required=True, help="results CSV path")
    p_bench.add_argument("--header", action="store_true", help="dataset CSV has a header line")
    _add_config_flags(p_bench)

    p_ttest = sub.add_parser("ttest", help="paired one-sided test between two variants")
    p_ttest.add_argument("--results", required=True, help="CSV written by bench")
    p_ttest.add_argument("--variant-a", required=True)
    p_ttest.add_argument("--variant-b", required=True)
    return parser


def cmd_synth(args) -> int:
    dataset = synth_noisy_gaussian(args.n_per_class, args.cov, args.seed)
    save_csv(dataset, args.out, header=args.header)
    print(f"wrote {args.out}: n={dataset.n} d={dataset.dim} c={dataset.class_count}")
    return 0


def cmd_run(args) -> int:
    dataset = load_csv(args.data, header=args.header)
    config = _config_from(args)
    labeled_idx, _ = split(dataset, SplitSpec(args.labeled_per_class, seed=config.seed))
    result = run_baseline(dataset, labeled_idx, config, args.variant)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        write_rounds_csv(result, os.path.join(args.trace_dir, "rounds.csv"))
        write_bcd_trace_csv(result, os.path.join(args.trace_dir, "bcd_trace.csv"))
    print(result_to_json(result))
    return 0


def cmd_bench(args) -> int:
    dataset = load_csv(args.data, header=args.header)
    config = _config_from(args)
    if args.variants is None:
        variants = ["hydent", "hybrid-no-teaching"]
        variants += [f"single-{role}-{kernel}"
                     for role in ("teacher", "learner") for kernel in config.kernels]
    else:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError("no variants given")
    for variant in variants:
        _parse_variant(variant, config)  # an unknown name fails before any run
    for role, values in (("variant", variants), ("--labeled-per-class size", args.labeled_per_class)):
        for at, value in enumerate(values):
            if value in values[:at]:
                raise ValueError(f"{role} {value!r} is repeated; give each once")
    if args.repeats < 1:
        raise ValueError("repeats must be positive")
    seeds = range(config.seed, config.seed + args.repeats)

    rows = []
    cells = {}
    for variant in variants:
        for l in args.labeled_per_class:
            for repeat, seed in enumerate(seeds):
                labeled_idx, _ = split(dataset, SplitSpec(l, seed=seed))
                result = run_baseline(dataset, labeled_idx, replace(config, seed=seed), variant)
                rows.append((variant, l, repeat, seed, result.accuracy))
                cells.setdefault((variant, l), []).append(result.accuracy)

    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for variant, l, repeat, seed, accuracy in rows:
            writer.writerow([variant, l, repeat, seed, repr(accuracy)])
        # One summary row per (variant, l): mean in the seed column, std in
        # the accuracy column, "summary" marking the repeat column.
        for (variant, l), accs in cells.items():
            mean = statistics.fmean(accs)
            std = statistics.stdev(accs) if len(accs) > 1 else 0.0
            writer.writerow([variant, l, "summary", repr(mean), repr(std)])
    print(f"wrote {args.out}: {len(rows)} result rows, {len(cells)} summary rows")
    return 0


def _read_bench(path):
    table = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if len(row) != 5:
                raise ValueError(f"{path}: expected 5 columns, got {len(row)}")
            variant, l, repeat = row[0], row[1], row[2]
            if repeat == "summary":
                continue
            table[(variant, int(l), int(repeat))] = float(row[4])
    return table


def cmd_ttest(args) -> int:
    table = _read_bench(args.results)
    for name in (args.variant_a, args.variant_b):
        if not any(key[0] == name for key in table):
            raise ValueError(f"variant {name!r} not present in {args.results}")
    sizes = sorted({l for variant, l, _ in table if variant == args.variant_a})
    for l in sizes:
        repeats = sorted(r for variant, size, r in table if variant == args.variant_a and size == l)
        try:
            a = [table[(args.variant_a, l, r)] for r in repeats]
            b = [table[(args.variant_b, l, r)] for r in repeats]
        except KeyError as missing:
            raise ValueError(f"unpaired rows: no accuracy for {missing.args[0]}") from None
        t, significant = paired_t_test(a, b)
        mark = "✓" if significant else "-"
        print(f"l={l}: t={t:.4f} {mark}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"synth": cmd_synth, "run": cmd_run, "bench": cmd_bench, "ttest": cmd_ttest}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
