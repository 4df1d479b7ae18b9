"""Command-line entry points, exercised through main() with argv lists."""

import json
from dataclasses import fields

import numpy as np
import pytest

import hydent.cli
from hydent.cli import main
from hydent.data import SplitSpec, load_csv, split
from hydent.run import RunConfig, run_baseline


def synth(tmp_path, name="data.csv", n=12, cov=0.8, seed=0):
    path = tmp_path / name
    code = main(["synth", "--n-per-class", str(n), "--cov", str(cov),
                 "--seed", str(seed), "--out", str(path)])
    assert code == 0
    return path


def test_synth_writes_dataset(tmp_path, capsys):
    path = synth(tmp_path, n=100, cov=0.5, seed=7)
    out = capsys.readouterr().out
    assert "n=200" in out and "d=2" in out and "c=2" in out
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 200
    assert len(lines[0].split(",")) == 3


def test_synth_rejects_zero_covariance(tmp_path, capsys):
    code = main(["synth", "--n-per-class", "5", "--cov", "0",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_synth_requires_out_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["synth", "--n-per-class", "5", "--cov", "0.5"])


def test_run_prints_json_summary(tmp_path, capsys):
    data = synth(tmp_path)
    capsys.readouterr()
    code = main(["run", "--data", str(data), "--k", "4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "hydent.run.v2"
    assert payload["variant"] == "hydent"
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["rounds"] >= 1


def test_run_writes_trace_files(tmp_path, capsys):
    data = synth(tmp_path)
    capsys.readouterr()
    trace = tmp_path / "traces"
    code = main(["run", "--data", str(data), "--k", "4", "--trace-dir", str(trace)])
    assert code == 0
    assert (trace / "rounds.csv").exists()
    assert (trace / "bcd_trace.csv").exists()
    rounds = (trace / "rounds.csv").read_text().strip().splitlines()
    payload = json.loads(capsys.readouterr().out)
    assert len(rounds) == payload["rounds"]


def test_run_passes_every_config_flag(tmp_path, capsys, monkeypatch):
    # every RunConfig field has a flag whose value reaches the run and the
    # JSON summary, which lists the fields in declaration order
    values = dict(kernels=("flap", "gaussian"), k=3, sigma=1.5, kappa2=50.0, beta0=10.0,
                  beta1=20.0, gamma=0.7, theta=0.2, seed=3)
    names = [f.name for f in fields(RunConfig)]
    assert sorted(values) == sorted(names)
    assert all(values[name] != getattr(RunConfig(), name) for name in names)
    argv = ["run", "--data", str(synth(tmp_path))]
    for name, value in values.items():
        argv += ["--" + name.replace("_", "-"), ",".join(value) if name == "kernels" else str(value)]
    run, seen = hydent.cli.run_baseline, []

    def spy(dataset, labeled_idx, config, variant):
        seen.append(config)
        return run(dataset, labeled_idx, config, variant)

    monkeypatch.setattr(hydent.cli, "run_baseline", spy)
    capsys.readouterr()
    assert main(argv) == 0
    assert seen == [RunConfig(**values)]
    config = json.loads(capsys.readouterr().out)["config"]
    assert list(config) == names
    assert config == {**values, "kernels": list(values["kernels"])}


def test_solver_settings_are_not_flags(tmp_path, capsys):
    # the solver's numerics are its own constants, not run configuration
    data = synth(tmp_path)
    for flag in ("--iter-max", "--threshold", "--zeta", "--epsilon-bcd"):
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["run", "--data", str(data), flag, "1"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_run_rejects_non_finite_settings(tmp_path, capsys):
    # a NaN width used to run to accuracy 0.5, and a NaN beta to fail inside numpy
    data = synth(tmp_path)
    for flag, value in (("--sigma", "nan"), ("--sigma", "inf"), ("--kappa2", "nan"),
                        ("--beta0", "nan"), ("--beta1", "inf"), ("--gamma", "nan")):
        capsys.readouterr()
        assert main(["run", "--data", str(data), "--k", "4", flag, value]) == 1
        assert f"error: {flag[2:]} must be finite" in capsys.readouterr().err


def test_run_rejects_a_negative_seed_by_name(tmp_path, capsys):
    # numpy's generator once refused it with a bare "expected non-negative integer"
    data = synth(tmp_path)
    assert main(["run", "--data", str(data), "--k", "4", "--seed", "-1"]) == 1
    assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_run_unknown_variant_fails_cleanly(tmp_path, capsys):
    data = synth(tmp_path)
    code = main(["run", "--data", str(data), "--variant", "nonsense"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_missing_file_fails_cleanly(tmp_path, capsys):
    code = main(["run", "--data", str(tmp_path / "absent.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def bench(tmp_path, out="bench.csv", variants="hydent,single-learner-gaussian",
          repeats=3, sizes=("1", "2")):
    data = synth(tmp_path)
    path = tmp_path / out
    args = ["bench", "--data", str(data), "--k", "4",
            "--labeled-per-class", *sizes,
            "--repeats", str(repeats), "--variants", variants,
            "--out", str(path)]
    assert main(args) == 0
    return path


def test_bench_row_counts(tmp_path, capsys):
    path = bench(tmp_path)
    lines = path.read_text().strip().splitlines()
    # 2 variants x 2 sizes x 3 repeats plus one summary per (variant, size)
    assert len(lines) == 12 + 4
    summaries = [l for l in lines if ",summary," in l]
    assert len(summaries) == 4
    for line in lines:
        assert len(line.split(",")) == 5


def test_bench_reruns_identically(tmp_path):
    a = bench(tmp_path, out="a.csv").read_text()
    b = bench(tmp_path, out="b.csv").read_text()
    assert a == b


def test_bench_single_repeat_has_zero_std(tmp_path):
    path = bench(tmp_path, out="one.csv", repeats=1, sizes=("1",))
    summary = [l for l in path.read_text().strip().splitlines() if ",summary," in l]
    assert all(line.split(",")[4] == "0.0" for line in summary)


def test_bench_default_variants_follow_the_kernels(tmp_path, capsys):
    # with one kernel the default sweep has no variant of an unconfigured kernel
    data = synth(tmp_path)
    path = tmp_path / "one-kernel.csv"
    assert main(["bench", "--data", str(data), "--k", "4", "--repeats", "1",
                 "--kernels", "gaussian", "--out", str(path)]) == 0
    variants = [line.split(",")[0] for line in path.read_text().splitlines() if ",summary," in line]
    assert variants == ["hydent", "hybrid-no-teaching", "single-teacher-gaussian", "single-learner-gaussian"]


def test_bench_rejects_unknown_variant_before_any_run(tmp_path, capsys, monkeypatch):
    data = synth(tmp_path)
    runs = []
    monkeypatch.setattr(hydent.cli, "run_baseline", lambda *args: runs.append(args))
    for variants in ("hydent,mystery", "hydent,single-learner-1", "single-teacher-flap"):
        code = main(["bench", "--data", str(data), "--repeats", "1", "--kernels", "gaussian",
                     "--variants", variants, "--out", str(tmp_path / "x.csv")])
        assert code == 1 and "unknown variant" in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "x.csv").exists()


def test_bench_rejects_a_repeated_variant_before_any_run(tmp_path, capsys, monkeypatch):
    # a repeat would duplicate result rows and take the summary std over the copies
    data = synth(tmp_path)
    runs = []
    monkeypatch.setattr(hydent.cli, "run_baseline", lambda *args: runs.append(args))
    code = main(["bench", "--data", str(data), "--repeats", "2",
                 "--variants", "hydent,single-learner-flap,hydent", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1 and "variant 'hydent' is repeated" in err
    assert runs == [] and not (tmp_path / "x.csv").exists()


def test_bench_rejects_a_repeated_labeled_size_before_any_run(tmp_path, capsys, monkeypatch):
    data = synth(tmp_path)
    runs = []
    monkeypatch.setattr(hydent.cli, "run_baseline", lambda *args: runs.append(args))
    code = main(["bench", "--data", str(data), "--repeats", "2", "--variants", "hydent",
                 "--labeled-per-class", "1", "2", "2", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1 and "--labeled-per-class size 2 is repeated" in err
    assert runs == [] and not (tmp_path / "x.csv").exists()


def test_bench_repeats_count_up_from_the_seed(tmp_path, capsys):
    # repeat r draws its split with seed --seed + r and runs with that seed
    data = synth(tmp_path)
    path = tmp_path / "seeded.csv"
    assert main(["bench", "--data", str(data), "--k", "4", "--seed", "5", "--repeats", "2",
                 "--variants", "hydent", "--out", str(path)]) == 0
    rows = [line.split(",") for line in path.read_text().splitlines() if ",summary," not in line]
    dataset = load_csv(data)
    want = []
    for repeat, seed in enumerate((5, 6)):
        labeled_idx, _ = split(dataset, SplitSpec(1, seed=seed))
        result = run_baseline(dataset, labeled_idx, RunConfig(k=4, seed=seed), "hydent")
        want.append(["hydent", "1", str(repeat), str(seed), repr(result.accuracy)])
    assert rows == want
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert "--seeds" not in capsys.readouterr().out


def test_ttest_reports_per_size_verdicts(tmp_path, capsys):
    path = bench(tmp_path)
    capsys.readouterr()
    code = main(["ttest", "--results", str(path),
                 "--variant-a", "hydent", "--variant-b", "single-learner-gaussian"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # one verdict per labeled-per-class size
    for line in lines:
        assert line.startswith("l=") and ("✓" in line or "-" in line)


def test_ttest_identical_variants_never_significant(tmp_path, capsys):
    # hand-built table where both variants share every accuracy
    path = tmp_path / "flat.csv"
    rows = []
    for variant in ("a", "b"):
        for repeat in range(4):
            rows.append(f"{variant},1,{repeat},{repeat},0.9{repeat}")
    path.write_text("\n".join(rows) + "\n")
    code = main(["ttest", "--results", str(path), "--variant-a", "a", "--variant-b", "b"])
    assert code == 0
    out = capsys.readouterr().out
    assert "✓" not in out and "t=0.0000" in out


def test_ttest_constant_margin_is_significant(tmp_path, capsys):
    path = tmp_path / "margin.csv"
    rows = []
    for repeat in range(10):
        base = 0.80 + 0.01 * repeat
        rows.append(f"better,1,{repeat},{repeat},{base + 0.05!r}")
        rows.append(f"worse,1,{repeat},{repeat},{base!r}")
    path.write_text("\n".join(rows) + "\n")
    code = main(["ttest", "--results", str(path), "--variant-a", "better", "--variant-b", "worse"])
    assert code == 0
    assert "✓" in capsys.readouterr().out


def test_ttest_missing_variant_errors(tmp_path, capsys):
    path = bench(tmp_path)
    code = main(["ttest", "--results", str(path),
                 "--variant-a", "hydent", "--variant-b", "ghost"])
    assert code == 1
    assert "ghost" in capsys.readouterr().err


def test_ttest_unpaired_rows_error(tmp_path, capsys):
    path = tmp_path / "gap.csv"
    path.write_text("a,1,0,0,0.9\na,1,1,1,0.8\nb,1,0,0,0.7\n")
    code = main(["ttest", "--results", str(path), "--variant-a", "a", "--variant-b", "b"])
    assert code == 1
    assert "unpaired" in capsys.readouterr().err
