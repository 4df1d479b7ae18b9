"""End-to-end driver behavior on small problems, plus the t-test.

Runs here use 15 to 25 points per class so each case finishes in well
under a second; statistical quality is exercised by the acceptance
suite, not these tests.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dense_oracle as oracle
import hydent.graph
import hydent.run
import hydent.teacher
import hydent.teaching
from hydent.data import UNLABELED, Dataset, SplitSpec, split, synth_noisy_gaussian
from hydent.teacher import gap_matrix
from hydent.run import (
    RunConfig,
    evaluate,
    paired_t_test,
    result_to_json,
    run_baseline,
    run_hydent,
    write_bcd_trace_csv,
    write_rounds_csv,
)


def small_problem(seed=0, n=20, cov=0.8):
    dataset = synth_noisy_gaussian(n, cov, seed=seed)
    config = RunConfig(k=4, seed=seed)
    labeled_idx, unlabeled_idx = split(dataset, SplitSpec(1, seed=seed))
    return dataset, labeled_idx, unlabeled_idx, config


def test_evaluate_counts_matches():
    pred = np.array([0, 1, 1, 0, 1])
    truth = np.array([0, 1, 0, 0, 0])
    assert evaluate(pred, truth, [1, 2, 3, 4]) == pytest.approx(0.5)
    assert evaluate(pred, truth, [0]) == 1.0
    assert evaluate(pred, truth, []) == 1.0


def test_accuracy_skips_rows_whose_class_is_unknown():
    # the run ignores truth, so the predictions match the fully labeled run's;
    # the 50 unknown rows once all counted as errors, for an accuracy of 0.7020
    dataset = synth_noisy_gaussian(100, 1.0, seed=3)
    labeled_idx, unlabeled_idx = split(dataset, SplitSpec(1, seed=3))
    labels = dataset.labels.copy()
    labels[unlabeled_idx[:50]] = UNLABELED
    partial = Dataset(dataset.features, labels, dataset.class_count)
    full = run_baseline(dataset, labeled_idx, RunConfig(seed=3), "hydent")
    result = run_baseline(partial, labeled_idx, RunConfig(seed=3), "hydent")
    np.testing.assert_array_equal(result.predictions, full.predictions)
    known = unlabeled_idx[50:]
    assert result.accuracy == np.mean(full.predictions[known] == dataset.labels[known])
    assert round(result.accuracy, 4) == 0.9392
    # an index set with no known truth is vacuously perfect
    assert evaluate(result.predictions, labels, unlabeled_idx[:50]) == 1.0


def test_run_hydent_labels_everyone():
    dataset, labeled_idx, unlabeled_idx, config = small_problem()
    result = run_hydent(dataset, labeled_idx, config)
    assert result.predictions.shape == (dataset.n,)
    assert set(np.unique(result.predictions)) <= {0, 1}
    assert 0.0 <= result.accuracy <= 1.0
    # given labels survive untouched
    np.testing.assert_array_equal(result.predictions[labeled_idx], dataset.labels[labeled_idx])


def test_run_round_sizes_partition_the_unlabeled_set():
    dataset, labeled_idx, unlabeled_idx, config = small_problem(seed=3)
    result = run_hydent(dataset, labeled_idx, config)
    assert len(result.rounds) >= 1
    assert sum(r.size for r in result.rounds) == unlabeled_idx.size
    for r in result.rounds:
        assert 0.0 < r.feedback <= 1.0
        assert r.size <= r.pool_size


def test_run_with_nothing_unlabeled_is_a_no_op():
    dataset = synth_noisy_gaussian(8, 0.5, seed=1)
    config = RunConfig(k=3)
    result = run_hydent(dataset, np.arange(dataset.n), config)
    assert len(result.rounds) == 0
    np.testing.assert_array_equal(result.predictions, dataset.labels)
    assert result.accuracy == 1.0


def test_run_on_rescaled_features_names_sigma():
    # features x100 put every kNN edge of some node beyond exp underflow at sigma=1
    dataset = synth_noisy_gaussian(100, 1.0, seed=0)
    scaled = dataclasses.replace(dataset, features=dataset.features * 100.0)
    labeled_idx, _ = split(scaled, SplitSpec(1, seed=0))
    with pytest.raises(ValueError, match=r"sigma=1\.0 .* node 6 .*squared distance .*--sigma"):
        run_hydent(scaled, labeled_idx, RunConfig())


def test_non_finite_features_fail_naming_the_row():
    # a NaN or inf feature would otherwise reach gaussian_weights, whose message
    # blames sigma; the dataset rejects it and names the first bad row
    dataset, labeled_idx, _, config = small_problem()
    for value in (np.nan, np.inf, -np.inf):
        features = dataset.features.copy()
        features[[7, 12], 1] = value
        for variant in ("hydent", "hybrid-no-teaching"):
            with pytest.raises(ValueError, match=f"^row 7: non-finite feature value {value}$"):
                run_baseline(Dataset(features, dataset.labels, dataset.class_count), labeled_idx, config, variant)


def test_curriculum_is_the_easiest_candidates(monkeypatch):
    # the teachers' scores, not the solver's start, must pick each round's
    # curriculum: with both learners' scores alike, that is the cheapest rows
    solve = hydent.run.bcd_solve
    rounds = []

    def spy(r_list, beta0, beta1, size, *args, **kwargs):
        solution = solve(r_list, beta0, beta1, size, *args, **kwargs)
        cost = sum(np.diag(r) for r in r_list)
        cheapest = np.argsort(cost, kind="stable")[: solution.curriculum.size]
        rounds.append(set(cheapest.tolist()) == set(solution.curriculum.tolist()))
        return solution

    monkeypatch.setattr(hydent.run, "bcd_solve", spy)
    for seed in (1, 2, 3):
        dataset, labeled_idx, _, config = small_problem(seed=seed)
        run_hydent(dataset, labeled_idx, config)
    assert len(rounds) >= 10
    assert np.mean(rounds) >= 0.9


def test_no_run_calls_eigh(monkeypatch):
    # teachers read two Cholesky-based inverses, not the Laplacian's spectrum:
    # no variant decomposes anything, and the graph caches no dense Laplacian
    graphs, decompositions = [], []
    assemble, eigh = hydent.run.assemble, np.linalg.eigh

    def keep(adjacency):
        graphs.append(assemble(adjacency))
        return graphs[-1]

    def count(matrix, *args, **kwargs):
        decompositions.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(hydent.run, "assemble", keep)
    monkeypatch.setattr(np.linalg, "eigh", count)
    dataset, labeled_idx, _, config = small_problem(seed=4)
    for variant in ("hydent", "hybrid-no-teaching", "single-teacher-gaussian", "single-teacher-flap"):
        graphs.clear()
        result = run_baseline(dataset, labeled_idx, config, variant)
        assert len(graphs) == 1 and decompositions == [], variant
        assert not {"laplacian", "_spectrum"} & set(vars(graphs[0])), variant
    # the last run was taught
    assert sum(r.converged is not None for r in result.rounds) > 1


def test_scoring_downdates_instead_of_solving(monkeypatch):
    # every score matrix is the dense Schur complement plus the gap, yet after a
    # teacher's first call no solve or inverse is larger than the number of
    # nodes anchored since its previous call; the two learners share one
    # teacher, scored once a round, so only its first call builds
    score, solve, inv = hydent.run.teaching_matrix, np.linalg.solve, np.linalg.inv
    sizes, calls = [], []

    def spy_solve(a, b):
        sizes.append(np.shape(a)[0])
        return solve(a, b)

    def spy_inv(a):
        sizes.append(np.shape(a)[0])
        return inv(a)

    def spy(teacher, candidates, by_class):
        anchors = np.concatenate([np.asarray(v, dtype=int) for v in by_class.values()])
        seen = None if teacher.free is None else teacher.graph.n - teacher.free.size
        sizes.clear()
        result = score(teacher, candidates, by_class)
        largest = max(sizes, default=0)
        rel = oracle.schur_oracle(teacher.graph.laplacian, teacher.kappa2, candidates, anchors)
        expected = rel + gap_matrix(teacher, candidates, by_class)
        np.testing.assert_allclose(result, expected, rtol=1e-10, atol=1e-10 * np.abs(rel).max())
        rest = teacher.graph.n - anchors.size
        calls.append((seen, anchors.size, largest, rest))
        return result

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(np.linalg, "inv", spy_inv)
    monkeypatch.setattr(hydent.run, "teaching_matrix", spy)
    dataset, labeled_idx, _, config = small_problem(seed=13, n=30)
    run_hydent(dataset, labeled_idx, config)
    later = [(anchored - seen, largest, rest) for seen, anchored, largest, rest in calls if seen is not None]
    assert len(calls) - len(later) == 1 and len(later) >= 6
    assert all(largest <= new for new, largest, _ in later)
    assert all(largest < rest for _, largest, rest in later)


def test_teacher_reads_its_graph_and_builds_no_commute_table(monkeypatch):
    # a teacher holds its learner's graph and no n x n array but its running
    # covariance and L+; class-mean commute times are read off that one L+,
    # computed once per run, the package has no all-pairs commute table, and
    # the graph keeps no dense Laplacian or spectrum
    make, build, pseudo = hydent.run.make_teacher, hydent.run._build_graphs, hydent.teacher.pseudoinverse
    graphs, teachers, inverses = [], [], []

    def spy_build(*args):
        graph, stays = build(*args)
        graphs.append(graph)
        return graph, stays

    def spy_make(graph, kappa2):
        teachers.append(make(graph, kappa2))
        return teachers[-1]

    def spy_pseudo(graph):
        inverses.append(pseudo(graph))
        return inverses[-1]

    monkeypatch.setattr(hydent.run, "_build_graphs", spy_build)
    monkeypatch.setattr(hydent.run, "make_teacher", spy_make)
    monkeypatch.setattr(hydent.teacher, "pseudoinverse", spy_pseudo)
    dataset, labeled_idx, _, config = small_problem(seed=13, n=30)
    result = run_hydent(dataset, labeled_idx, config)
    assert len(result.rounds) > 1 and len(teachers) == 1 and len(inverses) == 1
    assert not any(hasattr(module, "commute_table") for module in (hydent, hydent.graph, hydent.teacher))
    teacher = teachers[0]
    assert teacher.graph is graphs[0] and teacher.pinv is inverses[0]
    square = [f.name for f in dataclasses.fields(teacher)
              if np.shape(getattr(teacher, f.name)) == (dataset.n, dataset.n)]
    # sigma, the prior and the anchors' factor in one buffer, stays n x n all run
    assert "pinv" in square and set(square) <= {"sigma", "pinv"}
    assert not {"laplacian", "_spectrum"} & set(vars(graphs[0]))


def test_learners_with_one_laplacian_share_one_teacher(monkeypatch):
    # a run keeps one teacher and one frontier graph for all its learners,
    # while the solve still gets one score matrix per learner
    make, solve, frontier = hydent.run.make_teacher, hydent.run.bcd_solve, hydent.run.candidate_set
    built, matrices, gathered = [], [], []

    def spy_frontier(graph, *args):
        gathered.append(graph)
        return frontier(graph, *args)

    def spy_make(graph, kappa2):
        built.append(graph)
        return make(graph, kappa2)

    def spy_solve(r_list, *args, **kwargs):
        matrices.append(len(r_list))
        return solve(r_list, *args, **kwargs)

    monkeypatch.setattr(hydent.run, "make_teacher", spy_make)
    monkeypatch.setattr(hydent.run, "bcd_solve", spy_solve)
    monkeypatch.setattr(hydent.run, "candidate_set", spy_frontier)
    dataset, labeled_idx, _, config = small_problem(seed=6)
    for variant, learners in (("hydent", 2), ("single-teacher-flap", 1)):
        built.clear()
        matrices.clear()
        gathered.clear()
        run_baseline(dataset, labeled_idx, config, variant)
        assert len(built) == 1
        assert matrices and set(matrices) == {learners}
        assert gathered and all(graph is built[0] for graph in gathered)


def test_every_variant_assembles_one_graph(monkeypatch):
    # flap's self-loops are a stay vector over the Gaussian graph, not a
    # second adjacency: each run assembles exactly one graph
    assemble, calls = hydent.run.assemble, []

    def spy(adjacency):
        calls.append(assemble(adjacency).n)
        return assemble(adjacency)

    monkeypatch.setattr(hydent.run, "assemble", spy)
    dataset, labeled_idx, _, config = small_problem(seed=8)
    for variant in ("hydent", "hybrid-no-teaching", "single-teacher-gaussian", "single-teacher-flap",
                    "single-learner-gaussian", "single-learner-flap"):
        calls.clear()
        run_baseline(dataset, labeled_idx, config, variant)
        assert calls == [dataset.n], variant


def test_no_teaching_run_allocates_no_dense_square():
    # at n = 2000 one n x n float64 array is 32 MB; the sparse graph core,
    # propagation and closure together must peak below it
    dataset = synth_noisy_gaussian(1000, 1.0, seed=1000)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=1000))
    tracemalloc.start()
    try:
        run_baseline(dataset, labeled_idx, RunConfig(seed=1000), "hybrid-no-teaching")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dataset.n * dataset.n * 8, f"peak {peak / 2**20:.1f} MB"


def test_round_records_hold_no_per_round_state():
    # a record holds the round's decisions and timings; a copy of the n x c
    # scores on each of the ~27 records would grow with rounds x n
    dataset = synth_noisy_gaussian(1000, 1.0, seed=1000)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=1000))
    result = run_baseline(dataset, labeled_idx, RunConfig(seed=1000), "hybrid-no-teaching")
    held = sum(value.nbytes for record in result.rounds for value in vars(record).values()
               if isinstance(value, np.ndarray))
    assert len(result.rounds) > 4
    assert held < 4 * 8 * dataset.n, f"{held} bytes over {len(result.rounds)} rounds"


def test_labeled_indices_outside_the_dataset_are_rejected():
    # -1 must not wrap round to the last node, and n must not raise a bare IndexError
    dataset, labeled_idx, _, config = small_problem(seed=0, n=20)
    for variant in ("hydent", "hybrid-no-teaching"):
        for bad in (-1, dataset.n):
            with pytest.raises(ValueError, match=f"labeled index {bad} "):
                run_baseline(dataset, [17, bad], config, variant)


def test_a_boolean_labeled_mask_is_rejected():
    # read as integers, the mask [False, ..., True, ...] would label nodes 0 and 1
    dataset, labeled_idx, _, config = small_problem(seed=0, n=20)
    mask = np.zeros(dataset.n, dtype=bool)
    mask[labeled_idx] = True
    for variant in ("hydent", "hybrid-no-teaching"):
        with pytest.raises(ValueError, match=r"np\.flatnonzero\(mask\)"):
            run_baseline(dataset, mask, config, variant)


def test_evaluate_rejects_indices_outside_the_predictions():
    # -1 must not wrap round to the last row, and n must not raise a bare IndexError
    pred = np.array([0, 1, 1])
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=rf"unlabeled index {bad} is outside \[0, 3\)"):
            evaluate(pred, pred, [bad])


def test_fractional_indices_are_rejected():
    # truncated, labeled + 0.7 once ran as the labeled set, and [0.9, 1.9] scored rows 0 and 1
    dataset, labeled_idx, _, config = small_problem(seed=0, n=20)
    shifted = labeled_idx + 0.7
    for variant in ("hydent", "hybrid-no-teaching"):
        with pytest.raises(ValueError, match=rf"labeled index {shifted[0]} is not a whole number"):
            run_baseline(dataset, shifted, config, variant)
    pred = np.array([0, 1, 1])
    with pytest.raises(ValueError, match=r"unlabeled index 0\.9 is not a whole number"):
        evaluate(pred, pred, [0.9, 1.9])
    # whole floats still read as indices, and an empty list, a float array to numpy, as none
    assert evaluate(pred, np.array([0, 1, 0]), [0.0, 2.0]) == 0.5
    assert evaluate(pred, pred, []) == 1.0
    as_floats = run_baseline(dataset, labeled_idx.astype(float), config, "hydent")
    np.testing.assert_array_equal(as_floats.scores, run_baseline(dataset, labeled_idx, config, "hydent").scores)


def test_evaluate_rejects_predictions_of_another_length():
    # one prediction short used to raise a bare IndexError, and one extra
    # prediction went unnoticed
    for pred, truth, idx in (([0, 1], [0, 1, 1], [2]), ([0, 1, 1, 0], [0, 1, 1], [0, 1, 2])):
        with pytest.raises(ValueError, match=f"{len(pred)} predictions for {len(truth)} true labels"):
            evaluate(pred, truth, idx)


def test_evaluate_rejects_a_boolean_mask():
    pred = np.array([0, 1, 1, 0])
    with pytest.raises(ValueError, match=r"np\.flatnonzero\(mask\)"):
        evaluate(pred, pred, np.array([False, True, True, False]))


def test_graph_work_runs_once_per_group_of_equal_edges(monkeypatch):
    # the default learners differ only in self-loops: the kNN step computes
    # the distances once, the one weight build reads them off its edges, and
    # each solved round scores its one teacher once
    knn, weights, score, solve = (hydent.run.knn_pattern, hydent.run.gaussian_weights,
                                  hydent.run.teaching_matrix, hydent.run.bcd_solve)
    calls = {"knn": 0, "weights": 0, "scored": 0, "solved": 0}

    def count(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(hydent.run, "knn_pattern", count("knn", knn))
    monkeypatch.setattr(hydent.run, "gaussian_weights", count("weights", weights))
    monkeypatch.setattr(hydent.run, "teaching_matrix", count("scored", score))
    monkeypatch.setattr(hydent.run, "bcd_solve", count("solved", solve))
    dataset, labeled_idx, _, config = small_problem(seed=12)
    run_hydent(dataset, labeled_idx, config)
    assert calls["knn"] == calls["weights"] == 1
    assert calls["solved"] >= 3 and calls["scored"] == calls["solved"]


def test_prior_is_built_once_per_teacher(monkeypatch):
    # make_teacher inverts L + P0 once for L+, and the first round inverts the
    # prior precision over every node and conditions it on the anchors; later
    # rounds only extend the anchors' factor, so a run makes exactly two n x n inverses.  At
    # n = 300 each is made by halves, which call no spd_inverse of their own
    inverse, sizes = hydent.graph.spd_inverse, []

    def spy(matrix):
        sizes.append(np.shape(matrix))
        return inverse(matrix)

    for module in (hydent.graph, hydent.teacher):
        monkeypatch.setattr(module, "spd_inverse", spy)
    dataset, labeled_idx, _, config = small_problem(seed=3, n=150)
    assert dataset.n > hydent.graph.INVERSE_BLOCK
    result = run_hydent(dataset, labeled_idx, config)
    assert sum(r.converged is not None for r in result.rounds) > 1
    assert sizes == [(dataset.n, dataset.n)] * 2


def test_protocol_run_imports_no_scipy():
    # importing scipy alone would add tens of MB to a small run's peak memory
    src = Path(hydent.run.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from hydent import RunConfig, SplitSpec, run_hydent, split, synth_noisy_gaussian\n"
        "dataset = synth_noisy_gaussian(15, 0.8, seed=0)\n"
        "run_hydent(dataset, split(dataset, SplitSpec(1, seed=0))[0], RunConfig(k=4))\n"
        "sys.exit('scipy was imported' if 'scipy' in sys.modules else 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def test_run_is_deterministic():
    dataset, labeled_idx, _, config = small_problem(seed=5)
    a = run_hydent(dataset, labeled_idx, config)
    b = run_hydent(dataset, labeled_idx, config)
    assert np.array_equal(a.predictions, b.predictions)
    np.testing.assert_array_equal(a.scores, b.scores)


def test_round_hook_sees_every_round():
    dataset, labeled_idx, _, config = small_problem(seed=2)
    seen = []
    result = run_hydent(dataset, labeled_idx, config, round_hook=seen.append)
    assert len(seen) == len(result.rounds)
    assert [r.index for r in seen] == list(range(1, len(seen) + 1))


def test_variants_all_run_and_score():
    dataset, labeled_idx, _, config = small_problem(seed=7)
    for variant in (
        "hydent",
        "hybrid-no-teaching",
        "single-teacher-gaussian",
        "single-teacher-flap",
        "single-learner-gaussian",
        "single-learner-flap",
    ):
        result = run_baseline(dataset, labeled_idx, config, variant)
        assert result.variant == variant
        assert 0.0 <= result.accuracy <= 1.0


def test_unknown_variant_rejected():
    dataset, labeled_idx, _, config = small_problem()
    with pytest.raises(ValueError):
        run_baseline(dataset, labeled_idx, config, "mystery")
    with pytest.raises(ValueError):
        run_baseline(dataset, labeled_idx, config, "single-teacher-3")
    with pytest.raises(ValueError, match="configured kernels"):
        run_baseline(dataset, labeled_idx, config, "single-learner-1")


def test_single_kernel_collapses_the_ensemble():
    # with one learner and no row coupling, the full method and the
    # single-teacher ablation follow identical numerics
    dataset = synth_noisy_gaussian(15, 0.8, seed=9)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=9))
    config = RunConfig(kernels=("gaussian",), beta0=0.0, k=4, seed=9)
    full = run_baseline(dataset, labeled_idx, config, "hydent")
    alone = run_baseline(dataset, labeled_idx, config, "single-teacher-gaussian")
    assert np.array_equal(full.predictions, alone.predictions)
    np.testing.assert_array_equal(full.scores, alone.scores)


def test_hybrid_with_one_learner_is_single_learner():
    dataset = synth_noisy_gaussian(15, 0.8, seed=10)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=10))
    config = RunConfig(kernels=("flap",), k=4, seed=10)
    hybrid = run_baseline(dataset, labeled_idx, config, "hybrid-no-teaching")
    single = run_baseline(dataset, labeled_idx, config, "single-learner-flap")
    assert np.array_equal(hybrid.predictions, single.predictions)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(kernels=())
    with pytest.raises(ValueError):
        RunConfig(kernels=("gaussian", "cubic"))
    with pytest.raises(ValueError):
        RunConfig(theta=1.0)
    with pytest.raises(ValueError):
        RunConfig(k=0)
    with pytest.raises(ValueError, match="kernel 'gaussian' is repeated"):
        RunConfig(kernels=("gaussian", "flap", "gaussian"))


def test_config_rejects_a_k_that_is_not_an_integer():
    # 2.5 would fail in knn_pattern's partition with a bare TypeError, True would run as k = 1
    for k in (2.5, 3.0, True, False, "3"):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            RunConfig(k=k)
    # a numpy integer is kept as a plain int, so the JSON summary still serializes
    assert type(RunConfig(k=np.int64(3)).k) is int
    dataset, labeled_idx, _, _ = small_problem()
    result = run_baseline(dataset, labeled_idx, RunConfig(k=np.int64(4)), "hydent")
    assert json.loads(result_to_json(result))["config"]["k"] == 4


def test_config_stores_numpy_scalars_as_python_numbers():
    # np.int64 and np.float32 ran, and then the JSON summary refused them
    config = RunConfig(k=np.int64(4), sigma=np.float64(1.0), theta=np.float32(0.05), seed=np.int64(3))
    assert [type(getattr(config, name)) for name in ("k", "sigma", "theta", "seed")] == [int, float, float, int]
    dataset, labeled_idx, _, _ = small_problem()
    summary = json.loads(result_to_json(run_baseline(dataset, labeled_idx, config, "hydent")))["config"]
    assert summary["seed"] == 3 and summary["theta"] == float(np.float32(0.05))


def test_config_rejects_a_seed_that_is_not_a_non_negative_integer():
    # 2.5 and True were accepted, and -1 failed later in the split's numpy generator
    for seed in (-1, 2.5, 3.0, True, "3", np.int64(-2)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            RunConfig(seed=seed)
    assert RunConfig(seed=0).seed == 0


def test_config_rejects_a_bare_kernel_name():
    # iterated, "gaussian" would read as the kernels "g", "a", ...
    for name in ("gaussian", "flap"):
        with pytest.raises(ValueError, match=rf"kernels='{name}' is one string.*kernels=\('{name}',\)"):
            RunConfig(kernels=name)
    assert RunConfig(kernels=["flap"]).kernels == ("flap",)


def test_config_stores_kernels_as_a_tuple():
    # a list would leave the frozen config unhashable and unequal to its tuple twin
    listed = RunConfig(kernels=["gaussian", "flap"])
    assert listed.kernels == ("gaussian", "flap")
    assert listed == RunConfig(kernels=("gaussian", "flap"))
    assert hash(listed) == hash(RunConfig())


def test_config_rejects_non_finite_values():
    for name in ("sigma", "kappa2", "beta0", "beta1", "gamma"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                RunConfig(**{name: value})


def test_config_rejects_a_gamma_whose_first_feedback_underflows():
    # exp(-800) is 0.0, which no curriculum size can follow from; exp(-745) is not
    with pytest.raises(ValueError, match="gamma=800"):
        RunConfig(k=4, gamma=800)
    dataset = synth_noisy_gaussian(20, 0.8, seed=0)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=0))
    result = run_hydent(dataset, labeled_idx, RunConfig(k=4, gamma=745))
    assert sum(r.size for r in result.rounds) == dataset.n - labeled_idx.size


def test_result_json_schema():
    dataset, labeled_idx, _, config = small_problem(seed=11, n=12)
    result = run_hydent(dataset, labeled_idx, config)
    payload = json.loads(result_to_json(result))
    assert payload["schema"] == "hydent.run.v2"
    assert payload["variant"] == "hydent"
    assert payload["rounds"] == len(result.rounds)
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["config"]["k"] == 4


def test_result_records_the_config_the_variant_ran():
    dataset, labeled_idx, _, config = small_problem(seed=11, n=12)
    expected = {
        "hydent": config,
        "hybrid-no-teaching": config,
        "single-teacher-flap": dataclasses.replace(config, kernels=("flap",), beta0=0.0),
        "single-learner-gaussian": dataclasses.replace(config, kernels=("gaussian",)),
    }
    for variant, ran in expected.items():
        result = run_baseline(dataset, labeled_idx, config, variant)
        assert result.config == ran
        assert json.loads(result_to_json(result))["config"] == {
            **dataclasses.asdict(ran), "kernels": list(ran.kernels)}


def test_trace_csv_files(tmp_path):
    dataset, labeled_idx, _, config = small_problem(seed=12, n=12)
    result = run_hydent(dataset, labeled_idx, config)
    rounds_path = tmp_path / "rounds.csv"
    trace_path = tmp_path / "bcd.csv"
    write_rounds_csv(result, rounds_path)
    write_bcd_trace_csv(result, trace_path)
    round_lines = rounds_path.read_text().strip().splitlines()
    assert len(round_lines) == len(result.rounds)
    assert round_lines[0].split(",")[0] == "1"
    # the sixth to eighth columns record whether each round's solve converged,
    # whether it moved and how long it took, and are empty for a round that
    # taught its whole pool without a solve
    assert all(len(line.split(",")) == 8 for line in round_lines)
    assert [line.split(",")[5] for line in round_lines] == [
        "" if r.converged is None else str(int(r.converged)) for r in result.rounds]
    assert [line.split(",")[6] for line in round_lines] == [
        "" if r.moved is None else str(int(r.moved)) for r in result.rounds]
    assert [line.split(",")[7] for line in round_lines] == [
        "" if r.solve_seconds is None else repr(r.solve_seconds) for r in result.rounds]
    assert any(r.converged is not None for r in result.rounds)
    assert all((r.converged is None) == (r.size == r.pool_size) for r in result.rounds)
    assert all((r.solve_seconds is None) == (r.converged is None) for r in result.rounds)
    assert all(0.0 < r.solve_seconds <= r.seconds for r in result.rounds if r.solve_seconds is not None)
    trace_lines = trace_path.read_text().strip().splitlines()
    assert len(trace_lines) == sum(len(r.objective) for r in result.rounds)
    # Q column parses as float and starts each round at iteration 0
    first = trace_lines[0].split(",")
    assert first[1] == "0" and float(first[2]) > 0.0
    # rounds without a solve leave the converged, moved and solve-time columns empty
    untaught = run_baseline(dataset, labeled_idx, config, "hybrid-no-teaching")
    assert all(r.converged is None and r.solve_seconds is None for r in untaught.rounds)
    write_rounds_csv(untaught, rounds_path)
    assert all(line.split(",")[5:] == ["", "", ""] for line in rounds_path.read_text().splitlines())


def test_paired_t_test_hand_worked_example():
    b = [0.90, 0.91, 0.89, 0.90, 0.92]
    a = [x + d for x, d in zip(b, (0.02, 0.01, 0.03, 0.02, 0.02))]
    t, significant = paired_t_test(a, b)
    assert t == pytest.approx(6.3246, abs=1e-3)
    assert significant  # critical value for 4 dof at 0.9 is 1.533


def test_paired_t_test_identical_samples():
    a = [0.5, 0.6, 0.7]
    t, significant = paired_t_test(a, list(a))
    assert t == 0.0
    assert not significant


def test_paired_t_test_degenerate_certainty():
    a = [0.9, 0.9, 0.9]
    b = [0.8, 0.8, 0.8]
    t, significant = paired_t_test(a, b)
    assert np.isinf(t) and t > 0
    assert significant
    t, significant = paired_t_test(b, a)
    assert np.isinf(t) and t < 0
    assert not significant


def test_paired_t_test_formula_against_manual():
    rng = np.random.default_rng(33)
    a = rng.uniform(0.7, 1.0, size=12)
    b = rng.uniform(0.7, 1.0, size=12)
    d = a - b
    manual = d.mean() / (d.std(ddof=1) / np.sqrt(d.size))
    t, _ = paired_t_test(a, b)
    assert t == pytest.approx(manual, rel=1e-12)


def test_paired_t_test_large_sample_critical_value():
    rng = np.random.default_rng(34)
    b = rng.uniform(0.8, 0.9, size=40)
    a = b + rng.uniform(0.001, 0.004, size=40)
    t, significant = paired_t_test(a, b)
    assert significant and t > 1.2816


def test_paired_t_test_validation():
    with pytest.raises(ValueError):
        paired_t_test([0.5], [0.4])
    with pytest.raises(ValueError):
        paired_t_test([0.5, 0.6], [0.4])
    # a NaN would read as t = nan, not significant
    for a in ([0.5, np.nan, 0.7], [0.5, np.inf, 0.7]):
        with pytest.raises(ValueError, match="accuracies must be finite"):
            paired_t_test(a, [0.4, 0.5, 0.6])


def test_round_moved_tells_whether_the_solve_left_its_start(monkeypatch):
    # hydent on a protocol input (two blobs of 100 at covariance 1.5): each
    # round's flag is the solve's curriculum, as a set, against the one its
    # easiest start reads as, and the solve moves in some rounds (here round
    # 15) and keeps its start in others
    solves = []
    solve = hydent.run.bcd_solve

    def spy(r_list, beta0, beta1, s):
        solves.append((r_list, s, solve(r_list, beta0, beta1, s)))
        return solves[-1][2]

    monkeypatch.setattr(hydent.run, "bcd_solve", spy)
    dataset = synth_noisy_gaussian(100, 1.5, seed=1011)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=1011))
    result = run_hydent(dataset, labeled_idx, RunConfig(seed=1011))
    solved = [r for r in result.rounds if r.converged is not None]
    assert len(solved) == len(solves)
    assert all((r.moved is None) == (r.converged is None) for r in result.rounds)
    expected = []
    for r_list, s, solution in solves:
        start = hydent.teaching.easiest_start(r_list, s)
        easiest = hydent.teaching._largest(np.linalg.norm(np.hstack(start), axis=1), s)
        expected.append(set(solution.curriculum.tolist()) != set(easiest.tolist()))
    assert [r.moved for r in solved] == expected == [solution.moved for _, _, solution in solves]
    assert True in expected and False in expected


def test_round_moved_on_a_hand_built_solve(monkeypatch):
    # the driver records the flag its solve reports and judges no curriculum
    # itself; whether reordered or swapped rows count as moved is the solve's
    # own contract (test_teaching.py)
    dataset, labeled_idx, _, config = small_problem(seed=2)
    for swap in (False, True):
        def fake(r_list, beta0, beta1, s, swap=swap):
            diagonal = np.diag(r_list[0])
            picks = np.argsort(diagonal, kind="stable")
            curriculum = picks[:s][::-1].copy()
            if swap:
                curriculum[0] = picks[s]
            return hydent.teaching.TeachingSolution((), curriculum, np.zeros(1), True, swap)

        monkeypatch.setattr(hydent.run, "bcd_solve", fake)
        result = run_hydent(dataset, labeled_idx, config)
        moved = [r.moved for r in result.rounds if r.moved is not None]
        assert moved and all(flag == swap for flag in moved), swap
    untaught = run_baseline(dataset, labeled_idx, config, "hybrid-no-teaching")
    assert all(r.moved is None for r in untaught.rounds)
