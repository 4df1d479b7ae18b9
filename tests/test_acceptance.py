"""Acceptance gates for the assembled method.

Criteria 1 to 4 are benchmark bars on the two-blob synthetic task under
the standard protocol (100 points per class, 1 labeled per class, ten
paired seeds, default configuration).  Criteria 5 to 10 are mathematical
obligations: solver monotonicity, gradient and commute-time oracles,
ranking equivalence, probability conservation, and determinism.

Every test prints exactly one PASS/FAIL line with the measured numbers,
then asserts, so a red run still reports what was actually observed.
"""

import math
import time

import numpy as np

import hydent.run
from hydent.data import SplitSpec, split, synth_noisy_gaussian
from dense_oracle import graph_of
from hydent.propagate import propagate_round
from hydent.run import RunConfig, paired_t_test, run_baseline
from hydent.teacher import make_teacher, teaching_matrix
from hydent.teaching import bcd_solve, gradient, surrogate

PROTOCOL_SEEDS = tuple(range(10))

_protocol_cache = {}


def protocol_accuracies(cov, variant):
    """Ten paired runs of one variant; cached so criteria can share them."""
    key = (cov, variant)
    if key not in _protocol_cache:
        tick = time.perf_counter()
        accs = []
        for seed in PROTOCOL_SEEDS:
            dataset = synth_noisy_gaussian(100, cov, seed=seed)
            labeled_idx, _ = split(dataset, SplitSpec(1, seed=seed))
            result = run_baseline(dataset, labeled_idx, RunConfig(seed=seed), variant)
            accs.append(result.accuracy)
        _protocol_cache[key] = (accs, time.perf_counter() - tick)
    return _protocol_cache[key]


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def random_connected_adjacency(rng, n):
    W = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        W[a, b] = W[b, a] = rng.uniform(0.5, 2.0)
    extra = rng.random((n, n)) < 0.4
    weights = rng.uniform(0.1, 1.0, size=(n, n))
    W = np.maximum(W, np.where(extra | extra.T, 0.5 * (weights + weights.T), 0.0))
    np.fill_diagonal(W, 0.0)
    return W


def test_01_clean_benchmark_accuracy():
    accs, secs = protocol_accuracies(0.5, "hydent")
    mean = float(np.mean(accs))
    ok = mean >= 0.97 and secs < 30.0
    report(1, ok, f"clean blobs mean accuracy {mean:.4f} (need >= 0.97), {secs:.1f}s (limit 30)")
    assert ok, f"mean {mean:.4f} vs bound 0.97, {secs:.1f}s"


def test_02_moderate_noise_accuracy():
    accs, secs = protocol_accuracies(1.0, "hydent")
    mean = float(np.mean(accs))
    ok = mean >= 0.93 and secs < 30.0
    report(2, ok, f"moderate blobs mean accuracy {mean:.4f} (need >= 0.93), {secs:.1f}s (limit 30)")
    assert ok, f"mean {mean:.4f} vs bound 0.93, {secs:.1f}s"


def test_03_heavy_noise_beats_single_teachers():
    full, secs_full = protocol_accuracies(1.5, "hydent")
    total = secs_full
    margins, tstats, significant = [], [], []
    for variant in ("single-teacher-gaussian", "single-teacher-flap"):
        accs, secs = protocol_accuracies(1.5, variant)
        total += secs
        margins.append(float(np.mean(full)) - float(np.mean(accs)))
        t, sig = paired_t_test(full, accs)
        tstats.append(t)
        significant.append(sig)
    ok = all(m >= 0.03 for m in margins) and all(significant) and total < 60.0
    detail = (
        f"margins over single teachers {margins[0]:+.4f}/{margins[1]:+.4f} "
        f"(need >= +0.03 each), t {tstats[0]:.2f}/{tstats[1]:.2f} "
        f"(significant: {significant[0]}/{significant[1]}), {total:.1f}s (limit 60)"
    )
    report(3, ok, detail)
    assert ok, detail


def test_04_ablation_ordering():
    hydent, _ = protocol_accuracies(1.0, "hydent")
    hybrid, _ = protocol_accuracies(1.0, "hybrid-no-teaching")
    singles = [
        protocol_accuracies(1.0, "single-learner-gaussian")[0],
        protocol_accuracies(1.0, "single-learner-flap")[0],
    ]
    m_hydent = float(np.mean(hydent))
    m_hybrid = float(np.mean(hybrid))
    m_floor = min(float(np.mean(a)) for a in singles)
    slack = 0.01
    ok = m_hydent >= m_hybrid - slack and m_hybrid >= m_floor - slack
    detail = (
        f"ordering {m_hydent:.4f} >= {m_hybrid:.4f} >= {m_floor:.4f} "
        f"(1-point slack, moderate noise)"
    )
    report(4, ok, detail)
    assert ok, detail


def test_05_solver_descent_on_random_instances():
    rng = np.random.default_rng(2024)
    tick = time.perf_counter()
    worst_rise = -np.inf
    longest = 0
    for _ in range(100):
        b = int(rng.integers(2, 21))
        s = int(rng.integers(1, min(b, 5) + 1))
        m = int(rng.integers(1, 4))
        r_list = []
        for _ in range(m):
            a = rng.normal(size=(b, b))
            r_list.append(a @ a.T)
        beta0, beta1 = 10.0 ** rng.uniform(-1, 2, size=2)
        start = np.random.default_rng(int(rng.integers(1 << 31))).random((m, b, s))
        sol = bcd_solve(r_list, beta0, beta1, s, init=start)
        trace = np.asarray(sol.objective_trace)
        worst_rise = max(worst_rise, float(np.max(np.diff(trace), initial=-np.inf)))
        longest = max(longest, len(trace) - 1)
    secs = time.perf_counter() - tick
    ok = worst_rise <= 1e-10 and longest <= 300 and secs < 30.0
    detail = (
        f"worst objective rise {worst_rise:.2e} over 100 instances "
        f"(allow 1e-10), longest run {longest} sweeps (cap 300), {secs:.1f}s (limit 30)"
    )
    report(5, ok, detail)
    assert ok, detail


def test_06_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    tick = time.perf_counter()
    step = 1e-6
    worst = 0.0
    for _ in range(50):
        b = int(rng.integers(2, 9))
        s = int(rng.integers(1, min(b, 4) + 1))
        a = rng.normal(size=(b, b))
        R = a @ a.T
        S = rng.random((b, s))
        h = rng.random(b) + 0.1
        beta0, beta1 = 10.0 ** rng.uniform(-1, 2, size=2)
        grad = gradient(S, R, h, beta0, beta1)
        fd = np.zeros_like(S)
        for idx in np.ndindex(S.shape):
            plus, minus = S.copy(), S.copy()
            plus[idx] += step
            minus[idx] -= step
            fd[idx] = (
                surrogate(plus, R, h, beta0, beta1) - surrogate(minus, R, h, beta0, beta1)
            ) / (2.0 * step)
        worst = max(worst, float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0)))
    secs = time.perf_counter() - tick
    ok = worst < 1e-5 and secs < 10.0
    detail = f"worst relative gradient error {worst:.2e} over 50 instances (allow 1e-5), {secs:.1f}s (limit 10)"
    report(6, ok, detail)
    assert ok, detail


def test_07_commute_times_equal_effective_resistance():
    rng = np.random.default_rng(101)
    tick = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 11))
        g = graph_of(random_connected_adjacency(rng, n))
        # the teacher's L+, from which every run reads its class-mean commute times
        held = make_teacher(g).pinv
        pinv = np.linalg.pinv(g.laplacian)
        for i in range(n):
            for j in range(i + 1, n):
                commute = held[i, i] + held[j, j] - 2.0 * held[i, j]
                e = np.zeros(n)
                e[i], e[j] = 1.0, -1.0
                resistance = float(e @ pinv @ e)
                worst = max(worst, abs(commute - resistance) / resistance)
    secs = time.perf_counter() - tick
    ok = worst < 1e-8 and secs < 5.0
    detail = f"worst relative mismatch {worst:.2e} over 20 graphs (allow 1e-8), {secs:.1f}s (limit 5)"
    report(7, ok, detail)
    assert ok, detail


def test_08_trace_and_entropy_rank_candidates_identically():
    rng = np.random.default_rng(55)
    tick = time.perf_counter()
    agreements = 0
    trials = 20
    for _ in range(trials):
        n = int(rng.integers(10, 18))
        g = graph_of(random_connected_adjacency(rng, n))
        perm = rng.permutation(n)
        labeled = perm[: int(rng.integers(2, 5))]
        pool = perm[len(labeled) : len(labeled) + int(rng.integers(2, 9))]
        # one class group, so the gap term is zero and the diagonal is each variance
        variances = np.diag(teaching_matrix(make_teacher(g, 100.0), pool, {0: labeled}))
        entropies = 0.5 * np.log(2.0 * math.pi * math.e * variances)
        if np.array_equal(np.argsort(variances), np.argsort(entropies)):
            agreements += 1
    secs = time.perf_counter() - tick
    ok = agreements == trials and secs < 5.0
    detail = f"identical rankings on {agreements}/{trials} pools, {secs:.1f}s (limit 5)"
    report(8, ok, detail)
    assert ok, detail


def test_09_probability_conservation_through_full_runs(monkeypatch):
    # a round record keeps no scores, so each round's state is read as the
    # run's own propagate_round returns it; nothing renormalises that state
    drifts = []

    def watch(*args, **kwargs):
        scores = propagate_round(*args, **kwargs)
        drifts.append(float(np.max(np.abs(scores.sum(axis=1) - 1.0))))
        return scores

    monkeypatch.setattr(hydent.run, "propagate_round", watch)
    worst_final = 0.0
    rounds = 0
    for seed in (0, 1):
        dataset = synth_noisy_gaussian(100, 1.0, seed=seed)
        labeled_idx, _ = split(dataset, SplitSpec(1, seed=seed))
        result = run_baseline(dataset, labeled_idx, RunConfig(seed=seed), "hydent")
        rounds += len(result.rounds)
        worst_final = max(
            worst_final, float(np.max(np.abs(result.scores.sum(axis=1) - 1.0)))
        )
    worst_round = max(drifts)
    ok = len(drifts) == rounds and worst_round <= 1e-9 and worst_final <= 1e-8
    detail = (
        f"row-sum drift {worst_round:.2e} per round over {len(drifts)}/{rounds} rounds "
        f"(allow 1e-9), {worst_final:.2e} after closure (allow 1e-8)"
    )
    report(9, ok, detail)
    assert ok, detail


def test_10_bitwise_determinism():
    dataset = synth_noisy_gaussian(100, 1.0, seed=0)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=0))
    first = run_baseline(dataset, labeled_idx, RunConfig(seed=0), "hydent")
    second = run_baseline(dataset, labeled_idx, RunConfig(seed=0), "hydent")
    identical = np.array_equal(first.predictions, second.predictions) and np.array_equal(
        first.scores, second.scores
    )
    report(10, identical, "repeated run is bitwise identical" if identical else "repeated run diverged")
    assert identical
