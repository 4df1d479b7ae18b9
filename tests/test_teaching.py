"""Joint curriculum selection: objective, gradient, line search, solver.

Oracles used here:
  * a second, independently written evaluation of the objective,
  * central finite differences for the gradient,
  * direct surrogate evaluation for the quartic line coefficients, and a
    dense step grid plus the Wolfe search the solver used before the exact
    step, for the step itself,
  * a dense grid search for the 2-variable solver instance,
  * the solver's former loop, which also kept a block's step only if its
    directly evaluated surrogate did not rise, for the solver itself,
  * hand-worked values for the extraction example.
"""

import itertools
import re
import warnings

import numpy as np
import pytest

import hydent.run
import hydent.teaching
from hydent.data import SplitSpec, split, synth_noisy_gaussian
from hydent.run import RunConfig, run_hydent
from hydent.teaching import (
    TeachingSolution,
    bcd_solve,
    easiest_start,
    exact_step,
    extract_curriculum,
    gradient,
    l21_norm,
    l21_weight_matrix,
    line_quartic,
    objective,
    surrogate,
)


def random_instance(rng, b=None, s=None, m=None):
    b = b or int(rng.integers(2, 21))
    s = s or int(rng.integers(1, min(b, 5) + 1))
    m = m or int(rng.integers(1, 4))
    r_list = []
    for _ in range(m):
        a = rng.normal(size=(b, b))
        r_list.append(a @ a.T)
    blocks = [rng.random((b, s)) for _ in range(m)]
    return blocks, r_list


def naive_objective(blocks, r_list, beta0, beta1):
    """Straight transcription of the formula, written without shortcuts."""
    total = 0.0
    for S, R in zip(blocks, r_list):
        total += np.trace(S.T @ R @ S)
        total += beta1 * np.linalg.norm(S * S - S, "fro") ** 2
        total += beta1 * np.linalg.norm(S.T @ S - np.eye(S.shape[1]), "fro") ** 2
    stacked = np.hstack(blocks)
    total += beta0 * sum(np.linalg.norm(row) for row in stacked)
    return total


def test_l21_norm_hand_value():
    m = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    assert l21_norm(m) == pytest.approx(6.0)


def test_l21_weight_matrix_values():
    stacked = np.array([[0.0, 0.0], [0.3, 0.4]])
    h = l21_weight_matrix(stacked)
    assert h[0] == pytest.approx(1e8)  # 1 / (2 * 0 + zeta)
    assert h[1] == pytest.approx(1.0 / (1.0 + 1e-8))


def test_l21_weight_matrix_recovers_norm_in_limit(monkeypatch):
    monkeypatch.setattr(hydent.teaching, "ZETA", 1e-12)
    rng = np.random.default_rng(7)
    stacked = rng.random((6, 4))
    h = l21_weight_matrix(stacked)
    via_h = np.trace(stacked.T @ (h[:, None] * stacked))
    # tr(S^T H S) with H from S itself halves to the l2,1 norm
    assert 2.0 * via_h == pytest.approx(l21_norm(stacked), abs=1e-6)


def test_objective_all_zero_blocks():
    blocks = [np.zeros((4, 3)), np.zeros((4, 3))]
    r_list = [np.eye(4), np.eye(4)]
    # only the orthogonality penalty survives: 2 blocks * beta1 * s
    assert objective(blocks, r_list, 10.0, 100.0) == pytest.approx(600.0)


def test_objective_permutation_point_is_penalty_free():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4))
    R = a @ a.T
    S = np.eye(4)[:, [2, 0, 3, 1]]  # one 1 per row and column
    got = objective([S], [R], 7.0, 100.0)
    assert got == pytest.approx(np.trace(S.T @ R @ S) + 7.0 * 4)


def test_objective_matches_independent_evaluation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        blocks, r_list = random_instance(rng)
        q = objective(blocks, r_list, 3.0, 11.0)
        assert q == pytest.approx(naive_objective(blocks, r_list, 3.0, 11.0), rel=1e-10)


def test_objective_shape_mismatch():
    with pytest.raises(ValueError):
        objective([np.zeros((3, 2))], [np.eye(4)], 1.0, 1.0)


def test_gradient_zero_at_origin():
    grad = gradient(np.zeros((5, 2)), np.eye(5), np.ones(5), 10.0, 10.0)
    np.testing.assert_array_equal(grad, np.zeros((5, 2)))


def test_gradient_scalar_case_by_hand():
    # b = s = 1: q(x) = R x^2 + b0 H x^2 + b1 ((x^2-x)^2 + (x^2-1)^2),
    # so q'(1) = 2 (R + b0 H)
    R = np.array([[2.5]])
    h = np.array([0.7])
    grad = gradient(np.array([[1.0]]), R, h, 3.0, 50.0)
    assert grad[0, 0] == pytest.approx(2.0 * (2.5 + 3.0 * 0.7), rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    step = 1e-6
    for _ in range(20):
        blocks, r_list = random_instance(rng, b=int(rng.integers(2, 8)))
        S, R = blocks[0], r_list[0]
        h = rng.random(S.shape[0]) + 0.1
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
        denom = max(np.linalg.norm(fd), 1.0)
        assert np.linalg.norm(grad - fd) / denom < 1e-5


def wolfe_step(x, direction, value, grad, *, initial=1.0, c1=1e-4, c2=0.9, max_iter=60, max_backtrack=30):
    """The solver's former Wolfe bracketing search, kept only as an oracle."""
    slope0 = float(np.vdot(grad(x), direction))
    if slope0 >= 0.0:
        return 0.0
    f0 = value(x)
    lo, hi = 0.0, np.inf
    t = initial
    for _ in range(max_iter):
        if value(x + t * direction) > f0 + c1 * t * slope0:
            hi = t
            t = 0.5 * (lo + hi)
        elif float(np.vdot(grad(x + t * direction), direction)) < c2 * slope0:
            lo = t
            t = 2.0 * lo if np.isinf(hi) else 0.5 * (lo + hi)
        else:
            return t
    t = initial
    for _ in range(max_backtrack):
        if value(x + t * direction) <= f0 + c1 * t * slope0:
            return t
        t *= 0.5
    return t


def random_stack(rng, m):
    blocks, r_list = random_instance(rng, m=m)
    h = rng.random(blocks[0].shape[0]) + 0.1
    beta0, beta1 = 10.0 ** rng.uniform(-1, 2, size=2)
    return np.stack(blocks), np.stack(r_list), h, beta0, beta1


def test_surrogate_and_gradient_broadcast_over_a_stack():
    rng = np.random.default_rng(18)
    for m in (1, 2, 3):
        blocks, r, h, beta0, beta1 = random_stack(rng, m)
        values = surrogate(blocks, r, h, beta0, beta1)
        grads = gradient(blocks, r, h, beta0, beta1)
        assert values.shape == (m,) and grads.shape == blocks.shape
        for k in range(m):
            assert values[k] == pytest.approx(surrogate(blocks[k], r[k], h, beta0, beta1), rel=1e-12)
            np.testing.assert_allclose(grads[k], gradient(blocks[k], r[k], h, beta0, beta1), rtol=1e-12)


def test_line_quartic_matches_direct_evaluation():
    rng = np.random.default_rng(19)
    steps = np.array([0.0, 0.3, -0.7, 1.1, 2.5, -1.9])
    for m in (1, 2, 3):
        for _ in range(5):
            blocks, r, h, beta0, beta1 = random_stack(rng, m)
            direction = rng.normal(size=blocks.shape)
            coeffs = line_quartic(blocks, direction, r, h, beta0, beta1)
            assert coeffs.shape == (m, 5)
            for t in steps:
                direct = surrogate(blocks + t * direction, r, h, beta0, beta1)
                np.testing.assert_allclose(coeffs @ t ** np.arange(5), direct, rtol=1e-10)
            # the linear coefficient is the directional derivative
            slope = np.sum(gradient(blocks, r, h, beta0, beta1) * direction, axis=(1, 2))
            np.testing.assert_allclose(coeffs[:, 1], slope, rtol=1e-10, atol=1e-10 * np.abs(coeffs[:, 0]).max())


def test_exact_step_beats_a_dense_grid_and_the_wolfe_search():
    rng = np.random.default_rng(20)
    for m in (1, 2, 3):
        for _ in range(5):
            blocks, r, h, beta0, beta1 = random_stack(rng, m)
            descent = -gradient(blocks, r, h, beta0, beta1)
            steps = exact_step(line_quartic(blocks, descent, r, h, beta0, beta1))
            for k in range(m):
                def value(x, k=k):
                    return surrogate(x, r[k], h, beta0, beta1)

                def grad(x, k=k):
                    return gradient(x, r[k], h, beta0, beta1)

                wolfe = wolfe_step(blocks[k], descent[k], value, grad)
                best = value(blocks[k] + steps[k] * descent[k])
                slack = 1e-12 * abs(value(blocks[k]))
                assert steps[k] > 0.0
                assert best <= value(blocks[k] + wolfe * descent[k]) + slack
                grid = np.linspace(0.0, 3.0 * max(steps[k], wolfe), 2001)
                assert best <= min(value(blocks[k] + t * descent[k]) for t in grid) + slack


def test_wolfe_step_quadratic_exact():
    # x^2 from 1 along -2: the minimizing step is exactly 0.5
    x, d = np.array([[1.0]]), np.array([[-2.0]])
    r, h = np.array([[1.0]]), np.zeros(1)
    tau = exact_step(line_quartic(x, d, r, h, 0.0, 0.0))
    assert tau == 0.5
    assert surrogate(x + tau * d, r, h, 0.0, 0.0) < surrogate(x, r, h, 0.0, 0.0)


def test_wolfe_step_zero_direction():
    r, h = np.eye(3), np.zeros(3)
    zeros, ones = np.zeros((3, 1)), np.ones((3, 1))
    assert exact_step(line_quartic(zeros, zeros, r, h, 0.0, 0.0)) == 0.0
    # ascent direction is also refused
    assert exact_step(line_quartic(ones, ones, r, h, 0.0, 0.0)) == 0.0


def test_wolfe_step_decreases_rosenbrock_like():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 6))
    Q = a @ a.T + 6 * np.eye(6)
    # tr(x' (Q/2) x) = x'Qx / 2, whose gradient is Qx
    r, h = 0.5 * Q, np.zeros(6)
    x = rng.normal(size=(6, 1))
    d = -Q @ x
    tau = exact_step(line_quartic(x, d, r, h, 0.0, 0.0))
    assert tau > 0.0
    assert tau == pytest.approx(np.sum(d * d) / np.sum(d * (Q @ d)), rel=1e-12)
    assert surrogate(x + tau * d, r, h, 0.0, 0.0) < surrogate(x, r, h, 0.0, 0.0)


def test_extract_curriculum_worked_example():
    blocks = [np.array([[0.9], [0.0], [0.4]]), np.array([[0.8], [0.0], [0.0]])]
    np.testing.assert_array_equal(extract_curriculum(blocks, 2), [0, 2])


def test_extract_curriculum_returns_min_s_b_rows():
    # near-zero and zero rows still fill the curriculum, last; s past the
    # pool size gives every row
    blocks = [np.array([[0.9], [0.0], [0.0005]])]
    np.testing.assert_array_equal(extract_curriculum(blocks, 3), [0, 2, 1])
    np.testing.assert_array_equal(extract_curriculum(blocks, 5), [0, 2, 1])
    np.testing.assert_array_equal(extract_curriculum(blocks, 2), [0, 2])


def test_extract_curriculum_prefers_larger_norm_to_more_entries():
    # row 0 has norm 0.5, row 1 two entries but norm 0.3 * sqrt(2) < 0.5
    blocks = [np.array([[0.5, 0.0], [0.3, 0.3], [0.0, 0.0]])]
    np.testing.assert_array_equal(extract_curriculum(blocks, 2), [0, 1])


def test_extract_curriculum_ranks_by_stacked_row_norm():
    # a picked row holding 1.0 outranks a row that drifted to two entries of
    # 0.002; equal norms go to the lower position
    blocks = [np.array([[1.0], [0.002], [0.0], [0.0]]), np.array([[0.0], [0.002], [0.0], [1.0]])]
    np.testing.assert_array_equal(extract_curriculum(blocks, 1), [0])
    np.testing.assert_array_equal(extract_curriculum(blocks, 4), [0, 3, 1, 2])
    np.testing.assert_array_equal(extract_curriculum(np.stack(blocks), 2), [0, 3])


def test_extract_curriculum_ranks_tiny_rows_by_norm_without_warning():
    blocks = [np.array([[1e-5], [3e-4]]), np.array([[2e-5], [1e-4]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        positions = extract_curriculum(blocks, 1)
    np.testing.assert_array_equal(positions, [1])  # larger norm


def test_bcd_solve_trace_monotone_and_converges():
    rng = np.random.default_rng(14)
    for _ in range(10):
        blocks, r_list = random_instance(rng)
        b, s = blocks[0].shape
        start = np.random.default_rng(int(rng.integers(1 << 16))).random((len(r_list), b, s))
        sol = bcd_solve(r_list, 10.0, 10.0, s, init=start)
        trace = np.asarray(sol.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10)
        assert len(trace) <= 301
        assert isinstance(sol, TeachingSolution)
        assert np.unique(sol.curriculum).size == sol.curriculum.size


def test_bcd_solve_two_variable_grid_oracle():
    # b=2, s=1, R=diag(0.1, 10): mass must land on the cheap first row.
    # beta1 has to dominate so staying at zero is not the best move.
    R = np.diag([0.1, 10.0])
    beta0, beta1 = 0.5, 5.0
    sol = bcd_solve([R], beta0, beta1, 1, init=np.random.default_rng(5).random((1, 2, 1)))
    S = sol.blocks[0]
    assert abs(S[0, 0]) > abs(S[1, 0])
    # dense grid over [0,1]^2 agrees about where the minimum sits
    grid = np.linspace(0.0, 1.0, 201)
    best = min(
        ((x0, x1) for x0 in grid for x1 in grid),
        key=lambda p: objective([np.array([[p[0]], [p[1]]])], [R], beta0, beta1),
    )
    assert best[0] > best[1]
    got = objective([S], [R], beta0, beta1)
    want = objective([np.array([[best[0]], [best[1]]])], [R], beta0, beta1)
    assert got <= want + 1e-2


def test_bcd_solve_iteration_cap_flags_not_converged(monkeypatch):
    monkeypatch.setattr(hydent.teaching, "SWEEP_CAP", 2)
    rng = np.random.default_rng(15)
    blocks, r_list = random_instance(rng, b=8, s=2, m=2)
    sol = bcd_solve(r_list, 10.0, 10.0, 2, init=np.random.default_rng(3).random((2, 8, 2)))
    assert not sol.converged
    assert len(sol.objective_trace) == 3  # initial value plus two sweeps


def test_bcd_solve_blocks_decouple_without_row_coupling(monkeypatch):
    # with beta0 = 0 the only cross-block term vanishes, so solving the
    # stacked problem must match solving each block alone step for step
    monkeypatch.setattr(hydent.teaching, "EPSILON", 0.0)
    monkeypatch.setattr(hydent.teaching, "SWEEP_CAP", 30)
    rng = np.random.default_rng(16)
    blocks, r_list = random_instance(rng, b=6, s=2, m=2)
    joint = bcd_solve(r_list, 0.0, 5.0, 2, init=blocks)
    for m in range(2):
        alone = bcd_solve([r_list[m]], 0.0, 5.0, 2, init=[blocks[m]])
        np.testing.assert_allclose(joint.blocks[m], alone.blocks[0], atol=1e-9)


def test_bcd_solve_clamps_s_to_pool():
    R = np.eye(3)
    sol = bcd_solve([R], 1.0, 1.0, 7, init=np.random.default_rng(0).random((1, 3, 3)))
    assert sol.blocks[0].shape == (3, 3)
    assert sorted(sol.curriculum.tolist()) == [0, 1, 2]


def test_bcd_solve_respects_explicit_init():
    R = np.diag([1.0, 2.0])
    init = [np.full((2, 1), 0.5)]
    sol = bcd_solve([R], 1.0, 1.0, 1, init=init)
    q0 = objective(init, [R], 1.0, 1.0)
    assert sol.objective_trace[0] == pytest.approx(q0)
    with pytest.raises(ValueError):
        bcd_solve([R], 1.0, 1.0, 2, init=init)  # wrong column count


def test_easiest_start_picks_each_teachers_lowest_diagonal():
    r_list = [np.diag([3.0, 1.0, 2.0, 0.5]), np.diag([1.0, 1.0, 5.0, 4.0])]
    blocks = easiest_start(r_list, 2)
    # teacher 0 takes rows 3 then 1; teacher 1 breaks its tie toward row 0
    np.testing.assert_array_equal(blocks[0], [[0, 0], [0, 1], [0, 0], [1, 0]])
    np.testing.assert_array_equal(blocks[1], [[1, 0], [0, 1], [0, 0], [0, 0]])
    # binary with orthonormal columns: only tr(S'RS) and the coupling remain
    for block, r in zip(blocks, r_list):
        np.testing.assert_array_equal(block.T @ block, np.eye(2))
        assert objective([block], [r], 0.0, 10.0) == pytest.approx(np.sum(block * (r @ block)))
    assert easiest_start([np.eye(3)], 7)[0].shape == (3, 3)


def test_easiest_start_is_the_binary_optimum_for_identical_teachers():
    # over every s-row pick per teacher, as 0/1 blocks with orthonormal
    # columns, both beta1 penalties vanish: the objective is the picked
    # diagonal plus beta0 * sum over rows of sqrt(teachers picking the row).
    # For identical teachers its brute-force optimum is the easiest start,
    # and that start reads as the optimum's rows.
    rng = np.random.default_rng(24)
    for m in (1, 2):
        for b in range(1, 8):
            for s in range(1, min(b, 3) + 1):
                a = rng.normal(size=(b, b))
                r_list = [a @ a.T] * m
                beta0, beta1 = 10.0 ** rng.uniform(-1, 2, size=2)
                best, best_rows = np.inf, None
                for picks in itertools.product(itertools.combinations(range(b), s), repeat=m):
                    blocks = np.zeros((m, b, s))
                    for teacher, rows in enumerate(picks):
                        blocks[teacher, rows, np.arange(s)] = 1.0
                    value = objective(blocks, r_list, beta0, beta1)
                    counts = np.bincount(np.concatenate(picks), minlength=b)
                    closed = np.diag(r_list[0])[np.concatenate(picks)].sum() + beta0 * np.sqrt(counts).sum()
                    assert value == pytest.approx(closed, rel=1e-12)
                    if value < best:
                        best, best_rows = value, set(np.concatenate(picks).tolist())
                start = easiest_start(r_list, s)
                assert objective(start, r_list, beta0, beta1) == pytest.approx(best, rel=1e-12)
                assert set(extract_curriculum(start, s).tolist()) == best_rows


def test_bcd_solve_from_easiest_start_keeps_the_cheap_rows():
    # under strong penalties the solve stays near the binary block it starts
    # from, so the start decides; from the easiest start the cheap rows stay
    r = np.diag([0.1, 0.2, 5.0, 6.0, 7.0])
    r_list = [r, r.copy()]
    sol = bcd_solve(r_list, 100.0, 100.0, 2, init=easiest_start(r_list, 2))
    assert sorted(sol.curriculum.tolist()) == [0, 1]
    assert np.all(np.diff(sol.objective_trace) <= 1e-10)


def test_bcd_solve_starts_from_the_easiest_start_by_default():
    rng = np.random.default_rng(17)
    for _ in range(10):
        blocks, r_list = random_instance(rng)
        s = blocks[0].shape[1]
        default = bcd_solve(r_list, 10.0, 10.0, s)
        given = bcd_solve(r_list, 10.0, 10.0, s, init=easiest_start(r_list, s))
        np.testing.assert_array_equal(np.stack(default.blocks), np.stack(given.blocks))
        np.testing.assert_array_equal(default.objective_trace, given.objective_trace)
        np.testing.assert_array_equal(default.curriculum, given.curriculum)
        assert default.converged == given.converged
        assert default.moved == given.moved


def test_bcd_solve_reports_moved_against_the_given_start():
    # held by strong penalties at an expensive start, the solve keeps that
    # start's rows: it has not moved, though the easiest start reads {1, 3}
    r = np.diag([5.0, 0.2, 6.0, 0.1, 7.0])
    init = np.zeros((2, 5, 2))
    init[:, 2, 0] = init[:, 0, 1] = 1.0
    sol = bcd_solve([r, r], 100.0, 100.0, 2, init=init)
    assert sorted(sol.curriculum.tolist()) == [0, 2] and not sol.moved
    assert sorted(bcd_solve([r, r], 100.0, 100.0, 2).curriculum.tolist()) == [1, 3]


def test_bcd_solve_moved_compares_sets_not_order():
    # a start reads as rows [1, 3] (equal norms, so by index); the
    # cheaper row 3 keeps more mass and ranks first, yet the set is the start's
    r = np.diag([5.0, 0.2, 6.0, 0.1, 7.0])
    init = np.zeros((1, 5, 2))
    init[0, 3, 0] = init[0, 1, 1] = 1.0
    np.testing.assert_array_equal(extract_curriculum(init, 2), [1, 3])
    sol = bcd_solve([r], 100.0, 100.0, 2, init=init)
    np.testing.assert_array_equal(sol.curriculum, [3, 1])
    assert not sol.moved


def test_bcd_solve_moved_when_a_row_is_swapped_in():
    # the start picks expensive row 1; its coupling to cheap row 0 pulls the
    # selection's mass over, so row 0 ends near 1 and row 1 near 0
    r = np.array([[0.1, -0.5, 0.0], [-0.5, 3.0, 0.0], [0.0, 0.0, 5.0]])
    init = np.zeros((1, 3, 1))
    init[0, 1, 0] = 1.0
    sol = bcd_solve([r], 0.0, 5.0, 1, init=init)
    np.testing.assert_array_equal(sol.curriculum, [0])
    assert sol.moved
    assert sol.blocks[0][0, 0] > 0.9 and abs(sol.blocks[0][1, 0]) < 0.1


def test_bcd_solve_rejects_bad_sizes():
    # the score matrices are checked before anything reads r_list[0], so an
    # empty list raises no IndexError
    with pytest.raises(ValueError, match="need one score matrix per selection block"):
        bcd_solve([], 1.0, 1.0, 1)
    for r_list, shape, b in (([np.eye(2), np.eye(3)], (3, 3), 2), ([np.ones((2, 3))], (2, 3), 2),
                             ([np.eye(2), np.ones(2)], (2,), 2), ([np.ones(3)], (3,), 3)):
        with pytest.raises(ValueError, match=rf"score matrix shape {re.escape(str(shape))} does not match pool size {b}"):
            bcd_solve(r_list, 1.0, 1.0, 1)
    with pytest.raises(ValueError, match="curriculum size must be positive"):
        bcd_solve([np.eye(2)], 1.0, 1.0, 0)
    # 2.5 would fail in easiest_start's slice with a bare TypeError; numpy integers run like ints
    for s in (2.0, 2.5, True, "2"):
        with pytest.raises(ValueError, match=rf"curriculum size must be an integer, got {re.escape(repr(s))}"):
            bcd_solve([np.eye(3)], 1.0, 1.0, s)
    assert bcd_solve([np.eye(3)], 1.0, 1.0, np.int64(2)).curriculum.size == 2


def test_bcd_solve_rejects_non_finite_scores_and_weights():
    # each would otherwise fail inside exact_step, on the companion matrix
    bad_scores = np.eye(3)
    bad_scores[0, 2] = bad_scores[2, 0] = np.nan
    for r, beta0, beta1 in ((bad_scores, 1.0, 1.0), (np.diag([1.0, np.inf, 2.0]), 1.0, 1.0),
                            (np.eye(3), np.nan, 1.0), (np.eye(3), 1.0, np.inf)):
        with pytest.raises(ValueError, match="scores and weights must be finite"), np.errstate(invalid="ignore"):
            bcd_solve([r], beta0, beta1, 2)


def two_guard_solve(r_list, beta0, beta1, s, init=None):
    """The solver's former loop at its numerics, kept only as an oracle.

    Besides the full-objective guard, it kept each block's step only if the
    block's directly evaluated surrogate did not rise.  The numerics are
    written out here (zeta 1e-8, epsilon 1e-4, 300 sweeps), so the
    comparison also pins the solver's constants.
    """
    r = np.asarray(r_list, dtype=float)
    s = min(s, r.shape[1])
    blocks = easiest_start(r, s) if init is None else np.array(init, dtype=float)
    start = blocks
    trace = [objective(blocks, r, beta0, beta1)]
    converged = False
    for _ in range(300):
        h = 1.0 / (2.0 * np.linalg.norm(np.hstack(blocks), axis=1) + 1e-8)
        descent = -gradient(blocks, r, h, beta0, beta1)
        step = exact_step(line_quartic(blocks, descent, r, h, beta0, beta1))
        candidate = blocks + step[:, None, None] * descent
        keep = surrogate(candidate, r, h, beta0, beta1) <= surrogate(blocks, r, h, beta0, beta1)
        candidate = np.where(keep[:, None, None], candidate, blocks)
        value = objective(candidate, r, beta0, beta1)
        if value > trace[-1]:
            converged = True
            break
        moved = float(np.sqrt(np.sum((candidate - blocks) ** 2)))
        blocks = candidate
        trace.append(value)
        if moved < 1e-4:
            converged = True
            break
    curriculum = extract_curriculum(blocks, s)
    moved = set(curriculum.tolist()) != set(extract_curriculum(start, s).tolist())
    return TeachingSolution(tuple(blocks), curriculum, np.asarray(trace), converged, moved)


def assert_same_solution(got, want):
    np.testing.assert_array_equal(np.stack(got.blocks), np.stack(want.blocks))
    np.testing.assert_array_equal(got.curriculum, want.curriculum)
    np.testing.assert_array_equal(got.objective_trace, want.objective_trace)
    assert got.converged == want.converged
    assert got.moved == want.moved


def test_bcd_solve_matches_the_two_guard_loop_on_random_instances():
    rng = np.random.default_rng(21)
    for m in (1, 2, 3):
        for _ in range(10):
            blocks, r_list = random_instance(rng, m=m)
            s = blocks[0].shape[1]
            beta0, beta1 = 10.0 ** rng.uniform(-1, 2, size=2)
            want = two_guard_solve(r_list, beta0, beta1, s)
            assert_same_solution(bcd_solve(r_list, beta0, beta1, s), want)


def protocol_solves(cov, seed):
    """Every selection problem one protocol run poses: (score matrices, beta0, beta1, s)."""
    dataset = synth_noisy_gaussian(100, cov, seed=seed)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=seed))
    posed = []
    real = hydent.run.bcd_solve

    def spy(r_list, beta0, beta1, s, **options):
        posed.append((r_list, beta0, beta1, s))
        return real(r_list, beta0, beta1, s, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hydent.run, "bcd_solve", spy)
        run_hydent(dataset, labeled_idx, RunConfig(seed=seed))
    return posed


def test_bcd_solve_matches_the_two_guard_loop_on_protocol_scores():
    posed = protocol_solves(1.0, 0) + protocol_solves(1.5, 3)
    assert len(posed) > 20
    for r_list, beta0, beta1, s in posed:
        assert_same_solution(bcd_solve(r_list, beta0, beta1, s), two_guard_solve(r_list, beta0, beta1, s))


def test_bcd_solve_from_random_starts_keeps_the_two_guard_curriculum():
    rng = np.random.default_rng(22)
    for m in (1, 2, 3):
        for _ in range(10):
            blocks, r_list = random_instance(rng, m=m)
            s = blocks[0].shape[1]
            got = bcd_solve(r_list, 10.0, 10.0, s, init=blocks)
            want = two_guard_solve(r_list, 10.0, 10.0, s, init=blocks)
            np.testing.assert_array_equal(got.curriculum, want.curriculum)
            assert np.all(np.diff(got.objective_trace) <= 0.0)


def test_bcd_solve_never_evaluates_the_surrogate(monkeypatch):
    # the full objective is the only descent guard; the surrogate is the
    # gradient's and the line search's oracle, not part of the solve
    def refuse(*args):
        raise AssertionError("bcd_solve called surrogate")

    monkeypatch.setattr(hydent.teaching, "surrogate", refuse)
    _, r_list = random_instance(np.random.default_rng(23), b=8, s=2, m=2)
    assert bcd_solve(r_list, 10.0, 10.0, 2).objective_trace.size > 1
