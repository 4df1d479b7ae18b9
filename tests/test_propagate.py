"""Label-state updates, the steady-state closure, and final readout."""

import numpy as np
import pytest

from hydent.graph import assemble
from hydent.propagate import (
    final_labels,
    init_labels,
    propagate_round,
    steady_state,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_iteration(rng, n):
    W = rng.random((n, n)) + 0.05
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    return assemble(W).iteration


def test_init_labels_one_hot_and_uniform():
    labels = np.array([0, -1, 2, -1])
    F = init_labels(labels, 3)
    np.testing.assert_allclose(F[0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(F[1], [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(F[2], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(F.sum(axis=1), 1.0)


def test_init_labels_validation():
    with pytest.raises(ValueError):
        init_labels(np.array([0, -1]), 1)
    with pytest.raises(ValueError):
        init_labels(np.array([0, 3]), 3)


def test_propagate_round_two_node_adoption():
    # unlabeled node 1 copies its only neighbor's one-hot row
    initial = init_labels(np.array([0, -1]), 2)
    F = propagate_round(
        initial,
        [SWAP],
        curriculum=np.array([1]),
        weights=np.array([[1.0]]),
        learned=np.array([], dtype=int),
        initial=initial,
    )
    np.testing.assert_allclose(F[1], [1.0, 0.0])
    np.testing.assert_array_equal(F[0], initial[0])


def test_propagate_round_untouched_rows_keep_initial_bits():
    rng = np.random.default_rng(21)
    initial = init_labels(np.array([0, -1, -1, 1, -1]), 2)
    p = random_iteration(rng, 5)
    F = propagate_round(
        initial,
        [p],
        curriculum=np.array([2]),
        weights=np.array([[1.0]]),
        learned=np.array([], dtype=int),
        initial=initial,
    )
    # frozen rows must be exactly the initial values, not merely close
    for frozen in (0, 1, 3, 4):
        assert np.array_equal(F[frozen], initial[frozen])


def test_propagate_round_weights_blend_learners():
    # two learners that pull node 2 toward different neighbors
    pa = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    pb = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    initial = init_labels(np.array([0, 1, -1]), 2)
    F = propagate_round(
        initial,
        [pa, pb],
        curriculum=np.array([2]),
        weights=np.array([[0.25, 0.75]]),
        learned=np.array([], dtype=int),
        initial=initial,
    )
    # 0.25 of row (1,0) plus 0.75 of row (0,1)
    np.testing.assert_allclose(F[2], [0.25, 0.75])


def test_propagate_round_learned_rows_average_uniformly():
    pa = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    pb = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    initial = init_labels(np.array([0, 1, -1]), 2)
    F = propagate_round(
        initial,
        [pa, pb],
        curriculum=np.array([], dtype=int),
        weights=np.empty((0, 2)),
        learned=np.array([2]),
        initial=initial,
    )
    np.testing.assert_allclose(F[2], [0.5, 0.5])


def test_propagate_round_rejects_overlap():
    initial = init_labels(np.array([0, -1, -1]), 2)
    p = np.eye(3)
    with pytest.raises(ValueError):
        propagate_round(initial, [p], np.array([1]), np.array([[1.0]]), np.array([1]), initial)


def test_propagate_round_row_sums_stay_one():
    rng = np.random.default_rng(22)
    n = 12
    labels = np.full(n, -1)
    labels[:2] = [0, 1]
    F = init_labels(labels, 2)
    initial = F.copy()
    learned = np.array([], dtype=int)
    iterations = [random_iteration(rng, n), random_iteration(rng, n)]
    for batch in (np.array([2, 3, 4]), np.array([5, 6]), np.array([7, 8, 9, 10, 11])):
        weights = rng.dirichlet(np.ones(2), size=batch.size)
        F = propagate_round(F, iterations, batch, weights, learned, initial)
        learned = np.concatenate([learned, batch])
        np.testing.assert_allclose(F.sum(axis=1), 1.0, atol=1e-9)


def test_steady_state_theta_zero_is_identity():
    rng = np.random.default_rng(23)
    p = random_iteration(rng, 6)
    F = rng.dirichlet(np.ones(3), size=6)
    np.testing.assert_allclose(steady_state(p, F, theta=0.0), F, atol=1e-12)


def test_steady_state_constant_rows_are_fixed():
    rng = np.random.default_rng(24)
    p = random_iteration(rng, 5)
    F = np.tile([0.2, 0.8], (5, 1))
    np.testing.assert_allclose(steady_state(p, F, theta=0.05), F, atol=1e-10)


def test_steady_state_two_node_closed_form():
    F = np.eye(2)
    out = steady_state(SWAP, F, theta=0.05)
    # (I - 0.05 P)^-1 = [[1, 0.05], [0.05, 1]] / (1 - 0.0025)
    expected = 0.95 / 0.9975 * np.array([[1.0, 0.05], [0.05, 1.0]])
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_steady_state_preserves_row_sums():
    rng = np.random.default_rng(25)
    p = random_iteration(rng, 9)
    F = rng.dirichlet(np.ones(4), size=9)
    out = steady_state(p, F, theta=0.05)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-8)
    residual = (np.eye(9) - 0.05 * p) @ out - 0.95 * F
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(F)


def test_steady_state_theta_bounds():
    p = SWAP
    F = np.eye(2)
    with pytest.raises(ValueError):
        steady_state(p, F, theta=1.0)
    with pytest.raises(ValueError):
        steady_state(p, F, theta=-0.1)


def test_final_labels_argmax_and_pinning():
    scores = np.array([[0.2, 0.7, 0.1], [0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])
    labels = np.array([-1, -1, 0])  # row 2 was given class 0, argmax says 2
    out = final_labels(scores, labels)
    np.testing.assert_array_equal(out, [1, 0, 0])  # tie at row 1 goes to class 0
