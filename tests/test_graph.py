"""Neighborhood graphs, their spectra, and commute times.

The commute-time checks lean on the classical equivalence with effective
resistance: on a connected graph both equal (e_i - e_j)^T L^+ (e_i - e_j),
which gives an independent pseudoinverse oracle for the spectral code.
"""

import numpy as np
import pytest

from hydent.graph import (
    LearnerGraph,
    assemble,
    commute_table,
    flap_style_weights,
    gaussian_weights,
    knn_pattern,
    squared_distances,
)


def random_connected_adjacency(rng, n):
    """Random weighted graph, connected by a hidden spanning chain."""
    W = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        W[a, b] = W[b, a] = rng.uniform(0.5, 2.0)
    extra = rng.random((n, n)) < 0.3
    weights = rng.uniform(0.1, 1.0, size=(n, n))
    W = np.maximum(W, np.where(extra | extra.T, 0.5 * (weights + weights.T), 0.0))
    np.fill_diagonal(W, 0.0)
    return W


def test_squared_distances_hand_values():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    sq = squared_distances(x)
    np.testing.assert_allclose(sq, [[0.0, 25.0], [25.0, 0.0]])


def test_knn_pattern_collinear_points():
    # points at 0, 1, 2.2 with k=1: 1 is nearest to both ends, 2 picks 1
    x = np.array([[0.0], [1.0], [2.2]])
    pattern = knn_pattern(squared_distances(x), 1)
    assert pattern[0, 1] and pattern[1, 0]
    assert pattern[2, 1] and pattern[1, 2]
    assert not pattern[0, 2] and not pattern[2, 0]


def test_knn_pattern_tie_prefers_lower_index():
    # node 2 sits exactly between 0 and 1; with k=1 it must link to 0
    x = np.array([[0.0], [2.0], [1.0]])
    pattern = knn_pattern(squared_distances(x), 1)
    assert pattern[2, 0]
    assert not pattern[2, 1] or pattern[1, 2]  # any 1-2 edge must come from 1's side


def test_knn_pattern_union_symmetrization():
    # 3 grouped points plus a far straggler: with k=1 nobody picks the
    # straggler, but the straggler picks its nearest, so the edge exists.
    x = np.array([[0.0], [0.1], [0.2], [9.0]])
    pattern = knn_pattern(squared_distances(x), 1)
    assert pattern[3, 2] and pattern[2, 3]
    np.testing.assert_array_equal(pattern, pattern.T)
    assert not pattern.diagonal().any()


def test_knn_pattern_full_when_k_is_n_minus_1():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 2))
    pattern = knn_pattern(squared_distances(x), 5)
    expected = ~np.eye(6, dtype=bool)
    np.testing.assert_array_equal(pattern, expected)


def test_knn_pattern_validates_k():
    sq = squared_distances(np.zeros((4, 1)))
    with pytest.raises(ValueError):
        knn_pattern(sq, 0)
    with pytest.raises(ValueError):
        knn_pattern(sq, 4)


def test_knn_pattern_leaves_distances_unchanged():
    # the run hands one distance matrix to both the kNN and the weight step
    sq = squared_distances(np.random.default_rng(1).normal(size=(7, 2)))
    before = sq.copy()
    knn_pattern(sq, 2)
    np.testing.assert_array_equal(sq, before)


def test_gaussian_weights_unit_sigma_value():
    # squared distance 2 at sigma 1 gives exp(-1)
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    pattern = np.array([[False, True], [True, False]])
    W = gaussian_weights(pattern, squared_distances(x), 1.0)
    np.testing.assert_allclose(W[0, 1], np.exp(-1.0), rtol=1e-12)
    assert W[0, 0] == 0.0 and W[1, 1] == 0.0


def test_gaussian_weights_decrease_with_distance():
    x = np.array([[0.0], [1.0], [3.0]])
    pattern = np.ones((3, 3), dtype=bool)
    W = gaussian_weights(pattern, squared_distances(x), 1.0)
    assert W[0, 1] > W[0, 2]


def test_gaussian_weights_positive_sigma_required():
    with pytest.raises(ValueError):
        gaussian_weights(np.ones((2, 2), bool), np.zeros((2, 2)), 0.0)


def test_flap_weights_two_node_example():
    # both self-loops equal the single edge weight
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    pattern = np.array([[False, True], [True, False]])
    loops = flap_style_weights(gaussian_weights(pattern, squared_distances(x), 1.0))
    np.testing.assert_allclose(loops, [np.exp(-1.0)] * 2, rtol=1e-12)


def test_flap_weights_off_diagonals_equal_gaussian():
    # each loop is the row's strongest edge, and the weights are left as they were
    sq = squared_distances(np.random.default_rng(3).normal(size=(8, 2)))
    plain = gaussian_weights(knn_pattern(sq, 3), sq, 1.0)
    before = plain.copy()
    loops = flap_style_weights(plain)
    np.testing.assert_array_equal(plain, before)
    off = ~np.eye(8, dtype=bool)
    np.testing.assert_array_equal(loops, [row[mask].max() for row, mask in zip(plain, off)])


def test_flap_weights_symmetric():
    # the looped graph stays symmetric, with a positive loop on every node
    sq = squared_distances(np.random.default_rng(4).normal(size=(10, 3)))
    plain = gaussian_weights(knn_pattern(sq, 4), sq, 0.7)
    W = plain + np.diag(flap_style_weights(plain))
    np.testing.assert_allclose(W, W.T, atol=1e-15)
    assert np.all(np.diag(W) > 0)


def test_assemble_two_node_graph():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = assemble(W)
    np.testing.assert_allclose(g.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(g.iteration, [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(np.sort(g.eigenvalues), [0.0, 2.0], atol=1e-12)


def test_assemble_row_sum_identities():
    rng = np.random.default_rng(5)
    W = random_connected_adjacency(rng, 12)
    g = assemble(W)
    np.testing.assert_allclose(g.laplacian.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(g.iteration.sum(axis=1), 1.0, atol=1e-12)
    # spectral factorization reconstructs the Laplacian
    recon = (g.eigenvectors * g.eigenvalues) @ g.eigenvectors.T
    np.testing.assert_allclose(recon, g.laplacian, atol=1e-6)


def test_assemble_laplacian_is_degree_minus_weights_bitwise():
    # zero-diagonal W: the off-diagonal construction matches D - W bit for bit,
    # signed zeros included
    rng = np.random.default_rng(6)
    W = random_connected_adjacency(rng, 15)
    assert assemble(W).laplacian.tobytes() == (np.diag(W.sum(1)) - W).tobytes()


def test_assemble_laplacian_ignores_self_loops():
    # a self-loop adds as much to D as to W, so the flap graph's Laplacian is
    # the Gaussian graph's exactly, while degree and iteration keep the loop
    sq = squared_distances(np.random.default_rng(21).normal(size=(30, 2)))
    pattern = knn_pattern(sq, 4)
    weights = gaussian_weights(pattern, sq, 0.8)
    plain = assemble(weights)
    looped = assemble(weights + np.diag(flap_style_weights(weights)))
    assert looped.laplacian.tobytes() == plain.laplacian.tobytes()
    loops = np.diag(looped.adjacency)
    assert np.all(loops > 0)
    np.testing.assert_allclose(looped.degree, plain.degree + loops, rtol=1e-14)
    np.testing.assert_array_equal(np.diag(looped.iteration), loops / looped.degree)
    np.testing.assert_allclose(looped.iteration.sum(axis=1), 1.0, atol=1e-12)


def test_assemble_rejects_bad_adjacency():
    with pytest.raises(ValueError, match="zero degree"):
        assemble(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        assemble(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        assemble(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        assemble(np.zeros((2, 3)))
    # an asymmetry counts only beyond 1e-12 * max(1, |W_ij|)
    for w, inside in ((1.0, 5e-13), (1e3, 5e-10)):
        assemble(np.array([[0.0, w], [w + inside, 0.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            assemble(np.array([[0.0, w], [w + 4.0 * inside, 0.0]]))


def test_assemble_symmetry_check_matches_dense_tolerance():
    # the check reads only the entries where W != W.T; it must accept and
    # reject exactly what the dense |W - W.T| test does, inf and nan included
    rng = np.random.default_rng(8)
    base = random_connected_adjacency(rng, 5)
    for _ in range(300):
        W = base.copy()
        i, j = rng.choice(5, size=2, replace=False)
        W[i, j] = rng.choice([W[i, j], 1e3]) + rng.choice([0.0, 3e-13, 3e-12, 3e-10, 3e-9, np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            dense = bool(np.any(np.abs(W - W.T) > 1e-12 * np.maximum(1.0, np.abs(W))))
        try:
            assemble(W)
            rejected = False
        except ValueError as err:
            rejected = "symmetric" in str(err)
        assert rejected == dense


def test_commute_time_two_node_unit_edge():
    table = commute_table(assemble(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert table[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert table[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_commute_time_series_edges_add():
    # resistances in series: path 0-1-2 with unit edges gives T(0,2)=2
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert commute_table(assemble(W))[0, 2] == pytest.approx(2.0, abs=1e-10)


def pinv_resistance(graph, i, j):
    e = np.zeros(graph.n)
    e[i], e[j] = 1.0, -1.0
    return float(e @ np.linalg.pinv(graph.laplacian) @ e)


def test_commute_time_matches_pseudoinverse_resistance():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        g = assemble(random_connected_adjacency(rng, n))
        i, j = rng.choice(n, size=2, replace=False)
        assert commute_table(g)[i, j] == pytest.approx(pinv_resistance(g, i, j), rel=1e-8)


def test_commute_table_consistent_with_pairwise():
    rng = np.random.default_rng(6)
    g = assemble(random_connected_adjacency(rng, 7))
    table = commute_table(g)
    np.testing.assert_allclose(table, table.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(table), 0.0, atol=1e-12)
    for i in range(7):
        for j in range(i + 1, 7):
            assert table[i, j] == pytest.approx(pinv_resistance(g, i, j), rel=1e-10)


def test_pseudo_diagonal_matches_pinv_and_is_cached():
    g = assemble(random_connected_adjacency(np.random.default_rng(7), 9))
    np.testing.assert_allclose(g.pseudo_diagonal, np.diag(np.linalg.pinv(g.laplacian)), rtol=1e-10)
    assert g.pseudo_diagonal is g.pseudo_diagonal


def test_learner_graph_n_property():
    g = assemble(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert isinstance(g, LearnerGraph) and g.n == 2
