"""Neighborhood graphs, their components, pseudoinverses and commute times.

The sparse graph core is checked against the dense code it replaced
(``dense_oracle``), and the Cholesky-based L+ against both numpy's
``pinv`` and the spectral formula it replaced.  The commute-time checks
lean on the classical equivalence with effective resistance: on a
connected graph both equal (e_i - e_j)^T L^+ (e_i - e_j).
"""

from collections import deque


import numpy as np
import pytest

import dense_oracle as oracle
import hydent.graph
from dense_oracle import dense, graph_of, sparse
from hydent import synth_noisy_gaussian
from hydent.graph import (
    Edges,
    INVERSE_BLOCK,
    LearnerGraph,
    assemble,
    components,
    flap_style_weights,
    gaussian_weights,
    knn_pattern,
    pseudoinverse,
    spd_inverse,
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


def pattern_of(edges):
    """The stored entries of CSR rows as a boolean matrix (a zero distance is still an edge)."""
    return dense(edges._replace(values=np.ones(edges.indices.size))) > 0


def test_squared_distances_hand_values():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(oracle.squared_distances(x), [[0.0, 25.0], [25.0, 0.0]])
    np.testing.assert_array_equal(dense(knn_pattern(x, 1)), [[0.0, 25.0], [25.0, 0.0]])


def test_knn_pattern_collinear_points():
    # points at 0, 1, 2.2 with k=1: 1 is nearest to both ends, 2 picks 1
    pattern = pattern_of(knn_pattern(np.array([[0.0], [1.0], [2.2]]), 1))
    assert pattern[0, 1] and pattern[1, 0]
    assert pattern[2, 1] and pattern[1, 2]
    assert not pattern[0, 2] and not pattern[2, 0]


def test_knn_pattern_tie_prefers_lower_index():
    # node 2 sits exactly between 0 and 1; with k=1 it must link to 0
    pattern = pattern_of(knn_pattern(np.array([[0.0], [2.0], [1.0]]), 1))
    assert pattern[2, 0]
    assert not pattern[2, 1] or pattern[1, 2]  # any 1-2 edge must come from 1's side


def test_knn_pattern_union_symmetrization():
    # 3 grouped points plus a far straggler: with k=1 nobody picks the
    # straggler, but the straggler picks its nearest, so the edge exists.
    edges = knn_pattern(np.array([[0.0], [0.1], [0.2], [9.0]]), 1)
    pattern = pattern_of(edges)
    assert pattern[3, 2] and pattern[2, 3]
    np.testing.assert_array_equal(pattern, pattern.T)
    assert not pattern.diagonal().any()
    np.testing.assert_array_equal(dense(edges), dense(edges).T)


def test_knn_pattern_full_when_k_is_n_minus_1():
    x = np.random.default_rng(0).normal(size=(6, 2))
    np.testing.assert_array_equal(pattern_of(knn_pattern(x, 5)), ~np.eye(6, dtype=bool))


def test_knn_pattern_validates_k():
    x = np.zeros((4, 1))
    with pytest.raises(ValueError):
        knn_pattern(x, 0)
    with pytest.raises(ValueError):
        knn_pattern(x, 4)
    # RunConfig's rule: a bool or a float is no k, a numpy integer is
    for k in (True, 2.0, 2.5):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            knn_pattern(x, k)
    assert knn_pattern(x, np.int64(2)).indptr.size == 5


def test_knn_pattern_leaves_distances_unchanged():
    # each edge carries the dense squared distance bit for bit, and the
    # features are left as they were
    x = np.random.default_rng(1).normal(size=(40, 2))
    before = x.copy()
    edges = knn_pattern(x, 3)
    np.testing.assert_array_equal(x, before)
    pattern = pattern_of(edges)
    assert dense(edges)[pattern].tobytes() == oracle.squared_distances(x)[pattern].tobytes()


def knn_cases():
    """(name, features, k) covering ties, duplicates and d > 2."""
    rng = np.random.default_rng(40)
    grid = np.stack(np.meshgrid(np.arange(7.0), np.arange(6.0)), axis=-1).reshape(-1, 2)
    yield "random", rng.normal(size=(97, 2)), 5
    yield "duplicates", np.repeat(rng.normal(size=(20, 2)), 3, axis=0)[rng.permutation(60)], 4
    yield "grid ties", grid[rng.permutation(grid.shape[0])], 5
    yield "grid ties d=3", rng.integers(0, 3, size=(50, 3)).astype(float), 6
    yield "d=5", rng.normal(size=(80, 5)), 5
    # from 8 columns on, numpy adds a distance's squares in eight interleaved partial sums
    yield "d=17", rng.normal(size=(60, 17)), 4


SWEEPS = [
    pytest.param(hydent.graph.CHUNK_ENTRIES, hydent.graph.SWEEP_BLOCK, id="262144"),
    # 230 entries give chunks of a few rows, none a multiple of n
    pytest.param(230, hydent.graph.SWEEP_BLOCK, id="230"),
    # blocks of a few rows in windows narrower than n, doubling until final
    pytest.param(hydent.graph.CHUNK_ENTRIES, 2, id="block2"),
    pytest.param(hydent.graph.CHUNK_ENTRIES, 5, id="block5"),
    pytest.param(230, 3, id="block3-230"),
]


def check_against_the_dense_stable_sort(name, x, k):
    """knn_pattern's edges are the stable-sort oracle's, in CSR rows, with the oracle's distances bit for bit."""
    edges = knn_pattern(x, k)
    sq = oracle.squared_distances(x)
    expected = oracle.knn_pattern(sq, k)
    np.testing.assert_array_equal(pattern_of(edges), expected, err_msg=name)
    # CSR rows: columns ascending within each row, no self-edges
    rows = np.repeat(np.arange(x.shape[0]), np.diff(edges.indptr))
    assert np.all(np.diff(rows * x.shape[0] + edges.indices) > 0), name
    np.testing.assert_array_equal(dense(edges)[expected], sq[expected], err_msg=name)


def check_brute_force_equals_the_sweep(monkeypatch, x, k):
    """Blocks so wide that every window holds all rows (brute force, the sweep's limit case) give the same edges, bit for bit."""
    swept = knn_pattern(x, k)
    with monkeypatch.context() as patch:
        patch.setattr(hydent.graph, "SWEEP_BLOCK", x.shape[0])
        brute = knn_pattern(x, k)
    for got, want in zip(swept, brute):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("chunk_entries, sweep_block", SWEEPS)
def test_knn_pattern_matches_the_dense_stable_sort(monkeypatch, chunk_entries, sweep_block):
    monkeypatch.setattr(hydent.graph, "CHUNK_ENTRIES", chunk_entries)
    monkeypatch.setattr(hydent.graph, "SWEEP_BLOCK", sweep_block)
    for name, x, k in knn_cases():
        check_against_the_dense_stable_sort(name, x, k)


def spy_on_windows(monkeypatch):
    """Record (rows, window width) of every product knn_pattern's sweep asks for."""
    calls = []
    nearest = hydent.graph._nearest

    def spy(features, norms, margin, rows, cols, k, scratch):
        calls.append((rows.copy(), cols.size))
        return nearest(features, norms, margin, rows, cols, k, scratch)

    monkeypatch.setattr(hydent.graph, "_nearest", spy)
    return calls


def long_cases():
    """(name, features, k): ties, duplicates and d > 2 spread along one feature, so windows stay narrow."""
    rng = np.random.default_rng(41)
    grid = np.stack(np.meshgrid(np.arange(20.0), np.arange(15.0)), axis=-1).reshape(-1, 2)
    yield "duplicates", np.repeat(rng.normal(size=(100, 2)), 3, axis=0)[rng.permutation(300)], 4
    yield "grid ties", grid[rng.permutation(grid.shape[0])], 5
    yield "grid ties d=3", rng.integers(0, [40, 3, 3], size=(400, 3)).astype(float), 6
    yield "d=5", rng.normal(size=(400, 5)) * [20.0, 1.0, 1.0, 1.0, 1.0], 5


def test_knn_pattern_sweep_takes_every_path(monkeypatch):
    # blocks of two rows: on each input some windows are narrower than n,
    # some rows are not final in their first window and are computed again in
    # a wider one, and a lone pending row makes a product of one row;
    # on knn_cases the sweep also reaches windows of all n rows
    monkeypatch.setattr(hydent.graph, "SWEEP_BLOCK", 2)
    calls = spy_on_windows(monkeypatch)
    for name, x, k in long_cases():
        calls.clear()
        check_against_the_dense_stable_sort(name, x, k)
        n = x.shape[0]
        assert any(width < n for _, width in calls), name
        assert sum(rows.size for rows, _ in calls) > n, name
        assert any(rows.size == 1 for rows, _ in calls), name
    for name, x, k in knn_cases():
        calls.clear()
        knn_pattern(x, k)
        assert any(width == x.shape[0] for _, width in calls), name


@pytest.mark.parametrize("covariance", [0.5, 1.0, 1.5])
def test_knn_pattern_matches_the_dense_stable_sort_at_n2000(monkeypatch, covariance):
    x = synth_noisy_gaussian(1000, covariance, seed=7).features
    check_against_the_dense_stable_sort(f"covariance {covariance}", x, 5)
    check_brute_force_equals_the_sweep(monkeypatch, x, 5)


@pytest.mark.parametrize("half", [502, 503])
def test_knn_pattern_matches_the_dense_stable_sort_at_n1004_and_n1006(monkeypatch, half):
    # widths where a product's last columns once rounded apart from the rest
    x = synth_noisy_gaussian(half, 1.0, seed=1).features
    check_against_the_dense_stable_sort(f"n = {2 * half}", x, 5)
    check_brute_force_equals_the_sweep(monkeypatch, x, 5)


def test_knn_pattern_ignores_a_shift_of_the_features():
    # far from the origin the product form cancels; distances taken on the
    # centred features pick the same edges as for the unshifted input
    x = synth_noisy_gaussian(1000, 1.0, seed=1).features
    edges, shifted = knn_pattern(x, 5), knn_pattern(x + 1e7, 5)
    np.testing.assert_array_equal(shifted.indptr, edges.indptr)
    np.testing.assert_array_equal(shifted.indices, edges.indices)


def test_knn_pattern_computes_a_fraction_of_the_distances(monkeypatch):
    # two blobs in the plane at n = 2000: the sweep evaluates fewer than a
    # quarter of the n^2 squared distances, and one product covers every row
    # at n = 200
    calls = spy_on_windows(monkeypatch)
    knn_pattern(synth_noisy_gaussian(1000, 1.0, seed=1).features, 5)
    assert sum(rows.size * width for rows, width in calls) < 2000 ** 2 / 4
    calls.clear()
    knn_pattern(synth_noisy_gaussian(100, 1.0, seed=1).features, 5)
    assert [(rows.size, width) for rows, width in calls] == [(200, 200)]


def test_knn_pattern_keeps_products_within_chunk_entries(monkeypatch):
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        products.append(a.shape[0] * b.shape[1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    knn_pattern(synth_noisy_gaussian(1000, 1.0, seed=1).features, 5)
    assert products and max(products) <= hydent.graph.CHUNK_ENTRIES


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_pattern_rejects_non_finite_features(bad):
    x = np.random.default_rng(2).normal(size=(10, 2))
    x[6, 1] = bad
    with pytest.raises(ValueError, match="row 6: non-finite feature value"):
        knn_pattern(x, 3)


def test_knn_pattern_rejects_features_whose_squared_norm_overflows():
    x = np.random.default_rng(2).normal(size=(10, 2))
    x[4] = [1e200, 0.0]
    with pytest.raises(ValueError, match="row 4: squared norm overflows"):
        knn_pattern(x, 3)


@pytest.mark.parametrize("shape", [(10,), (2, 5, 2), ()])
def test_knn_pattern_rejects_features_that_are_not_2d(shape):
    with pytest.raises(ValueError, match="2-D"):
        knn_pattern(np.zeros(shape), 1)


def test_gaussian_weights_unit_sigma_value():
    # squared distance 2 at sigma 1 gives exp(-1)
    W = dense(gaussian_weights(knn_pattern(np.array([[0.0, 0.0], [1.0, 1.0]]), 1), 1.0))
    np.testing.assert_allclose(W[0, 1], np.exp(-1.0), rtol=1e-12)
    assert W[0, 0] == 0.0 and W[1, 1] == 0.0


def test_gaussian_weights_decrease_with_distance():
    W = dense(gaussian_weights(knn_pattern(np.array([[0.0], [1.0], [3.0]]), 2), 1.0))
    assert W[0, 1] > W[0, 2] > 0.0


def test_gaussian_weights_positive_sigma_required():
    with pytest.raises(ValueError):
        gaussian_weights(knn_pattern(np.zeros((2, 1)), 1), 0.0)


def test_gaussian_weights_and_degrees_match_the_dense_oracle():
    for name, x, k in knn_cases():
        sq = oracle.squared_distances(x)
        expected = oracle.assemble(oracle.gaussian_weights(oracle.knn_pattern(sq, k), sq, 0.8))
        graph = assemble(gaussian_weights(knn_pattern(x, k), 0.8))
        np.testing.assert_allclose(dense(sparse(expected.adjacency)), expected.adjacency, err_msg=name)
        np.testing.assert_allclose(dense((graph.indptr, graph.indices, graph.adjacency)), expected.adjacency,
                                   rtol=0.0, atol=1e-15, err_msg=name)
        np.testing.assert_allclose(graph.degree, expected.degree, rtol=1e-15, atol=0.0, err_msg=name)
        np.testing.assert_allclose(dense((graph.indptr, graph.indices, graph.iteration)), expected.iteration,
                                   rtol=0.0, atol=1e-15, err_msg=name)
        assert graph.laplacian.tobytes() == expected.laplacian.tobytes(), name


def test_gaussian_weights_drop_edges_that_underflow():
    # two clusters 39 apart with k=3: each node's third neighbor is across the
    # gap, and exp(-39^2 / 2) underflows at sigma 1, so those edges are none
    x = np.array([[0.0], [0.1], [0.2], [39.2], [39.3], [39.4]])
    edges = knn_pattern(x, 3)
    weights = gaussian_weights(edges, 1.0)
    left = np.arange(6) < 3
    across = left[:, None] != left[None, :]
    assert pattern_of(edges)[across].sum() == 10  # {0,3}, {1,3}, {2,3}, {2,4}, {2,5} both ways
    kept = pattern_of(weights)
    assert not kept[across].any() and np.all(weights.values > 0.0)
    np.testing.assert_array_equal(kept, pattern_of(edges) & ~across)
    np.testing.assert_array_equal(dense(weights)[kept], np.exp(-dense(edges)[kept] / 2.0))
    with pytest.raises(ValueError, match=r"sigma=0\.001 .* node 0 "):
        gaussian_weights(edges, 0.001)


def test_flap_weights_two_node_example():
    # both self-loops equal the single edge weight
    weights = gaussian_weights(knn_pattern(np.array([[0.0, 0.0], [1.0, 1.0]]), 1), 1.0)
    np.testing.assert_allclose(flap_style_weights(weights), [np.exp(-1.0)] * 2, rtol=1e-12)


def test_flap_weights_off_diagonals_equal_gaussian():
    # each loop is the row's strongest edge, and the weights are left as they were
    plain = gaussian_weights(knn_pattern(np.random.default_rng(3).normal(size=(8, 2)), 3), 1.0)
    before = dense(plain)
    loops = flap_style_weights(plain)
    np.testing.assert_array_equal(dense(plain), before)
    np.testing.assert_array_equal(loops, oracle.flap_style_weights(before))


def test_flap_weights_symmetric():
    # the looped graph stays symmetric, with a positive loop on every node
    plain = dense(gaussian_weights(knn_pattern(np.random.default_rng(4).normal(size=(10, 3)), 4), 0.7))
    W = plain + np.diag(oracle.flap_style_weights(plain))
    np.testing.assert_allclose(W, W.T, atol=1e-15)
    assert np.all(np.diag(W) > 0)


def test_flap_weights_reject_a_row_without_edges():
    # reduceat would hand row 1 the next row's weight
    with pytest.raises(ValueError, match="node 1 has no edges"):
        flap_style_weights(Edges(np.array([0, 1, 1, 2]), np.array([2, 0]), np.array([0.5, 0.5])))


def test_assemble_two_node_graph():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(g.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(g.indices, [1, 0])
    np.testing.assert_allclose(g.iteration, [1.0, 1.0])
    np.testing.assert_allclose(np.sort(g.eigenvalues), [0.0, 2.0], atol=1e-12)


def test_assemble_row_sum_identities():
    rng = np.random.default_rng(5)
    W = random_connected_adjacency(rng, 12)
    g = graph_of(W)
    expected = oracle.assemble(W)
    np.testing.assert_allclose(g.laplacian.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(g.product(g.iteration, np.ones((12, 1))), 1.0, atol=1e-12)
    np.testing.assert_allclose(g.degree, expected.degree, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(dense((g.indptr, g.indices, g.iteration)), expected.iteration, rtol=0.0, atol=1e-15)
    # spectral factorization reconstructs the Laplacian
    recon = (g.eigenvectors * g.eigenvalues) @ g.eigenvectors.T
    np.testing.assert_allclose(recon, g.laplacian, atol=1e-6)


def test_graph_product_matches_the_dense_product():
    rng = np.random.default_rng(9)
    W = random_connected_adjacency(rng, 15)
    g = graph_of(W)
    F = rng.random((15, 3))
    np.testing.assert_allclose(g.product(g.adjacency, F), W @ F, rtol=1e-14)
    np.testing.assert_allclose(g.product(g.iteration, F), oracle.assemble(W).iteration @ F, rtol=1e-14)


def test_assemble_laplacian_is_degree_minus_weights_bitwise():
    # zero-diagonal W: the off-diagonal construction matches D - W bit for bit,
    # signed zeros included
    rng = np.random.default_rng(6)
    W = random_connected_adjacency(rng, 15)
    assert graph_of(W).laplacian.tobytes() == (np.diag(W.sum(1)) - W).tobytes()


def test_assemble_laplacian_ignores_self_loops():
    # a self-loop adds as much to D as to W, so the flap graph's Laplacian is
    # the Gaussian graph's exactly, while degree and iteration keep the loop
    weights = gaussian_weights(knn_pattern(np.random.default_rng(21).normal(size=(30, 2)), 4), 0.8)
    plain = assemble(weights)
    loops = flap_style_weights(weights)
    looped = graph_of(dense(weights) + np.diag(loops))
    assert looped.laplacian.tobytes() == plain.laplacian.tobytes()
    assert np.all(loops > 0)
    np.testing.assert_allclose(looped.degree, plain.degree + loops, rtol=1e-14)
    iteration = dense((looped.indptr, looped.indices, looped.iteration))
    np.testing.assert_array_equal(np.diag(iteration), loops / looped.degree)
    np.testing.assert_allclose(iteration.sum(axis=1), 1.0, atol=1e-12)


def test_assemble_rejects_bad_adjacency():
    with pytest.raises(ValueError, match="zero degree"):
        graph_of(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        graph_of(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        graph_of(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        graph_of(np.ones((2, 3)))
    with pytest.raises(ValueError, match="CSR rows"):
        assemble(Edges(np.array([0, 2, 1]), np.array([1, 0]), np.ones(2)))
    with pytest.raises(ValueError, match="ascend"):
        assemble(Edges(np.array([0, 2, 3]), np.array([1, 0, 0]), np.ones(3)))
    # an asymmetry counts only beyond 1e-12 * max(1, |W_ij|)
    for w, inside in ((1.0, 5e-13), (1e3, 5e-10)):
        graph_of(np.array([[0.0, w], [w + inside, 0.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            graph_of(np.array([[0.0, w], [w + 4.0 * inside, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assemble_rejects_non_finite_weights(bad):
    # a symmetric pair passes the symmetry test, and would leave degree and
    # iteration non-finite
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    W[1, 2] = W[2, 1] = bad
    with pytest.raises(ValueError, match=r"edge \(1, 2\): non-finite weight"):
        graph_of(W)


def test_assemble_symmetry_check_matches_dense_tolerance():
    # the check compares each stored entry with its mirror; it must accept and
    # reject exactly what the dense |W - W.T| test does, inf and nan included
    rng = np.random.default_rng(8)
    base = random_connected_adjacency(rng, 5)
    for _ in range(300):
        W = base.copy()
        i, j = rng.choice(5, size=2, replace=False)
        W[i, j] = rng.choice([W[i, j], 1e3]) + rng.choice([0.0, 3e-13, 3e-12, 3e-10, 3e-9, np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            dense_verdict = bool(np.any(np.abs(W - W.T) > 1e-12 * np.maximum(1.0, np.abs(W))))
        try:
            graph_of(W)
            rejected = False
        except ValueError as err:
            rejected = "symmetric" in str(err)
        assert rejected == dense_verdict


def commute_table(graph):
    """All-pairs commute times read off the L+ a teacher holds."""
    return oracle.commute_times(pseudoinverse(graph))


def test_commute_time_two_node_unit_edge():
    table = commute_table(graph_of([[0.0, 1.0], [1.0, 0.0]]))
    assert table[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert table[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_commute_time_series_edges_add():
    # resistances in series: path 0-1-2 with unit edges gives T(0,2)=2
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert commute_table(graph_of(W))[0, 2] == pytest.approx(2.0, abs=1e-10)


def pinv_resistance(graph, i, j):
    e = np.zeros(graph.n)
    e[i], e[j] = 1.0, -1.0
    return float(e @ np.linalg.pinv(graph.laplacian) @ e)


def test_commute_time_matches_pseudoinverse_resistance():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        g = graph_of(random_connected_adjacency(rng, n))
        i, j = rng.choice(n, size=2, replace=False)
        assert commute_table(g)[i, j] == pytest.approx(pinv_resistance(g, i, j), rel=1e-8)


def test_commute_table_consistent_with_pairwise():
    rng = np.random.default_rng(6)
    g = graph_of(random_connected_adjacency(rng, 7))
    table = commute_table(g)
    np.testing.assert_allclose(table, table.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(table), 0.0, atol=1e-12)
    for i in range(7):
        for j in range(i + 1, 7):
            assert table[i, j] == pytest.approx(pinv_resistance(g, i, j), rel=1e-10)


def test_pseudoinverse_matches_numpy_pinv():
    # connected, and three components (the middle one a lone pair): (L + P0)^-1 - P0
    # is the Moore-Penrose pseudoinverse and the spectral U diag(h) U^T alike
    rng = np.random.default_rng(7)
    parts = [random_connected_adjacency(rng, size) for size in (9, 2, 5)]
    split = np.zeros((16, 16))
    split[:9, :9], split[9:11, 9:11], split[11:, 11:] = parts
    for W in (parts[0], split):
        g = graph_of(W)
        pinv = pseudoinverse(g)
        # the graph caches neither a Laplacian nor a spectrum for it
        assert not {"laplacian", "_spectrum"} & set(vars(g))
        np.testing.assert_allclose(pinv, np.linalg.pinv(g.laplacian), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(pinv, oracle.pseudoinverse(g.laplacian), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(pinv), oracle.pseudo_diagonal(g.laplacian), rtol=1e-12)
        assert np.array_equal(pinv, pinv.T)


@pytest.mark.parametrize("size", [1, 2, INVERSE_BLOCK - 1, INVERSE_BLOCK, INVERSE_BLOCK + 1, 257, 513, 1000])
def test_spd_inverse_matches_numpy_inv(size):
    # sizes around the Cholesky leaf, one that splits unevenly three levels
    # deep, and two the halves split four levels deep
    rng = np.random.default_rng(size)
    x = rng.normal(size=(size, size))
    matrix = x @ x.T / size + 0.05 * np.eye(size)
    before = matrix.copy()
    inverse = spd_inverse(matrix)
    # the inverse is written over the argument
    assert inverse is matrix
    np.testing.assert_allclose(inverse, np.linalg.inv(before), rtol=0.0, atol=1e-10 * np.abs(inverse).max())
    np.testing.assert_allclose(inverse @ before, np.eye(size), atol=1e-9)
    assert np.array_equal(inverse, inverse.T)


def test_spd_inverse_rejects_an_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # positive definite in each half, but not in the Schur complement of the first
    size, half = INVERSE_BLOCK + 44, (INVERSE_BLOCK + 44) // 2
    matrix = np.eye(size)
    matrix[half:, :half] = matrix[:half, half:] = 2.0 * np.eye(half)
    assert np.linalg.eigvalsh(matrix).min() < 0.0
    with pytest.raises(np.linalg.LinAlgError):
        spd_inverse(matrix)


def test_spd_inverse_refuses_an_argument_it_cannot_overwrite():
    # an integer array would take the inverse truncated to integers
    for matrix in (np.eye(3, dtype=int), [[2.0, 0.0], [0.0, 2.0]], np.ones((2, 3))):
        with pytest.raises(ValueError, match="square float64 array"):
            spd_inverse(matrix)


def bfs_components(W):
    """Reference: components by breadth-first search over the positive weights."""
    n = W.shape[0]
    labels = np.full(n, -1)
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for other in np.flatnonzero(W[node] > 0):
                if labels[other] < 0:
                    labels[other] = count
                    queue.append(other)
        count += 1
    return labels


def test_components_match_breadth_first_search():
    # sparse random graphs with isolated pairs planted, nodes shuffled so
    # components interleave; every node keeps an edge, as assemble requires
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        W = np.where(rng.random((n, n)) < rng.uniform(0.0, 0.15), rng.uniform(0.1, 1.0, (n, n)), 0.0)
        W = np.triu(W, 1)
        W = W + W.T
        lonely = np.flatnonzero(W.sum(axis=1) == 0)
        for a, b in zip(lonely[0::2], lonely[1::2]):
            W[a, b] = W[b, a] = 1.0
        if lonely.size % 2:
            a = lonely[-1]
            b = (a + 1) % n
            W[a, b] = W[b, a] = 1.0
        order = rng.permutation(n)
        W = W[np.ix_(order, order)]
        np.testing.assert_array_equal(components(graph_of(W)), bfs_components(W), err_msg=f"trial {trial}")


def test_components_ignore_zero_weight_edges_and_self_loops():
    # a stored edge of weight 0 is no edge of the Laplacian, and a loop joins nothing
    edges = Edges(np.array([0, 2, 4, 6, 8]), np.array([0, 1, 0, 2, 1, 3, 2, 3]),
                  np.array([1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(components(assemble(edges)), [0, 0, 1, 1])


def test_learner_graph_n_property():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    assert isinstance(g, LearnerGraph) and g.n == 2
