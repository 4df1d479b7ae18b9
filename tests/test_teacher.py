"""Teacher-side quantities: frontier candidates, conditional reliability
from the GP precision, and commute-time discriminability.

Reliability is read from what a run computes: a fresh teacher given one
class group, whose gap term is then disabled, so ``teaching_matrix``
returns the reliability block alone.  The dense Schur complement, the
spectral prior and the spectral commute table in ``dense_oracle`` are the
references.

The two-node graph with a unit edge gives closed forms for everything:
with kappa^2 = 100 the shifted Laplacian is [[1.01, -1], [-1, 1.01]],
whose inverse has entries 1.01/0.0201 and 1/0.0201.  On a unit-weight
path the commute time between two nodes is their hop distance, so the
discriminability cases are laid out on paths.
"""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import dense_oracle as oracle
from dense_oracle import dense, graph_of
from hydent.data import synth_noisy_gaussian
from hydent.graph import assemble, components, gaussian_weights, knn_pattern, spd_inverse
from hydent.teacher import (
    GAP_FLOOR,
    TeacherState,
    candidate_set,
    gap_matrix,
    make_teacher,
    teaching_matrix,
)

TWO_NODE = np.array([[0.0, 1.0], [1.0, 0.0]])


def chain_graph(n):
    return path_graph(range(n))


def path_graph(positions):
    """Unit-weight path with node i at hop ``positions[i]``.

    Nodes numbered from ``len(positions)`` on fill the hops no listed node
    takes, in order, so the commute time between nodes i and j is
    ``abs(positions[i] - positions[j])``.
    """
    positions = list(positions)
    spare = iter(range(len(positions), max(positions) + 1))
    at = dict(zip(positions, range(len(positions))))
    order = [at[hop] if hop in at else next(spare) for hop in range(max(positions) + 1)]
    W = np.zeros((len(order), len(order)))
    for a, b in zip(order[:-1], order[1:]):
        W[a, b] = W[b, a] = 1.0
    return graph_of(W)


def random_graph(rng, n, k=3):
    return assemble(gaussian_weights(knn_pattern(rng.normal(size=(n, 2)), k), 1.0))


def reliability(graph, kappa2, candidates, anchors):
    """The candidates' reliability block given the anchors, as a fresh teacher scores it.

    One class group holds every anchor, so the gap term is zero.
    """
    return teaching_matrix(make_teacher(graph, kappa2), candidates, {0: np.asarray(anchors, dtype=int)})


def prior(graph, kappa2=100.0):
    """GP prior covariance on every node: reliability given no anchors."""
    return reliability(graph, kappa2, np.arange(graph.n), np.empty(0, dtype=int))


def loop_gaps(commute, candidates, labeled_by_class):
    """Reference: one candidate at a time, gap between the two closest class means."""
    gaps = []
    for i in candidates:
        means = sorted(float(np.mean(commute[i, members]))
                       for members in labeled_by_class.values() if len(members) > 0)
        gaps.append(max(means[1] - means[0], GAP_FLOOR))
    return np.array(gaps)


def test_covariance_two_node_closed_form():
    sigma = prior(graph_of(TWO_NODE))
    expected = np.array([[1.01, 1.0], [1.0, 1.01]]) / 0.0201
    np.testing.assert_allclose(sigma, expected, rtol=1e-10)
    np.testing.assert_allclose(sigma, [[50.2488, 49.7512], [49.7512, 50.2488]], atol=1e-4)


def test_covariance_inverts_shifted_laplacian():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 15)
    product = prior(g) @ (g.laplacian + np.eye(g.n) / 100.0)
    np.testing.assert_allclose(product, np.eye(g.n), atol=1e-8)


def test_covariance_small_kappa_limit():
    # when the prior dominates the Laplacian, Sigma collapses to kappa^2 I
    sigma = prior(chain_graph(5), kappa2=1e-6)
    np.testing.assert_allclose(sigma, 1e-6 * np.eye(5), rtol=1e-4, atol=1e-10)


def test_covariance_requires_positive_kappa():
    # NaN would score every candidate NaN, and inf fail on the first round's inverse
    for kappa2 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="kappa2 must be finite and positive"):
            make_teacher(graph_of(TWO_NODE), kappa2=kappa2)


def test_make_teacher_bundles_state():
    g = graph_of(TWO_NODE)
    teacher = make_teacher(g)
    assert isinstance(teacher, TeacherState)
    assert [f.name for f in fields(teacher)] == ["graph", "kappa2", "pinv", "free", "sigma"]
    assert teacher.kappa2 == 100.0
    assert teacher.graph is g
    # L+ is computed by make_teacher, not by the first round, and without a
    # spectrum or a Laplacian cached on the graph
    assert not {"laplacian", "_spectrum"} & set(vars(g))
    assert teacher.sigma is None and teacher.free is None
    np.testing.assert_allclose(teacher.pinv, [[0.25, -0.25], [-0.25, 0.25]], rtol=0.0, atol=1e-15)
    assert oracle.commute_times(teacher.pinv)[0, 1] == pytest.approx(1.0, abs=1e-12)


def traced_peak(call):
    """Bytes ``call()`` holds at its peak beyond what existed before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_teacher_inverses_are_made_in_place():
    # at n = 600 an out-of-place inverse holds about 2.0 n x n arrays beyond its
    # input, and make_teacher about 3.0 with L+ itself
    n = 600
    rng = np.random.default_rng(600)
    x = rng.normal(size=(n, n))
    matrix = x @ x.T / n + 0.05 * np.eye(n)
    assert traced_peak(lambda: spd_inverse(matrix)) <= 0.6 * matrix.nbytes
    g = assemble(gaussian_weights(knn_pattern(synth_noisy_gaussian(n // 2, 1.0, seed=1).features, 5), 1.0))
    assert traced_peak(lambda: make_teacher(g)) <= 1.6 * matrix.nbytes


def test_reliability_two_node_scalar():
    g = graph_of(TWO_NODE)
    rel = reliability(g, 100.0, [1], [0])
    s = prior(g)
    expected = s[1, 1] - s[1, 0] ** 2 / s[0, 0]
    assert rel.shape == (1, 1)
    assert rel[0, 0] == pytest.approx(expected, rel=1e-12)
    assert rel[0, 0] == pytest.approx(1.0 / 1.01, rel=1e-12)


@pytest.mark.parametrize("n, anchored", [(12, 2), (20, 3), (20, 17), (30, 27)])
def test_reliability_matches_schur_oracle(n, anchored):
    # few anchors, and |L| close to n where Sigma_LL is worst conditioned
    rng = np.random.default_rng(n + anchored)
    g = random_graph(rng, n)
    perm = rng.permutation(n)
    anchors, candidates = np.sort(perm[:anchored]), perm[anchored:]
    for kappa2 in (1.0, 100.0):
        rel = reliability(g, kappa2, candidates, anchors)
        expected = oracle.schur_oracle(g.laplacian, kappa2, candidates, anchors)
        # entries between blocks that anchoring disconnects are exact zeros
        # here but rounding noise in the dense oracle, hence the scaled floor
        np.testing.assert_allclose(rel, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


def two_component_graph(rng, n):
    half = n // 2
    W = np.zeros((n, n))
    for block in (slice(0, half), slice(half, n)):
        W[block, block] = dense(gaussian_weights(knn_pattern(rng.normal(size=(block.stop - block.start, 2)), 3), 1.0))
    return graph_of(W)


@pytest.mark.parametrize("seed, split, n", [(5, False, 24), (6, False, 24), (7, True, 24), (8, False, 150)],
                         ids=["5-False", "6-False", "7-True", "8-False-n150"])
def test_running_covariance_matches_schur_oracle(seed, split, n):
    # anchor nodes one at a time and in blocks until one node is left: after
    # each teaching_matrix call the downdated covariance of every free node
    # must equal the dense Schur complement.  At n = 150 the early downdates
    # rewrite three row panels of PANEL_ROWS = 64, the last one partial
    rng = np.random.default_rng(seed)
    g = two_component_graph(rng, n) if split else random_graph(rng, n)
    steps = (1, 1, 3, 1, 5)
    for kappa2 in (1.0, 100.0):
        teacher = make_teacher(g, kappa2)
        order = rng.permutation(g.n)
        count, calls = 1, 0
        while count < g.n - 1:
            count = min(count + steps[calls % len(steps)], g.n - 1)
            calls += 1
            anchors, free = order[:count], np.sort(order[count:])
            by_class = {0: anchors[::2], 1: anchors[1::2]}
            block = teaching_matrix(teacher, free[::2], by_class)
            expected = oracle.schur_oracle(g.laplacian, kappa2, free, anchors)
            np.testing.assert_array_equal(teacher.free, free)
            np.testing.assert_allclose(teacher.sigma, expected, rtol=1e-10,
                                       atol=1e-10 * np.abs(expected).max())
            np.testing.assert_allclose(block - gap_matrix(teacher, free[::2], by_class),
                                       expected[::2, ::2], rtol=1e-10,
                                       atol=1e-10 * np.abs(expected).max())
            if calls == 4:
                # anchors that are not a superset of the last call's are refused,
                # and the teacher keeps the covariance it had
                sigma = teacher.sigma.copy()
                with pytest.raises(ValueError, match="new make_teacher"):
                    teaching_matrix(teacher, free, {0: anchors[:2], 1: anchors[2:3]})
                np.testing.assert_array_equal(teacher.free, free)
                np.testing.assert_array_equal(teacher.sigma, sigma)
        assert calls >= 8


def test_reliability_rejects_anchored_candidates():
    g = chain_graph(5)
    for by_class in ({0: [0], 1: [2]}, {0: [0, 2]}, {0: [2], 1: [4]}):
        with pytest.raises(ValueError, match="candidates must not overlap the anchors"):
            teaching_matrix(make_teacher(g), [1, 2], by_class)


def test_a_teacher_only_conditions_forward():
    # a second call with the same anchors only reads the covariance, one with
    # more downdates it, and one that drops an anchor (or swaps one for
    # another) raises; a new teacher scores the smaller set
    g = chain_graph(5)
    teacher = make_teacher(g)
    first = teaching_matrix(teacher, [1, 2], {0: [0], 1: [4]})
    sigma = teacher.sigma
    np.testing.assert_array_equal(teaching_matrix(teacher, [1, 2], {0: [0], 1: [4]}), first)
    assert teacher.sigma is sigma
    teaching_matrix(teacher, [2], {0: [0, 1], 1: [4]})
    np.testing.assert_array_equal(teacher.free, [2, 3])
    for shrunk in ({0: [0], 1: [4]}, {0: [0, 1]}, {0: [0, 3], 1: [4]}):
        with pytest.raises(ValueError, match="make_teacher"):
            teaching_matrix(teacher, [2], shrunk)
        np.testing.assert_array_equal(teacher.free, [2, 3])
    np.testing.assert_array_equal(teaching_matrix(make_teacher(g), [1, 2], {0: [0], 1: [4]}), first)


@pytest.mark.parametrize("bad", [-1, 5])
def test_scoring_rejects_candidates_outside_the_graph(bad):
    # -1 once read node 2's reliability through searchsorted and node 4's gap,
    # and 5 raised a bare IndexError
    with pytest.raises(ValueError, match=rf"candidate index {bad} is outside \[0, 5\)"):
        teaching_matrix(make_teacher(chain_graph(5)), [bad], {0: [0], 1: [1]})


@pytest.mark.parametrize("bad", [-1, 5])
def test_scoring_rejects_class_members_outside_the_graph(bad):
    # a member -1 once anchored node n - 1 without a word
    with pytest.raises(ValueError, match=rf"class 1 index {bad} is outside \[0, 5\)"):
        teaching_matrix(make_teacher(chain_graph(5)), [2], {0: [0], 1: [1, bad]})


@pytest.mark.parametrize("bad", [2.5, -0.5, np.nan, np.inf])
def test_scoring_rejects_fractional_indices(bad):
    # a float index was once truncated without a word: 2.5 scored node 2
    teacher = make_teacher(chain_graph(5))
    with pytest.raises(ValueError, match=rf"candidate index {bad} is not a whole number"):
        teaching_matrix(teacher, [bad], {0: [0], 1: [4]})
    with pytest.raises(ValueError, match=rf"class 1 index {bad} is not a whole number"):
        teaching_matrix(teacher, [2], {0: [0], 1: [4, bad]})


def test_scoring_rejects_a_repeated_candidate():
    # [2, 2] once gave a 2 x 2 block whose two rows were both node 2
    with pytest.raises(ValueError, match="candidate 2 is repeated"):
        teaching_matrix(make_teacher(chain_graph(5)), [1, 2, 3, 2], {0: [0], 1: [4]})


@pytest.mark.parametrize("bad", [-1, 5])
def test_gap_matrix_rejects_indices_outside_the_graph(bad):
    # a candidate -1 once read node 4's penalty, and a member -1 averaged node 4 into its class
    teacher = make_teacher(chain_graph(5))
    with pytest.raises(ValueError, match=rf"candidate index {bad} is outside \[0, 5\)"):
        gap_matrix(teacher, [bad], {0: [0], 1: [1]})
    with pytest.raises(ValueError, match=rf"class 1 index {bad} is outside \[0, 5\)"):
        gap_matrix(teacher, [2], {0: [0], 1: [1, bad]})


def test_reliability_is_psd_and_symmetric():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 20)
    rel = reliability(g, 100.0, np.arange(5, 12), np.arange(5))
    np.testing.assert_allclose(rel, rel.T, atol=1e-12)
    assert np.linalg.eigvalsh(rel).min() > -1e-8


def test_conditioning_cannot_increase_variance():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 18)
    cand = np.array([10, 12, 15])
    rel = reliability(g, 100.0, cand, np.arange(6))
    assert np.all(np.diag(rel) <= np.diag(prior(g))[cand] + 1e-10)


def test_reliability_disjoint_components_keep_prior():
    # two separate edges: labeling one component says nothing about the other
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    g = graph_of(W)
    rel = reliability(g, 100.0, [2, 3], [0, 1])
    np.testing.assert_allclose(rel, oracle.prior(g.laplacian, 100.0)[np.ix_([2, 3], [2, 3])], atol=1e-8)
    np.testing.assert_allclose(rel, oracle.schur_oracle(g.laplacian, 100.0, [2, 3], [0, 1]), rtol=1e-10)
    np.testing.assert_allclose(
        reliability(g, 100.0, [1, 3], [0, 2]),
        oracle.schur_oracle(g.laplacian, 100.0, [1, 3], [0, 2]),
        rtol=1e-10,
    )


def test_reliability_trace_shrinks_as_labels_grow():
    # more anchors never leave the teacher less certain
    rng = np.random.default_rng(3)
    g = random_graph(rng, 20)
    cand = np.array([15, 16, 17, 18])
    prev = np.inf
    for count in (2, 4, 8, 12):
        trace = np.trace(reliability(g, 100.0, cand, np.arange(count)))
        assert trace <= prev + 1e-10
        prev = trace


def test_class_gap_second_versus_first():
    # commute times from node 3 to nodes 0, 1, 2 are 1, 3, 2
    teacher = make_teacher(path_graph([1, 3, 2, 0]))
    by_class = {0: [0], 1: [1], 2: [2]}
    np.testing.assert_allclose(gap_matrix(teacher, [3], by_class), [[1.0]])


def test_class_gap_averages_class_members():
    # commute times from node 4 to nodes 0..3 are 1, 3, 10, 20
    teacher = make_teacher(path_graph([1, 3, 10, 20, 0]))
    by_class = {0: [0, 1], 1: [2, 3]}  # means 2.0 and 15.0
    np.testing.assert_allclose(gap_matrix(teacher, [4], by_class), [[1.0 / 13.0]])


def test_class_gap_tie_floors():
    # node 2 sits halfway between nodes 0 and 1, 5 hops from each
    teacher = make_teacher(path_graph([0, 10, 5]))
    assert gap_matrix(teacher, [2], {0: [0], 1: [1]})[0, 0] == 1.0 / GAP_FLOOR


def test_class_gap_needs_two_classes():
    # One populated class gives no gap to measure; a member in a second class
    # switches the penalty on.  Commute times from node 2 are 1 and 3.
    teacher = make_teacher(path_graph([1, 3, 0]))
    np.testing.assert_array_equal(gap_matrix(teacher, [2], {0: [0], 1: []}), [[0.0]])
    np.testing.assert_allclose(gap_matrix(teacher, [2], {0: [0], 1: [1]}), [[0.5]])


def test_gap_matrix_diagonal_inverse_gaps():
    # commute times: node 2 to nodes 0, 1 are 1, 3 (gap 2); node 3's are 2, 6 (gap 4)
    teacher = make_teacher(path_graph([2, 6, 3, 0]))
    G = gap_matrix(teacher, [2, 3], {0: [0], 1: [1]})
    np.testing.assert_allclose(G, np.diag([0.5, 0.25]))


def test_gap_matrix_matches_per_candidate_loop():
    # the closed form sums in another order than the all-pairs table, so the
    # gaps agree to a tolerance: 1e-12 of the largest commute time (~4500 ulp)
    for seed, split in ((4, False), (8, False), (9, True), (10, True)):
        rng = np.random.default_rng(seed)
        g = two_component_graph(rng, 30) if split else random_graph(rng, 30)
        perm = rng.permutation(g.n)
        by_class = {0: np.sort(perm[:3]), 1: np.sort(perm[3:7]), 2: np.sort(perm[7:12]), 3: []}
        cand = perm[12:]
        G = gap_matrix(make_teacher(g), cand, by_class)
        table = oracle.commute_table(g.laplacian)
        np.testing.assert_array_equal(G, np.diag(np.diag(G)))
        np.testing.assert_allclose(1.0 / np.diag(G), loop_gaps(table, cand, by_class),
                                   rtol=0, atol=1e-12 * table.max())


def test_disconnected_protocol_input_matches_the_spectral_oracle():
    # data seed 1 at covariance 0.5 is a benchmark input whose kNN graph has
    # two components; (L + P0)^-1 - P0 must still be the spectral L+, and the
    # gaps must be the ones read off the commute table and the spectrum
    dataset = synth_noisy_gaussian(100, 0.5, seed=1)
    g = assemble(gaussian_weights(knn_pattern(dataset.features, 5), 1.0))
    labels = components(g)
    assert labels.max() == 1 and np.bincount(labels).min() > 1
    teacher = make_teacher(g)
    expected = oracle.pseudoinverse(g.laplacian)
    np.testing.assert_allclose(teacher.pinv, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
    rng = np.random.default_rng(1)
    perm = rng.permutation(g.n)
    by_class = {c: np.sort(perm[:12][dataset.labels[perm[:12]] == c]) for c in range(2)}
    cand = np.sort(perm[12:])
    gaps = 1.0 / np.diag(gap_matrix(teacher, cand, by_class))
    table = oracle.commute_table(g.laplacian)
    np.testing.assert_allclose(gaps, loop_gaps(table, cand, by_class), rtol=0, atol=1e-12 * table.max())
    means = np.sort(oracle.class_means(g.laplacian, cand, by_class), axis=1)
    np.testing.assert_allclose(gaps, np.maximum(means[:, 1] - means[:, 0], GAP_FLOOR),
                               rtol=0, atol=1e-12 * table.max())
    np.testing.assert_allclose(oracle.commute_times(teacher.pinv), table, rtol=0, atol=1e-12 * table.max())


def test_gap_matrix_disabled_with_single_class():
    teacher = make_teacher(chain_graph(3))
    for by_class in ({0: [0], 1: []}, {0: [0]}, {0: [0, 1], 1: [], 2: []}):
        G = gap_matrix(teacher, [1, 2], by_class)
        np.testing.assert_array_equal(G, np.zeros((2, 2)))


def test_teaching_matrix_is_sum_of_parts():
    g = chain_graph(6)
    teacher = make_teacher(g)
    by_class = {0: [0], 1: [5]}
    cand = [1, 4]
    R = teaching_matrix(teacher, cand, by_class)
    rel = oracle.schur_oracle(g.laplacian, 100.0, cand, [0, 5])
    G = gap_matrix(teacher, cand, by_class)
    np.testing.assert_allclose(R, rel + G, atol=1e-12)


def anchored_mask(n, anchors):
    """The boolean mask a run keeps: True at each anchored (labeled or learned) node."""
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(anchors, dtype=int)] = True
    return mask


def test_candidate_set_frontier_on_chain():
    g = chain_graph(5)
    np.testing.assert_array_equal(candidate_set(g, anchored_mask(5, [0])), [1])
    np.testing.assert_array_equal(candidate_set(g, anchored_mask(5, [0, 1])), [2])


def test_candidate_set_promotes_all_when_disconnected():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    g = graph_of(W)
    np.testing.assert_array_equal(candidate_set(g, anchored_mask(4, [0, 1])), [2, 3])


def test_candidate_set_edge_cases():
    g = chain_graph(3)
    assert candidate_set(g, np.ones(3, dtype=bool)).size == 0
    with pytest.raises(ValueError, match="labeled set must be nonempty"):
        candidate_set(g, np.zeros(3, dtype=bool))


def test_candidate_set_rejects_anything_but_a_mask_of_every_node():
    # index lists once let a labeled node become a candidate ([0, 1] with [1, 2]),
    # a repeated node come back twice, or a node next to the labeled set be
    # promoted as if the frontier were disconnected; a mask can say none of these
    g = chain_graph(4)
    for bad in ([0, 1], np.array([0, 1, 2, 3]), np.ones(4), [True, False, False],
                np.zeros(5, dtype=bool), np.zeros((4, 1), dtype=bool)):
        with pytest.raises(ValueError, match="mask of 4 booleans"):
            candidate_set(g, bad)


def test_candidate_set_matches_the_dense_frontier():
    # random anchored sets on random kNN graphs, a two-component graph, and
    # a graph whose kNN pattern has edges that underflow: such an edge
    # (weight 0 in the dense weights) links no candidate
    rng = np.random.default_rng(50)
    x = np.array([[0.0], [0.1], [0.2], [39.2], [39.3], [39.4]])
    underflow = gaussian_weights(knn_pattern(x, 3), 1.0)
    sq = oracle.squared_distances(x)
    graphs = [(assemble(underflow), oracle.gaussian_weights(oracle.knn_pattern(sq, 3), sq, 1.0)),
              (two_component_graph(rng, 30), None)]
    graphs += [(random_graph(rng, 40, k), None) for k in (1, 3, 6)]
    for g, W in graphs:
        W = dense((g.indptr, g.indices, g.adjacency)) if W is None else W
        for _ in range(20):
            order = rng.permutation(g.n)
            labeled = np.sort(order[: rng.integers(1, g.n)])
            unlabeled = order[labeled.size:]
            np.testing.assert_array_equal(candidate_set(g, anchored_mask(g.n, labeled)),
                                          oracle.candidate_set(W, labeled, unlabeled))
    # the underflowed edges {0,3}, {1,3}, {2,3}, {2,4}, {2,5} make no frontier
    np.testing.assert_array_equal(candidate_set(assemble(underflow), anchored_mask(6, [0, 1, 2])), [3, 4, 5])
    np.testing.assert_array_equal(candidate_set(assemble(underflow), anchored_mask(6, [0, 1, 3])), [2, 4, 5])
