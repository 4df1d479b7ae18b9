"""Label-state updates, the steady-state closure, and final readout.

A learner is a stay vector over the run's one iteration matrix.  The flap
oracles check that form, as a run builds it, against the dense graph flap
used to be built as: the Gaussian weights plus a diagonal of self-loops,
assembled on their own.  The sparse product and the conjugate-gradient
closure are checked against the dense row gathers and the dense solve they
replaced (``dense_oracle``), and a run's rounds, each at its learners'
pooled stay, against the per-row weighted blend of learners that pooling
replaced.
"""

import re

import numpy as np
import pytest

import dense_oracle as oracle
import hydent.run
from dense_oracle import dense, graph_of, iteration_graph
from hydent.data import SplitSpec, split, synth_noisy_gaussian
from hydent.graph import Edges, flap_style_weights
from hydent.propagate import (
    final_labels,
    init_labels,
    propagate_round,
    steady_state,
)
from hydent.run import RunConfig, _build_graphs, run_hydent

SWAP = graph_of([[0.0, 1.0], [1.0, 0.0]])


def random_graph(rng, n):
    W = rng.random((n, n)) + 0.05
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    return graph_of(W)


def iteration_of(graph):
    return dense((graph.indptr, graph.indices, graph.iteration))


def weights_of(graph):
    return Edges(graph.indptr, graph.indices, graph.adjacency)


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
        SWAP,
        curriculum=np.array([1]),
        stay=np.zeros(2),
        learned=np.array([], dtype=int),
        initial=initial,
    )
    np.testing.assert_allclose(F[1], [1.0, 0.0])
    np.testing.assert_array_equal(F[0], initial[0])


def test_propagate_round_untouched_rows_keep_initial_bits():
    rng = np.random.default_rng(21)
    initial = init_labels(np.array([0, -1, -1, 1, -1]), 2)
    p = random_graph(rng, 5)
    F = propagate_round(
        initial,
        p,
        curriculum=np.array([2]),
        stay=np.zeros(5),
        learned=np.array([], dtype=int),
        initial=initial,
    )
    # frozen rows must be exactly the initial values, not merely close
    for frozen in (0, 1, 3, 4):
        assert np.array_equal(F[frozen], initial[frozen])


# node 2 hangs off node 0: at stay 0 it moves there, at stay 1 it keeps its own row
PULL = iteration_graph([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_propagate_round_learned_rows_average_uniformly():
    # two learners, one moving every row and one keeping it, pooled into their mean stay
    initial = init_labels(np.array([0, 1, -1]), 2)
    F = propagate_round(
        initial,
        PULL,
        curriculum=np.array([], dtype=int),
        stay=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]).mean(axis=0),
        learned=np.array([2]),
        initial=initial,
    )
    # half of node 0's row (1,0) plus half of node 2's own prior (1/2,1/2)
    np.testing.assert_allclose(F[2], [0.75, 0.25])


def test_propagate_round_rejects_overlap():
    initial = init_labels(np.array([0, -1, -1]), 2)
    p, stay = iteration_graph(np.eye(3)), np.zeros(3)
    with pytest.raises(ValueError, match="curriculum rows must not already be learned"):
        propagate_round(initial, p, np.array([1]), stay, np.array([1]), initial)
    with pytest.raises(ValueError, match="curriculum rows must not already be learned"):
        propagate_round(initial, p, np.array([2, 1]), stay, np.array([0, 1]), initial)


def test_propagate_round_rejects_a_stay_not_one_share_per_node():
    # a stack of per-learner stays, or a share per active row, is not a stay vector
    initial = init_labels(np.array([0, -1, -1]), 2)
    p = iteration_graph(np.eye(3))
    for stay in (np.zeros((2, 3)), np.zeros((1, 3)), np.zeros(1), np.zeros(4), 0.0):
        with pytest.raises(ValueError, match=r"stay must hold one share per node, shape \(3,\)"):
            propagate_round(initial, p, np.array([1]), stay, np.array([2]), initial)


@pytest.mark.parametrize("argument", ["curriculum", "learned"])
@pytest.mark.parametrize("bad, message", [
    ([-1], r"index -1 is outside \[0, 10\)"),
    ([10], r"index 10 is outside \[0, 10\)"),
    ([1.7], r"index 1\.7 is not a whole number"),
    (np.arange(10) == 7, r"indices were given as a boolean mask; pass np\.flatnonzero\(mask\)"),
], ids=["negative", "n", "fractional", "mask"])
def test_propagate_round_rejects_indices_outside_the_graph_fractional_or_masked(argument, bad, message):
    # read as ints, -1 would refresh row 9, 1.7 row 1 and the mask rows 0 and 1
    labels = np.full(10, -1)
    labels[:2] = [0, 1]
    initial = init_labels(labels, 2)
    rows = {"curriculum": np.array([5]), "learned": np.array([6]), argument: np.array(bad)}
    with pytest.raises(ValueError, match=f"^{argument} {message}$"):
        propagate_round(initial, random_graph(np.random.default_rng(35), 10), rows["curriculum"],
                        np.zeros(10), rows["learned"], initial)


def test_propagate_round_rejects_a_previous_state_not_one_row_per_node():
    # a 20-row state on a 10-node graph used to come back with 20 rows
    labels = np.full(20, -1)
    labels[:2] = [0, 1]
    F = init_labels(labels, 2)
    g = random_graph(np.random.default_rng(35), 10)
    for previous in (F, F[:5], F[:, 0]):
        with pytest.raises(ValueError, match=rf"previous must hold one row per node, shape \(10, classes\), "
                                             rf"not {re.escape(str(previous.shape))}"):
            propagate_round(previous, g, [3], np.zeros(10), [], previous)


def test_propagate_round_rejects_an_initial_state_of_another_shape():
    # an initial state of 5 rows used to turn a 10-row state into a 5-row one
    labels = np.full(10, -1)
    labels[:2] = [0, 1]
    F = init_labels(labels, 2)
    g = random_graph(np.random.default_rng(35), 10)
    for initial in (F[:5], init_labels(labels, 3), F.ravel()):
        message = rf"initial has shape {re.escape(str(initial.shape))} but previous has shape \(10, 2\)"
        with pytest.raises(ValueError, match=message):
            propagate_round(F, g, [3], np.zeros(10), [], initial)


@pytest.mark.parametrize("share", [3.0, 1.0, -0.5, np.nan])
def test_propagate_round_rejects_stay_shares_outside_the_unit_interval(share):
    # a stay of 3.0 would give node 1 a score of 3 * 0.5 - 2 * 1 < 0
    initial = init_labels(np.array([0, -1]), 2)
    with pytest.raises(ValueError, match=r"stay shares must lie in \[0, 1\)"):
        propagate_round(initial, SWAP, np.array([1]), np.array([0.0, share]), np.array([], dtype=int), initial)


def test_propagate_round_row_sums_stay_one():
    rng = np.random.default_rng(22)
    n = 12
    labels = np.full(n, -1)
    labels[:2] = [0, 1]
    F = init_labels(labels, 2)
    initial = F.copy()
    learned = np.array([], dtype=int)
    p = random_graph(rng, n)
    stay = rng.random(n)
    for batch in (np.array([2, 3, 4]), np.array([5, 6]), np.array([7, 8, 9, 10, 11])):
        F = propagate_round(F, p, batch, stay, learned, initial)
        learned = np.concatenate([learned, batch])
        np.testing.assert_allclose(F.sum(axis=1), 1.0, atol=1e-9)


def test_steady_state_theta_zero_is_identity():
    rng = np.random.default_rng(23)
    p = random_graph(rng, 6)
    F = rng.dirichlet(np.ones(3), size=6)
    np.testing.assert_allclose(steady_state(p, F, 0.0, np.zeros(6)), F, atol=1e-12)


def test_steady_state_constant_rows_are_fixed():
    rng = np.random.default_rng(24)
    p = random_graph(rng, 5)
    F = np.tile([0.2, 0.8], (5, 1))
    np.testing.assert_allclose(steady_state(p, F, 0.05, np.zeros(5)), F, atol=1e-10)


def test_steady_state_two_node_closed_form():
    F = np.eye(2)
    out = steady_state(SWAP, F, 0.05, np.zeros(2))
    # (I - 0.05 P)^-1 = [[1, 0.05], [0.05, 1]] / (1 - 0.0025)
    expected = 0.95 / 0.9975 * np.array([[1.0, 0.05], [0.05, 1.0]])
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_steady_state_preserves_row_sums():
    rng = np.random.default_rng(25)
    p = random_graph(rng, 9)
    F = rng.dirichlet(np.ones(4), size=9)
    stay = rng.random(9)
    out = steady_state(p, F, 0.05, stay)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-8)
    looped = (1.0 - stay)[:, None] * iteration_of(p) + np.diag(stay)
    residual = (np.eye(9) - 0.05 * looped) @ out - 0.95 * F
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(F)


def test_steady_state_theta_bounds():
    p = SWAP
    F = np.eye(2)
    with pytest.raises(ValueError):
        steady_state(p, F, 1.0, np.zeros(2))
    with pytest.raises(ValueError):
        steady_state(p, F, -0.1, np.zeros(2))


def flap_cases():
    """(the run's graph, flap's stay vector, flap's dense looped graph) on random kNN inputs."""
    rng = np.random.default_rng(31)
    for n, k, sigma, kernels in ((12, 2, 1.0, ("flap",)), (40, 4, 0.7, ("gaussian", "flap")),
                                 (90, 5, 1.3, ("flap", "gaussian"))):
        graph, stays = _build_graphs(rng.normal(size=(n, 2)), RunConfig(kernels=kernels, k=k, sigma=sigma))
        weights = dense(weights_of(graph))
        yield graph, stays[kernels.index("flap")], oracle.assemble(weights + np.diag(oracle.flap_style_weights(weights)))


def per_learner_blend(previous, iterations, curriculum, weights, learned, initial):
    """The blend over each learner's own iteration matrix that the stay form replaced."""
    scores = np.array(initial, dtype=float, copy=True)
    if learned.size:
        scores[learned] = sum(p[learned] @ previous for p in iterations) / len(iterations)
    if curriculum.size:
        scores[curriculum] = sum(weights[:, m, None] * (p[curriculum] @ previous)
                                 for m, p in enumerate(iterations))
    return scores


def test_flap_stay_form_is_the_looped_iteration_matrix():
    for plain, stay, looped_graph in flap_cases():
        loops = flap_style_weights(weights_of(plain))
        np.testing.assert_array_equal(stay, loops / (plain.degree + loops))
        looped = (1.0 - stay)[:, None] * iteration_of(plain) + np.diag(stay)
        np.testing.assert_allclose(looped, looped_graph.iteration, rtol=0.0, atol=1e-15)


def test_propagate_round_stays_match_the_per_learner_blend():
    rng = np.random.default_rng(32)
    for plain, stay, looped in flap_cases():
        n = plain.n
        labels = np.full(n, -1)
        labels[:2] = [0, 1]
        F = initial = init_labels(labels, 2)
        stays = np.vstack([np.zeros(n), stay])
        learned = np.array([], dtype=int)
        for batch in np.array_split(rng.permutation(np.arange(2, n)), 4):
            weights = np.full((batch.size, 2), 0.5)
            learners = [iteration_of(plain), looped.iteration]
            expected = per_learner_blend(F, learners, batch, weights, learned, initial)
            dense_round = oracle.propagate_round(F, iteration_of(plain), batch, weights, learned, initial, stays)
            F = propagate_round(F, plain, batch, stays.mean(axis=0), learned, initial)
            np.testing.assert_allclose(F, expected, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(F, dense_round, rtol=0.0, atol=1e-15)
            learned = np.concatenate([learned, batch])


def test_pooled_rounds_replay_the_per_row_blend_at_uniform_weights(monkeypatch):
    # a run propagates every round at its learners' mean stay; replayed with
    # the per-row weighted blend of learners that pooling replaced, every
    # weight 1/learners, each round's scores come out bit for bit, in every
    # kernel order (the blend 0.5 * 0 + 0.5 * a and the mean (0 + a) / 2 are
    # one double, and for one learner both read a).  A round record keeps no
    # scores, so each round's state is read as the run's propagate_round returns it.
    dataset = synth_noisy_gaussian(30, 1.0, seed=34)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=34))
    masked = np.full(dataset.n, -1)
    masked[labeled_idx] = dataset.labels[labeled_idx]
    states = []

    def watch(*args, **kwargs):
        states.append(propagate_round(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(hydent.run, "propagate_round", watch)
    for kernels in (("gaussian",), ("flap",), ("gaussian", "flap"), ("flap", "gaussian")):
        config = RunConfig(kernels=kernels)
        states.clear()
        result = run_hydent(dataset, labeled_idx, config)
        assert len(states) == len(result.rounds), kernels
        assert any(r.converged is not None for r in result.rounds), kernels  # some round ran a solve
        graph, stays = _build_graphs(dataset.features, config)
        F = initial = init_labels(masked, dataset.class_count)
        learned = np.array([], dtype=int)
        for record, state in zip(result.rounds, states):
            batch = record.curriculum
            weights = np.full((batch.size, len(kernels)), 1.0 / len(kernels))
            blended = np.zeros(graph.n)
            blended[np.concatenate([learned, batch])] = oracle.blended_stay(batch, weights, learned, stays)
            dense_round = oracle.propagate_round(F, iteration_of(graph), batch, weights, learned, initial, stays)
            F = propagate_round(F, graph, batch, blended, learned, initial)
            assert np.array_equal(F, state), (kernels, record.index)
            np.testing.assert_allclose(F, dense_round, rtol=0.0, atol=1e-15)
            learned = np.concatenate([learned, batch])
        np.testing.assert_array_equal(np.sort(learned), np.flatnonzero(masked < 0))


THETAS = (0.0, 0.05, 0.5, 0.99, 0.9999)


def test_steady_state_with_stays_matches_the_looped_graph():
    rng = np.random.default_rng(33)
    for plain, stay, looped in flap_cases():
        F = rng.dirichlet(np.ones(3), size=plain.n)
        for theta in THETAS:
            for learner_stay, learner_p in ((stay, looped.iteration), (np.zeros(plain.n), iteration_of(plain))):
                np.testing.assert_allclose(steady_state(plain, F, theta, learner_stay),
                                           oracle.steady_state(learner_p, F, theta, np.zeros(plain.n)),
                                           rtol=0.0, atol=1e-12, err_msg=f"theta={theta}")


def test_steady_state_keeps_an_unlabeled_component_at_its_prior():
    # two components; only the first holds labeled rows, the second sits at the
    # uniform prior, which every theta leaves in place
    rng = np.random.default_rng(34)
    W = np.zeros((60, 60))
    for block in (slice(0, 35), slice(35, 60)):
        part = rng.random((block.stop - block.start,) * 2) * (rng.random((block.stop - block.start,) * 2) < 0.2)
        part = part + part.T + np.diag(np.ones(block.stop - block.start - 1), 1)
        W[block, block] = part + part.T
    np.fill_diagonal(W, 0.0)
    graph = graph_of(W)
    F = np.full((60, 2), 0.5)
    F[:35] = rng.dirichlet(np.ones(2), size=35)
    F[[0, 7]] = [[1.0, 0.0], [0.0, 1.0]]
    loops = flap_style_weights(weights_of(graph))
    for stay in (np.zeros(60), loops / (graph.degree + loops)):
        for theta in THETAS:
            limit = steady_state(graph, F, theta, stay)
            P = (1.0 - stay)[:, None] * iteration_of(graph) + np.diag(stay)
            np.testing.assert_allclose(limit, oracle.steady_state(P, F, theta, np.zeros(60)),
                                       rtol=0.0, atol=1e-12, err_msg=f"theta={theta}")
            np.testing.assert_allclose(limit[35:], 0.5, rtol=0.0, atol=1e-12)


def test_steady_state_rejects_a_stay_of_one():
    with pytest.raises(ValueError, match="stay"):
        steady_state(SWAP, np.eye(2), 0.5, np.ones(2))


def test_steady_state_rejects_a_nan_stay():
    # a NaN share once ran every conjugate-gradient step and then blamed the solver
    with pytest.raises(ValueError, match=r"stay shares must lie in \[0, 1\)"):
        steady_state(SWAP, init_labels(np.array([0, -1]), 2), 0.5, np.array([0.0, np.nan]))


def test_steady_state_rejects_a_stay_or_scores_not_one_per_node():
    for stay in (np.zeros(3), np.zeros((2, 2)), 0.0):
        with pytest.raises(ValueError, match=r"stay must hold one share per node, shape \(2,\)"):
            steady_state(SWAP, np.eye(2), 0.5, stay)
    for scores in (np.full((3, 2), 0.5), np.full(2, 0.5)):
        with pytest.raises(ValueError, match="scores must hold one row per node, 2 rows"):
            steady_state(SWAP, scores, 0.5, np.zeros(2))


def test_final_labels_argmax_and_pinning():
    scores = np.array([[0.2, 0.7, 0.1], [0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])
    labels = np.array([-1, -1, 0])  # row 2 was given class 0, argmax says 2
    out = final_labels(scores, labels)
    np.testing.assert_array_equal(out, [1, 0, 0])  # tie at row 1 goes to class 0
