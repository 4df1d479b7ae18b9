"""Score propagation over the learner graph.

Label scores live in a row-stochastic matrix F with one row per node and
one column per class.  Labeled nodes start one-hot and stay pinned; nodes
the ensemble has not reached yet keep their uniform prior.  Every learner
propagates over the run's one iteration matrix P and differs only in its
stay vector a, the share of its own scores each row keeps: the learner's
iteration matrix is (1 - a) P + diag(a), zeros for the Gaussian learner and
s / (degree + s) for flap.  Each round the current curriculum rows (and
every previously learned row) are refreshed synchronously from the last
state, blended across learners.
"""

from __future__ import annotations

import numpy as np


def init_labels(labels: np.ndarray, class_count: int) -> np.ndarray:
    """Starting score matrix: one-hot on labeled rows, uniform elsewhere."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if class_count < 2:
        raise ValueError("need at least two classes")
    if labels.max(initial=-1) >= class_count:
        raise ValueError("label id exceeds class count")
    scores = np.full((n, class_count), 1.0 / class_count)
    for i in np.flatnonzero(labels >= 0):
        scores[i] = 0.0
        scores[i, labels[i]] = 1.0
    return scores


def propagate_round(previous, iteration, curriculum, weights, learned, initial, stays):
    """One synchronous refresh of the active rows.

    ``stays`` holds one stay vector per learner.  ``curriculum`` rows are
    blended across learners with their per-row weights (each row sums to
    one); ``learned`` rows (from earlier rounds) are blended uniformly.  As
    every learner's update of a row is (1 - a) (P F)[row] + a F[row], the
    blend is that update at the row's blended stay, so one product with P
    serves every learner.  Every other row is reset to its ``initial``
    value, which keeps labeled rows pinned and untouched rows at the prior.
    All updates read the same ``previous`` state.
    """
    previous = np.asarray(previous, dtype=float)
    curriculum = np.asarray(curriculum, dtype=int)
    learned = np.asarray(learned, dtype=int)
    stays = np.asarray(stays, dtype=float)
    if curriculum.size and learned.size and np.intersect1d(curriculum, learned).size:
        raise ValueError("curriculum rows must not already be learned")
    if np.shape(weights) != (curriculum.size, stays.shape[0]):
        raise ValueError("one weight row per curriculum node is required")

    rows = np.concatenate([learned, curriculum])
    stay = np.concatenate([stays[:, learned].mean(axis=0), (weights * stays[:, curriculum].T).sum(axis=1)])
    scores = np.array(initial, dtype=float, copy=True)
    scores[rows] = (1.0 - stay)[:, None] * (iteration[rows] @ previous) + stay[:, None] * previous[rows]

    sums = scores.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        scores /= sums[:, None]
    return scores


def steady_state(iteration: np.ndarray, scores: np.ndarray, theta: float, stay: np.ndarray) -> np.ndarray:
    """Limit of the damped diffusion F <- theta P_a F + (1 - theta) F0.

    P_a = (1 - a) P + diag(a) is the iteration matrix of the learner with
    stay vector ``stay``.  Solved directly as (I - theta P_a) X =
    (1 - theta) F0, which is well posed for 0 <= theta < 1 because P_a is
    row-stochastic.  The system is built in one n x n buffer.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    stay = np.asarray(stay, dtype=float)
    system = iteration * (-theta * (1.0 - stay))[:, None]
    np.fill_diagonal(system, system.diagonal() + (1.0 - theta * stay))
    return np.linalg.solve(system, (1.0 - theta) * scores)


def final_labels(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Argmax decisions, keeping the given class on labeled rows.

    Ties go to the lowest class id (the argmax convention).
    """
    decided = np.argmax(scores, axis=1).astype(int)
    labels = np.asarray(labels)
    given = labels >= 0
    decided[given] = labels[given]
    return decided
