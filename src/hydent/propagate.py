"""Score propagation over the learner graphs.

Label scores live in a row-stochastic matrix F with one row per node and
one column per class.  Labeled nodes start one-hot and stay pinned; nodes
the ensemble has not reached yet keep their uniform prior.  Each round the
current curriculum rows (and every previously learned row) are refreshed
synchronously from the last state through each learner's iteration matrix,
then blended across learners.
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


def propagate_round(previous, iteration_list, curriculum, weights, learned, initial):
    """One synchronous refresh of the active rows.

    ``curriculum`` rows are blended across learners with their per-row
    weights; ``learned`` rows (from earlier rounds) are blended uniformly.
    Every other row is reset to its ``initial`` value, which keeps labeled
    rows pinned and untouched rows at the prior.  All learner updates read
    the same ``previous`` state.
    """
    previous = np.asarray(previous, dtype=float)
    curriculum = np.asarray(curriculum, dtype=int)
    learned = np.asarray(learned, dtype=int)
    if curriculum.size and learned.size and np.intersect1d(curriculum, learned).size:
        raise ValueError("curriculum rows must not already be learned")

    scores = np.array(initial, dtype=float, copy=True)
    teachers = len(iteration_list)
    if learned.size:
        blend = np.zeros((learned.size, previous.shape[1]))
        for p in iteration_list:
            blend += p[learned] @ previous
        scores[learned] = blend / teachers
    if curriculum.size:
        if weights.shape != (curriculum.size, teachers):
            raise ValueError("one weight row per curriculum node is required")
        blend = np.zeros((curriculum.size, previous.shape[1]))
        for m, p in enumerate(iteration_list):
            blend += weights[:, m, None] * (p[curriculum] @ previous)
        scores[curriculum] = blend

    sums = scores.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        scores /= sums[:, None]
    return scores


def steady_state(iteration: np.ndarray, scores: np.ndarray, theta: float) -> np.ndarray:
    """Limit of the damped diffusion F <- theta P F + (1 - theta) F0.

    Solved directly as (I - theta P) X = (1 - theta) F0, which is well
    posed for 0 <= theta < 1 because P is row-stochastic.  The system is
    built in one n x n buffer.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    system = iteration * -theta
    np.fill_diagonal(system, system.diagonal() + 1.0)
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
