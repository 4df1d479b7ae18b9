"""Score propagation over the learner graph.

Label scores live in a row-stochastic matrix F with one row per node and
one column per class.  Labeled nodes start one-hot and stay pinned; nodes
the ensemble has not reached yet keep their uniform prior.  Every learner
propagates over the run's one iteration matrix P, held on the graph's
sparse edges, and differs only in its stay vector a, the share of its own
scores each row keeps: the learner's iteration matrix is
(1 - a) P + diag(a), zeros for the Gaussian learner and s / (degree + s)
for flap.  Each round the current curriculum rows (and every previously
learned row) are refreshed synchronously from the last state at one stay
vector, the one the driver pools its learners' into.  The closing pass
solves each learner's damped diffusion to its limit by conjugate gradients
on the same edges, so no n x n system is built.
"""

from __future__ import annotations

import numpy as np

from .graph import LearnerGraph, _indices

# The closure's conjugate gradients stop once the diagonally scaled residual
# is below CG_TOLERANCE * (1 - theta), which bounds every score's error by
# CG_TOLERANCE; CG_SWEEP_CAP only guards against a solve that cannot converge.
CG_TOLERANCE = 1e-15
CG_SWEEP_CAP = 100_000


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


def _stay_shares(stay, n: int) -> np.ndarray:
    """``stay`` as floats, checked to hold one share in [0, 1) per node (NaN fails)."""
    stay = np.asarray(stay, dtype=float)
    if stay.shape != (n,):
        raise ValueError(f"stay must hold one share per node, shape ({n},), not {stay.shape}")
    if not np.all((stay >= 0.0) & (stay < 1.0)):
        raise ValueError("stay shares must lie in [0, 1)")
    return stay


def propagate_round(previous, graph, curriculum, stay, learned, initial):
    """One synchronous refresh of the active rows over ``graph``'s iteration matrix P.

    ``previous`` and ``initial`` hold one row per node of ``graph`` and the
    same columns, and ``stay`` one share per node, in [0, 1).  Each
    ``curriculum`` row and each ``learned`` row (from earlier rounds)
    becomes (1 - a) (P F)[row] + a F[row] at its share a: the update of the
    learner with stay vector ``stay``, and, as that update is affine in a,
    the uniform blend of learners whose stay vectors average to ``stay``.
    Every other row is reset to its ``initial`` value, which keeps labeled
    rows pinned and untouched rows at the prior.  All updates read the same
    ``previous`` state.  Each refreshed row is a convex blend of
    ``previous``'s rows, P being row-stochastic, so row sums of one stay one
    without a repair.
    """
    previous, initial = np.asarray(previous, dtype=float), np.asarray(initial, dtype=float)
    n = graph.n
    if previous.ndim != 2 or previous.shape[0] != n:
        raise ValueError(f"previous must hold one row per node, shape ({n}, classes), not {previous.shape}")
    if initial.shape != previous.shape:
        raise ValueError(f"initial has shape {initial.shape} but previous has shape {previous.shape}; they must match")
    curriculum = _indices(curriculum, "curriculum", n)
    learned = _indices(learned, "learned", n)
    stay = _stay_shares(stay, n)
    if curriculum.size and learned.size:
        seen = np.zeros(n, dtype=bool)
        seen[learned] = True
        if seen[curriculum].any():
            raise ValueError("curriculum rows must not already be learned")

    rows = np.concatenate([learned, curriculum])
    spread = graph.product(graph.iteration, previous)
    scores = initial.copy()
    scores[rows] = (1.0 - stay[rows])[:, None] * spread[rows] + stay[rows, None] * previous[rows]
    return scores


def steady_state(graph: LearnerGraph, scores: np.ndarray, theta: float, stay: np.ndarray) -> np.ndarray:
    """Limit of the damped diffusion F <- theta P_a F + (1 - theta) F0.

    P_a = (1 - a) P + diag(a) is the iteration matrix of the learner with
    stay vector ``stay`` over ``graph``, and the limit X solves
    (I - theta P_a) X = (1 - theta) F0.  Row i of that system times
    d_i / (1 - a_i) > 0 gives the symmetric system

        (diag(d (1 - theta a) / (1 - a)) - theta W) X = diag(d / (1 - a)) (1 - theta) F0,

    which is strictly diagonally dominant, hence positive definite, for
    0 <= theta < 1 and 0 <= a < 1.  It is solved by Jacobi-preconditioned
    conjugate gradients from X = F0, one column per class.  Each step is one
    sparse product, and the number of steps grows like 1 / sqrt(1 - theta).
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    stay = _stay_shares(stay, graph.n)
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != graph.n:
        raise ValueError(f"scores must hold one row per node, {graph.n} rows, not shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    scale = graph.degree / (1.0 - stay)
    diagonal = (scale * (1.0 - theta * stay))[:, None]

    def system(x):
        return diagonal * x - theta * graph.product(graph.adjacency, x)

    x = scores.copy()
    residual = (scale * (1.0 - theta))[:, None] * scores - system(x)
    z = residual / diagonal
    direction = z.copy()
    rz = np.einsum("ij,ij->j", residual, z)
    for _ in range(CG_SWEEP_CAP):
        if np.abs(z).max(initial=0.0) <= CG_TOLERANCE * (1.0 - theta):
            return x
        image = system(direction)
        step = _ratio(rz, np.einsum("ij,ij->j", direction, image))
        x += step * direction
        residual -= step * image
        z = residual / diagonal
        rz, previous = np.einsum("ij,ij->j", residual, z), rz
        direction = z + _ratio(rz, previous) * direction
    raise RuntimeError(f"the closing diffusion did not converge in {CG_SWEEP_CAP} conjugate-gradient steps")


def _ratio(top, bottom):
    # a column already solved exactly has 0 / 0: it takes no step
    return np.divide(top, bottom, out=np.zeros_like(top), where=bottom != 0.0)


def final_labels(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Argmax decisions, keeping the given class on labeled rows.

    Ties go to the lowest class id (the argmax convention).
    """
    decided = np.argmax(scores, axis=1).astype(int)
    labels = np.asarray(labels)
    given = labels >= 0
    decided[given] = labels[given]
    return decided
