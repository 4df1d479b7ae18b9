"""Per-teacher difficulty scoring primitives.

A teacher judges how easy a frontier candidate is for its learner using two
signals: reliability (low conditional variance of the candidate's label
under a Gaussian process on the graph, given the labeled examples) and
discriminability (a large gap between the candidate's average commute times
to its two closest labeled classes).  Both are rolled into one symmetric
score matrix over the current candidate pool, and both are read from two
dense inverses a teacher holds.

Reliability comes from the GP prior precision Q = Laplacian + I / kappa2:
given the anchored nodes, the candidates' conditional covariance is their
block of (Q_RR)^-1, R being the nodes not yet anchored (Rue & Held, *Gaussian
Markov Random Fields*, 2005, ch. 2).  Each teacher keeps the running
conditional covariance Sigma of R for the run: its first
``teaching_matrix`` call inverts Q, in Q's own buffer, for the prior over
every node, and every call removes the nodes anchored since, by the Schur
downdate Sigma <- Sigma - Sigma_.C Sigma_CC^-1 Sigma_C., so a later round
costs O(|R|^2 |C|) instead of an O(|R|^3) inverse.

Discriminability reads class-mean commute times off L+, the Laplacian's
pseudoinverse, which ``make_teacher`` computes once per run as
(L + P0)^-1 - P0 (see :func:`hydent.graph.pseudoinverse`).  Both inverses
are made in place, so a teacher's dense arrays at their peak are L+ and
Sigma plus temporaries of order n / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .graph import LearnerGraph, _indices, _panels, pseudoinverse, spd_inverse

# Ties in average commute time would make 1/gap blow up; a tied candidate is
# simply non-discriminable, so its gap is floored at a small positive value.
GAP_FLOOR = 1e-8


@dataclass(eq=False)
class TeacherState:
    """Per-teacher quantities for one run.

    A teacher judges from the run's ``graph`` and ``kappa2`` alone, so every
    learner of the run shares one state; a second :func:`teaching_matrix`
    call with the same anchors only reads it.  ``pinv`` is the graph
    Laplacian's pseudoinverse L+.  ``sigma`` is the conditional covariance
    of the ascending nodes ``free`` given the label of every other node:
    the first :func:`teaching_matrix` call starts it from the prior, and
    every call downdates it; a call that drops an anchor raises.
    """

    graph: LearnerGraph
    kappa2: float
    pinv: np.ndarray = field(repr=False)
    free: np.ndarray | None = field(default=None, init=False, repr=False)
    sigma: np.ndarray | None = field(default=None, init=False, repr=False)


def make_teacher(graph: LearnerGraph, kappa2: float = 100.0) -> TeacherState:
    """A teacher that judges from ``graph``, with L+ computed now.

    The teacher judges from ``graph``'s Laplacian alone, which a learner's
    self-loops do not enter, so it serves every learner of the run.  L+ is
    computed here, so set-up, not the first round, pays for it.

    ``kappa2`` sharpens or flattens the prior; the Laplacian is PSD, so the
    precision is positive definite for any finite positive kappa2, and
    any other kappa2 is refused.
    """
    if not 0.0 < kappa2 < np.inf:
        raise ValueError(f"kappa2 must be finite and positive, got {kappa2}")
    return TeacherState(graph, kappa2, pseudoinverse(graph))


def candidate_set(graph: LearnerGraph, anchored: np.ndarray) -> np.ndarray:
    """Frontier candidates: nodes outside the boolean mask ``anchored`` with a neighbor inside it.

    ``anchored`` marks each labeled or learned node of ``graph``.  One pass
    over ``graph``'s edges asks, for every node, whether any neighbor is
    anchored.  Every learner of a run shares ``graph``'s edges, so every
    teacher scores this one candidate list.  If no unanchored node touches
    an anchored one (a disconnected frontier) every unanchored node is
    promoted, so the propagation loop can always make progress.
    """
    anchored = np.asarray(anchored)
    if anchored.dtype != bool or anchored.shape != (graph.n,):
        raise ValueError(f"anchored must be a mask of {graph.n} booleans, not {anchored.dtype} {anchored.shape}")
    if not anchored.any():
        raise ValueError("labeled set must be nonempty")
    # every row of an assembled graph has an edge, so no reduceat segment is empty
    frontier = np.logical_or.reduceat(anchored[graph.indices], graph.indptr[:-1]) & ~anchored
    return np.flatnonzero(frontier if frontier.any() else ~anchored)


def gap_matrix(
    teacher: TeacherState,
    candidates: Sequence[int],
    labeled_by_class: Mapping[int, Sequence[int]],
) -> np.ndarray:
    """Diagonal discriminability penalty, 1/gap per candidate.

    The gap is the difference between a candidate's two smallest class-mean
    commute times, floored at ``GAP_FLOOR``.  With fewer than two labeled
    classes there is nothing to discriminate between, so the penalty is
    disabled (all zeros) for this round.  Candidates and class members are
    node indices in [0, n).

    The mean commute time from i to class c is
    L+_ii - 2 mean_{j in c} L+_ij + mean_{j in c} L+_jj; L+_ii is common to
    every class and dropped, so a call reads the candidates' rows of the
    teacher's ``pinv`` at the labeled columns, O(|candidates| |labeled|).
    """
    n = teacher.graph.n
    candidates = _indices(candidates, "candidate", n)
    groups = [_indices(members, f"class {label}", n) for label, members in labeled_by_class.items()]
    groups = [members for members in groups if members.size]
    if len(groups) < 2:
        return np.zeros((candidates.size, candidates.size))
    pinv = teacher.pinv
    means = np.empty((candidates.size, len(groups)))
    for at, members in enumerate(groups):
        means[:, at] = -2.0 * pinv[np.ix_(candidates, members)].mean(axis=1) + pinv[members, members].mean()
    means.sort(axis=1)
    gaps = np.maximum(means[:, 1] - means[:, 0], GAP_FLOOR)
    return np.diag(1.0 / gaps)


def _schur_downdate(sigma: np.ndarray, keep: np.ndarray, cross: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``sigma[keep][:, keep] - cross^T block^-1 cross``, written over sigma's own buffer.

    ``block`` (the dropped nodes' covariance) is inverted through its
    Cholesky factor.  Rows are rewritten a row panel at a time from the
    front (see :func:`hydent.graph._panels`); row i of the result lands
    before old row keep[i] >= i, so no row is overwritten before it is read
    and no second square array is made.
    """
    w = np.linalg.solve(np.linalg.cholesky(block), cross)
    size, m = sigma.shape[0], keep.size
    flat = sigma.reshape(-1)
    for panel in _panels(m):
        # a gather from flat indices is several times faster than sigma[np.ix_(...)]
        rows = flat.take(keep[panel, None] * size + keep)
        rows -= w[:, panel].T @ w
        flat[panel.start * m:panel.start * m + rows.size] = rows.reshape(-1)
    return flat[: m * m].reshape(m, m)


def _condition(teacher: TeacherState, anchored: np.ndarray) -> None:
    """Bring ``teacher.sigma`` to the covariance of the nodes outside the mask ``anchored``.

    A teacher's first call starts ``sigma`` from the prior over every node,
    the inverse of the precision built from the graph's edges.  Every call
    then downdates out the anchors ``sigma`` is not yet conditioned on.  A
    run's anchors only grow, so conditioning only runs forward: anchors that
    are not a superset of the last call's are refused.
    """
    n = teacher.graph.n
    if teacher.sigma is None:
        teacher.free = np.arange(n)
        precision = teacher.graph.dense_laplacian()
        precision.flat[::n + 1] += 1.0 / teacher.kappa2
        # inverted in its own buffer, which sigma then owns
        teacher.sigma = spd_inverse(precision)
    elif anchored.sum() - anchored[teacher.free].sum() != n - teacher.free.size:
        raise ValueError("anchors must include the last call's; score fewer with a new make_teacher")
    drop = anchored[teacher.free]
    if drop.any():
        new, keep = np.flatnonzero(drop), np.flatnonzero(~drop)
        sigma = teacher.sigma
        teacher.sigma = _schur_downdate(sigma, keep, sigma[np.ix_(new, keep)], sigma[np.ix_(new, new)])
        teacher.free = teacher.free[keep]


def teaching_matrix(
    teacher: TeacherState,
    candidates: Sequence[int],
    labeled_by_class: Mapping[int, Sequence[int]],
) -> np.ndarray:
    """Per-teacher score matrix: reliability term plus discriminability diagonal.

    Every labeled node is an anchor, and each call's anchors must include
    the last call's.  The reliability term is the candidates' block of the
    conditional covariance given the anchors, symmetrized; it is read from
    the teacher's running covariance, brought up to these anchors first.
    With fewer than two nonempty classes the discriminability term is zero,
    so the result is the reliability block alone.  Candidates and class
    members are node indices in [0, n); candidates must be distinct and
    must not be anchored.
    """
    n = teacher.graph.n
    candidates = _indices(candidates, "candidate", n)
    repeated = np.flatnonzero(np.bincount(candidates, minlength=n) > 1)
    if repeated.size:
        raise ValueError(f"candidate {repeated[0]} is repeated; each candidate may appear once")
    anchored = np.zeros(n, dtype=bool)
    for label, members in labeled_by_class.items():
        anchored[_indices(members, f"class {label}", n)] = True
    if anchored[candidates].any():
        raise ValueError("candidates must not overlap the anchors")
    _condition(teacher, anchored)
    at = np.searchsorted(teacher.free, candidates)
    block = teacher.sigma[np.ix_(at, at)]
    return 0.5 * (block + block.T) + gap_matrix(teacher, candidates, labeled_by_class)
