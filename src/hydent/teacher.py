"""Per-teacher difficulty scoring primitives.

A teacher judges how easy a frontier candidate is for its learner using two
signals: reliability (low conditional variance of the candidate's label
under a Gaussian process on the graph, given the labeled examples) and
discriminability (a large gap between the candidate's average commute times
to its two closest labeled classes).  Both are rolled into one symmetric
score matrix over the current candidate pool, and both are read from the
learner graph's cached Laplacian spectrum; no all-pairs table is built.

Reliability comes from the GP prior precision Q = Laplacian + I / kappa2:
given the anchored nodes, the candidates' conditional covariance is their
block of (Q_RR)^-1, R being the nodes not yet anchored (Rue & Held, *Gaussian
Markov Random Fields*, 2005, ch. 2).  ``reliability_term`` solves that
directly.  Within a run each teacher instead keeps the running conditional
covariance Sigma of R: its first ``teaching_matrix`` call builds the prior
U diag(1 / (lambda + 1/kappa2)) U^T over every node from the Laplacian
spectrum, and every call removes the nodes anchored since, by the Schur
downdate Sigma <- Sigma - Sigma_.C Sigma_CC^-1 Sigma_C., so a later round
costs O(|R|^2 |C|) instead of an O(|R|^3) solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .graph import LearnerGraph, _inverse_spectrum

# Ties in average commute time would make 1/gap blow up; a tied candidate is
# simply non-discriminable, so its gap is floored at a small positive value.
GAP_FLOOR = 1e-8

# Rows of a running covariance rewritten at a time; bounds a downdate's temporaries.
ROW_BLOCK = 256


@dataclass(eq=False)
class TeacherState:
    """Per-teacher quantities for one run.

    A teacher judges from the run's ``graph`` (whose Laplacian and spectrum
    are cached on it) and ``kappa2`` alone, so every learner of the run
    shares one state; a second :func:`teaching_matrix` call with the same
    anchors only reads it.  ``sigma`` is the conditional covariance
    of the ascending nodes ``free`` given the label of every other node:
    the first :func:`teaching_matrix` call starts it from the prior, and
    every call downdates it.
    """

    graph: LearnerGraph
    kappa2: float
    free: np.ndarray | None = field(default=None, init=False, repr=False)
    sigma: np.ndarray | None = field(default=None, init=False, repr=False)


def make_teacher(graph: LearnerGraph, kappa2: float = 100.0) -> TeacherState:
    """A teacher that judges from ``graph``, with its spectrum computed now.

    The teacher judges from ``graph``'s Laplacian alone, which a learner's
    self-loops do not enter, so it serves every learner of the run.  The
    eigendecomposition and the pseudoinverse's diagonal are forced here, so
    set-up, not the first round, pays for them.

    ``kappa2`` sharpens or flattens the prior; the Laplacian is PSD, so the
    precision is positive definite for any finite positive kappa2.
    """
    if kappa2 <= 0:
        raise ValueError("kappa2 must be positive")
    graph.pseudo_diagonal  # the first read computes the spectrum and L+'s diagonal and caches both
    return TeacherState(graph, kappa2)


def candidate_set(
    graph: LearnerGraph,
    labeled: Sequence[int],
    unlabeled: Sequence[int],
) -> np.ndarray:
    """Frontier candidates: unlabeled direct neighbors of the labeled set.

    One pass over ``graph``'s edges asks, for every node, whether any
    neighbor is labeled.  Every learner of a run shares ``graph``'s edges,
    so every teacher scores this one candidate list.  If no unlabeled
    example touches the labeled set (a disconnected frontier) the whole
    unlabeled set is promoted, so the propagation loop can always make
    progress.
    """
    labeled = np.asarray(labeled, dtype=int)
    unlabeled = np.asarray(unlabeled, dtype=int)
    if unlabeled.size == 0:
        return np.empty(0, dtype=int)
    if labeled.size == 0:
        raise ValueError("labeled set must be nonempty")
    anchored = np.zeros(graph.n, dtype=bool)
    anchored[labeled] = True
    # every row of an assembled graph has an edge, so no reduceat segment is empty
    touches = np.logical_or.reduceat(anchored[graph.indices], graph.indptr[:-1])
    frontier = touches[unlabeled]
    if not frontier.any():
        return np.sort(unlabeled)
    return np.sort(unlabeled[frontier])


def reliability_term(
    laplacian: np.ndarray,
    kappa2: float,
    candidates: Sequence[int],
    anchors: Sequence[int],
) -> np.ndarray:
    """Conditional covariance of candidate labels given the anchored labels.

    With R the nodes outside ``anchors``, this is the candidates' block of
    (laplacian[R, R] + I / kappa2)^-1, equal to the Schur complement
    Sigma_BB - Sigma_BL Sigma_LL^-1 Sigma_LB of the prior covariance.  Its
    trace is what each teacher minimizes.  Candidates must not be anchored.
    """
    candidates = np.asarray(candidates, dtype=int)
    anchors = np.asarray(anchors, dtype=int)
    if np.isin(candidates, anchors).any():
        raise ValueError("candidates must not overlap the anchors")
    rest = np.setdiff1d(np.arange(laplacian.shape[0]), anchors)
    at = np.searchsorted(rest, candidates)
    identity = np.eye(rest.size)
    precision = laplacian[np.ix_(rest, rest)] + identity / kappa2
    conditional = np.linalg.solve(precision, identity[:, at])[at]
    return 0.5 * (conditional + conditional.T)


def gap_matrix(
    teacher: TeacherState,
    candidates: Sequence[int],
    labeled_by_class: Mapping[int, Sequence[int]],
) -> np.ndarray:
    """Diagonal discriminability penalty, 1/gap per candidate.

    The gap is the difference between a candidate's two smallest class-mean
    commute times, floored at ``GAP_FLOOR``.  With fewer than two labeled
    classes there is nothing to discriminate between, so the penalty is
    disabled (all zeros) for this round.

    With L+ = U diag(h) U^T (h = 1/lambda, 0 on zero modes), the mean commute
    time from i to class c is L+_ii - 2 (L+ m_c)_i + mean_{j in c} L+_jj, m_c
    the class's mean indicator; L+_ii is common to every class and dropped,
    and L+_jj is read from the graph's cached ``pseudo_diagonal``, so a call
    costs O((|candidates| + |labeled|) n).
    """
    groups = [members for members in labeled_by_class.values() if len(members) > 0]
    if len(groups) < 2:
        return np.zeros((len(candidates), len(candidates)))
    graph = teacher.graph
    h, vectors, diagonal = _inverse_spectrum(graph), graph.eigenvectors, graph.pseudo_diagonal
    candidate_rows = vectors[np.asarray(candidates, dtype=int)]
    means = np.empty((len(candidates), len(groups)))
    for at, members in enumerate(np.asarray(members, dtype=int) for members in groups):
        means[:, at] = -2.0 * (candidate_rows @ (h * vectors[members].mean(axis=0))) + diagonal[members].mean()
    means.sort(axis=1)
    gaps = np.maximum(means[:, 1] - means[:, 0], GAP_FLOOR)
    return np.diag(1.0 / gaps)


def _prior_factor(teacher: TeacherState, nodes: np.ndarray) -> np.ndarray:
    """Rows ``nodes`` of V = U diag(1 / sqrt(lambda + 1/kappa2)), so V V^T is the prior covariance."""
    rows = teacher.graph.eigenvectors[nodes]
    rows *= 1.0 / np.sqrt(np.maximum(teacher.graph.eigenvalues, 0.0) + 1.0 / teacher.kappa2)
    return rows


def _schur_downdate(sigma: np.ndarray, keep: np.ndarray, cross: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``sigma[keep][:, keep] - cross^T block^-1 cross``, written over sigma's own buffer.

    ``block`` (the dropped nodes' covariance) is inverted through its
    Cholesky factor.  Rows are rewritten ``ROW_BLOCK`` at a time from the
    front; row i of the result lands before old row keep[i] >= i, so no row
    is overwritten before it is read and no second square array is made.
    """
    w = np.linalg.solve(np.linalg.cholesky(block), cross)
    size, m = sigma.shape[0], keep.size
    flat = sigma.reshape(-1)
    for start in range(0, m, ROW_BLOCK):
        # a gather from flat indices is several times faster than sigma[np.ix_(...)]
        rows = flat.take(keep[start:start + ROW_BLOCK, None] * size + keep)
        rows -= w[:, start:start + ROW_BLOCK].T @ w
        flat[start * m:start * m + rows.size] = rows.reshape(-1)
    return flat[: m * m].reshape(m, m)


def _condition(teacher: TeacherState, anchors: np.ndarray) -> None:
    """Bring ``teacher.sigma`` to the covariance of the nodes outside ``anchors``.

    When the anchors include every node ``sigma`` is already conditioned on,
    only the new ones are downdated out; otherwise ``sigma`` restarts from
    the prior over every node and all anchors are downdated out.
    """
    n = teacher.graph.n
    anchored = np.zeros(n, dtype=bool)
    anchored[anchors] = True
    # not a superset: some node outside teacher.free is no longer anchored
    if teacher.sigma is None or anchored.sum() - anchored[teacher.free].sum() != n - teacher.free.size:
        teacher.free = np.arange(n)
        factor = _prior_factor(teacher, teacher.free)
        teacher.sigma = factor @ factor.T
        del factor
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

    The reliability term equals :func:`reliability_term` with every labeled
    node as an anchor; it is read from the teacher's running covariance,
    brought up to these anchors first.
    """
    candidates = np.asarray(candidates, dtype=int)
    anchors = np.concatenate([np.asarray(v, dtype=int) for v in labeled_by_class.values()])
    if np.isin(candidates, anchors).any():
        raise ValueError("candidates must not overlap the anchors")
    _condition(teacher, anchors)
    at = np.searchsorted(teacher.free, candidates)
    block = teacher.sigma[np.ix_(at, at)]
    return 0.5 * (block + block.T) + gap_matrix(teacher, candidates, labeled_by_class)
