"""Per-teacher difficulty scoring primitives.

A teacher judges how easy a frontier candidate is for its learner using two
signals: reliability (low conditional variance of the candidate's label
under a Gaussian process on the graph, given the labeled examples) and
discriminability (a large gap between the candidate's average commute times
to its two closest labeled classes).  Both are rolled into one symmetric
score matrix over the current candidate pool, and both are read from two
dense inverses a teacher holds.

Reliability comes from the GP prior precision Q = Laplacian + I / kappa2:
given the anchored nodes A, the candidates' conditional covariance is their
block of Sigma0_RR - W^T W, R being the nodes not yet anchored, Sigma0 = Q^-1
the prior and W = F^-1 Sigma0_AR for F the Cholesky factor of Sigma0_AA (Rue
& Held, *Gaussian Markov Random Fields*, 2005, ch. 2).  A teacher's first
``teaching_matrix`` call inverts Q in Q's own buffer, and every call extends F
and W left-looking by the nodes anchored since (Golub & Van Loan, *Matrix
Computations*, sec. 4.2): O(|P| |A| |R|) flops for P new anchors, and no
|R| x |R| array is rewritten.

Discriminability reads class-mean commute times off L+, the Laplacian's
pseudoinverse, which ``make_teacher`` computes once per run as
(L + P0)^-1 - P0 (see :func:`hydent.graph.pseudoinverse`).  Both inverses
are made in place, so a teacher's dense arrays at their peak are L+ and the
prior's buffer plus temporaries of order n / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .graph import LearnerGraph, _indices, pseudoinverse, spd_inverse

# Ties in average commute time would make 1/gap blow up; a tied candidate is
# simply non-discriminable, so its gap is floored at a small positive value.
GAP_FLOOR = 1e-8


@dataclass(eq=False)
class TeacherState:
    """Per-teacher quantities for one run.

    A teacher judges from the run's ``graph`` and ``kappa2`` alone, so every
    learner of the run shares one state; a second :func:`teaching_matrix`
    call with the same anchors only reads it.  ``pinv`` is the graph
    Laplacian's pseudoinverse L+.  With m nodes ``free``, row i of the n x n
    ``sigma`` holds node ``free[i]``'s prior covariance with the free nodes
    in ``[:m]`` and its column of W in ``[m:]``; every :func:`teaching_matrix`
    call extends W, and a call that drops an anchor raises.
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


def _class_groups(labeled_by_class: Mapping[int, Sequence[int]], n: int) -> list:
    """Each class's members as node indices in [0, n); a node listed twice, in one class or two, is refused."""
    groups = [_indices(members, f"class {label}", n) for label, members in labeled_by_class.items()]
    counts = np.bincount(np.concatenate([np.empty(0, dtype=int)] + groups), minlength=n)
    repeated = np.flatnonzero(counts > 1)
    if repeated.size:
        raise ValueError(f"node {repeated[0]} is listed {counts[repeated[0]]} times in the class groups; "
                         "each labeled node belongs to one class, once")
    return groups


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
    node indices in [0, n), and a node is a member of one class, once.

    The mean commute time from i to class c is
    L+_ii - 2 mean_{j in c} L+_ij + mean_{j in c} L+_jj; L+_ii is common to
    every class and dropped, so a call reads the candidates' rows of the
    teacher's ``pinv`` at the labeled columns, O(|candidates| |labeled|).
    """
    n = teacher.graph.n
    candidates = _indices(candidates, "candidate", n)
    groups = [members for members in _class_groups(labeled_by_class, n) if members.size]
    if len(groups) < 2:
        return np.zeros((candidates.size, candidates.size))
    pinv = teacher.pinv
    means = np.empty((candidates.size, len(groups)))
    for at, members in enumerate(groups):
        means[:, at] = -2.0 * pinv[np.ix_(candidates, members)].mean(axis=1) + pinv[members, members].mean()
    means.sort(axis=1)
    gaps = np.maximum(means[:, 1] - means[:, 0], GAP_FLOOR)
    return np.diag(1.0 / gaps)


def _condition(teacher: TeacherState, anchored: np.ndarray) -> None:
    """Condition ``teacher.sigma`` on every node of the mask ``anchored``.

    The first call fills ``sigma`` with the prior over every node, the
    inverse of the precision built from the graph's edges.  Every call
    appends the anchors not yet in W, in node order, as H^-1 ``cross``:
    ``cross`` is their conditional covariance with the free nodes, H its
    Cholesky factor over themselves.  Anchors only grow: a call whose
    anchors are not a superset of the last call's is refused.
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
    sigma, free, m = teacher.sigma, teacher.free, teacher.free.size
    new = np.flatnonzero(anchored[free])
    new = new[np.argsort(free[new])]
    cross = sigma[new, :m] - sigma[new, m:] @ sigma[:m, m:].T
    w = np.tril(np.linalg.inv(np.linalg.cholesky(cross[:, new]))) @ cross
    # the last free nodes move into the new anchors' slots and W's new rows into the prior
    # columns they vacate; the prior block is exactly symmetric, so its columns are read as rows
    rest = m - new.size
    slots, movers = new[new < rest], rest + np.flatnonzero(~anchored[free[rest:]])
    sigma[:m, slots] = sigma[movers, :m].T
    sigma[:m, rest:m] = w.T
    sigma[slots] = sigma[movers]
    free[slots] = free[movers]
    teacher.free = free[:rest]


def teaching_matrix(
    teacher: TeacherState,
    candidates: Sequence[int],
    labeled_by_class: Mapping[int, Sequence[int]],
) -> np.ndarray:
    """Per-teacher score matrix: reliability term plus discriminability diagonal.

    Every labeled node is an anchor, and each call's anchors must include
    the last call's.  The reliability term is the candidates' block of the
    conditional covariance given the anchors, symmetrized: the candidates'
    prior block less W^T W over them, W brought up to these anchors first.
    With fewer than two nonempty classes the discriminability term is zero,
    so the result is the reliability block alone.  Candidates and class
    members are node indices in [0, n); a node is a member of one class,
    once, and candidates must be distinct and must not be anchored.
    """
    n = teacher.graph.n
    candidates = _indices(candidates, "candidate", n)
    repeated = np.flatnonzero(np.bincount(candidates, minlength=n) > 1)
    if repeated.size:
        raise ValueError(f"candidate {repeated[0]} is repeated; each candidate may appear once")
    anchored = np.zeros(n, dtype=bool)
    for members in _class_groups(labeled_by_class, n):
        anchored[members] = True
    if anchored[candidates].any():
        raise ValueError("candidates must not overlap the anchors")
    # the gaps first, so that their gathers and the candidates' rows of W are never held at once
    gaps = gap_matrix(teacher, candidates, labeled_by_class)
    _condition(teacher, anchored)
    m = teacher.free.size
    at = np.empty(n, dtype=np.intp)
    at[teacher.free] = np.arange(m)
    at = at[candidates]
    w = teacher.sigma[at, m:]
    block = teacher.sigma[np.ix_(at, at)] - w @ w.T
    return 0.5 * (block + block.T) + gaps
