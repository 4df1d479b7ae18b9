"""Per-teacher difficulty scoring primitives.

A teacher judges how easy a frontier candidate is for its learner using two
signals: reliability (low conditional variance of the candidate's label
under a Gaussian process on the graph, given the labeled examples) and
discriminability (a large gap between the candidate's average commute times
to its two closest labeled classes).  Both are rolled into one symmetric
score matrix over the current candidate pool.

Reliability comes from the GP prior precision Q = Laplacian + I / kappa2:
given the anchored nodes, the candidates' conditional covariance is their
block of (Q_RR)^-1, R being the nodes not yet anchored (Rue & Held, *Gaussian
Markov Random Fields*, 2005, ch. 2), so no dense covariance is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graph import LearnerGraph, commute_table

# Ties in average commute time would make 1/gap blow up; a tied candidate is
# simply non-discriminable, so its gap is floored at a small positive value.
GAP_FLOOR = 1e-8


@dataclass(frozen=True)
class TeacherState:
    """Per-teacher quantities, fixed for a whole run.

    ``laplacian`` (the learner graph's own, not a copy) and ``kappa2`` give
    the GP prior precision ``laplacian + I / kappa2`` that reliability is
    solved from; ``commute`` is the graph's all-pairs commute-time table.
    """

    laplacian: np.ndarray
    commute: np.ndarray
    kappa2: float


def make_teacher(graph: LearnerGraph, kappa2: float = 100.0) -> TeacherState:
    """Bundle the GP precision inputs and commute table for one teacher-learner pair.

    ``kappa2`` sharpens or flattens the prior; the Laplacian is PSD, so the
    precision is positive definite for any finite positive kappa2.
    """
    if kappa2 <= 0:
        raise ValueError("kappa2 must be positive")
    return TeacherState(graph.laplacian, commute_table(graph), kappa2)


def candidate_set(
    graphs: Sequence[LearnerGraph],
    labeled: Sequence[int],
    unlabeled: Sequence[int],
) -> np.ndarray:
    """Frontier candidates: unlabeled direct neighbors of the labeled set.

    The frontiers of all learners are unioned so that every teacher scores
    the same candidate list.  If no unlabeled example touches the labeled
    set (a disconnected frontier) the whole unlabeled set is promoted, so
    the propagation loop can always make progress.
    """
    labeled = np.asarray(labeled, dtype=int)
    unlabeled = np.asarray(unlabeled, dtype=int)
    if unlabeled.size == 0:
        return np.empty(0, dtype=int)
    if labeled.size == 0:
        raise ValueError("labeled set must be nonempty")
    frontier = np.zeros(0, dtype=bool)
    for graph in graphs:
        touches = graph.adjacency[np.ix_(unlabeled, labeled)].sum(axis=1) > 0
        frontier = touches if frontier.size == 0 else (frontier | touches)
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
    """
    groups = [members for members in labeled_by_class.values() if len(members) > 0]
    if len(groups) < 2:
        return np.zeros((len(candidates), len(candidates)))
    means = np.column_stack([teacher.commute[np.ix_(candidates, m)].mean(axis=1) for m in groups])
    means.sort(axis=1)
    gaps = np.maximum(means[:, 1] - means[:, 0], GAP_FLOOR)
    return np.diag(1.0 / gaps)


def teaching_matrix(
    teacher: TeacherState,
    candidates: Sequence[int],
    labeled_by_class: Mapping[int, Sequence[int]],
) -> np.ndarray:
    """Per-teacher score matrix: reliability term plus discriminability diagonal."""
    anchors = np.concatenate([np.asarray(v, dtype=int) for v in labeled_by_class.values()])
    rel = reliability_term(teacher.laplacian, teacher.kappa2, candidates, anchors)
    return rel + gap_matrix(teacher, candidates, labeled_by_class)
