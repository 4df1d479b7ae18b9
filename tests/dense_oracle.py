"""Dense reference implementations of the graph core, for tests only.

The library keeps the kNN graph as compressed sparse rows and never builds
an n x n distance, weight or iteration matrix.  These are the dense
versions it replaced: every n x n array built in full, the kNN picked by a
stable sort of whole distance rows, and the closing diffusion solved
directly.  Tests compare the sparse code against them, and use
:func:`sparse` and :func:`graph_of` to hand small dense matrices to the
sparse API.

The spectral section holds the teachers' old quantities, read off the
Laplacian's eigendecomposition: the pseudoinverse, its diagonal, the
commute table, the class-mean gap and the GP prior.  The library computes
them from two Cholesky-based inverses instead.  Next is the GP conditional
covariance as a Schur complement of the dense prior.  The last section is
the selection solve's former line search: the quartic's coefficients summed
elementwise, and the step read off the eigenvalues of the cubic
derivative's companion matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from hydent.graph import Edges, LearnerGraph, _edges, assemble as assemble_sparse


def sparse(matrix) -> Edges:
    """The nonzero entries of a dense matrix as CSR rows (any shape; ``assemble`` checks it)."""
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = np.nonzero(matrix)
    return _edges(matrix.shape[0], rows, cols, matrix[rows, cols])


def dense(edges: Edges) -> np.ndarray:
    """Square CSR rows back to a dense matrix."""
    indptr, indices, values = edges
    n = indptr.size - 1
    matrix = np.zeros((n, n))
    matrix[np.repeat(np.arange(n), np.diff(indptr)), indices] = values
    return matrix


def graph_of(W) -> LearnerGraph:
    """The library's graph for a dense symmetric weight matrix."""
    return assemble_sparse(sparse(W))


def iteration_graph(P) -> LearnerGraph:
    """A graph whose iteration matrix is the row-stochastic ``P`` itself (unit degrees).

    ``P`` need not be symmetric, so this is built directly rather than
    through ``assemble``; it serves :func:`hydent.propagate.propagate_round`,
    which reads only the iteration matrix.
    """
    edges = sparse(P)
    return LearnerGraph(edges.indptr, edges.indices, edges.values, np.ones(np.shape(P)[0]), edges.values)


def squared_distances(features: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances sum((xi - xj)^2) of the centred features, by direct differences."""
    features = np.asarray(features, dtype=float)
    features = features - features.mean(axis=0)
    return np.square(features[:, None, :] - features[None, :, :]).sum(axis=-1)


def knn_pattern(sq: np.ndarray, k: int) -> np.ndarray:
    """Boolean symmetric kNN pattern: a stable sort of each row, lower index first on ties."""
    masked = np.array(sq, dtype=float)
    n = masked.shape[0]
    np.fill_diagonal(masked, np.inf)
    order = np.argsort(masked, axis=1, kind="stable")[:, :k]
    pattern = np.zeros((n, n), dtype=bool)
    pattern[np.repeat(np.arange(n), k), order.ravel()] = True
    return pattern | pattern.T


def gaussian_weights(pattern: np.ndarray, sq: np.ndarray, sigma: float) -> np.ndarray:
    """Dense Gaussian weights on the pattern's edges; an underflowed edge keeps weight 0."""
    weights = np.zeros(sq.shape)
    weights[pattern] = np.exp(-sq[pattern] / (2.0 * sigma**2))
    np.fill_diagonal(weights, 0.0)
    return weights


def flap_style_weights(weights: np.ndarray) -> np.ndarray:
    """Each row's strongest weight."""
    return np.asarray(weights, dtype=float).max(axis=1)


class DenseGraph(NamedTuple):
    adjacency: np.ndarray
    degree: np.ndarray
    iteration: np.ndarray
    laplacian: np.ndarray


def assemble(W: np.ndarray) -> DenseGraph:
    """Degree, iteration matrix and the Laplacian of the off-diagonal weights, all dense."""
    W = np.asarray(W, dtype=float)
    degree = W.sum(axis=1)
    laplacian = 0.0 - W
    np.fill_diagonal(laplacian, 0.0)
    np.fill_diagonal(laplacian, -laplacian.sum(axis=1))
    return DenseGraph(W, degree, W / degree[:, None], laplacian)


def candidate_set(W: np.ndarray, labeled, unlabeled) -> np.ndarray:
    """Unlabeled nodes with a nonzero weight to a labeled one, else every unlabeled node."""
    labeled = np.asarray(labeled, dtype=int)
    unlabeled = np.asarray(unlabeled, dtype=int)
    frontier = W[np.ix_(unlabeled, labeled)].sum(axis=1) > 0
    return np.sort(unlabeled[frontier] if frontier.any() else unlabeled)


def blended_stay(curriculum, weights, learned, stays):
    """The per-row blend of the learners' stays the pooled stay replaced, on the rows learned + curriculum.

    Learned rows average the learners uniformly; each curriculum row blends
    them by its own row of ``weights``, one weight per learner.
    """
    return np.concatenate([stays[:, learned].mean(axis=0), (weights * stays[:, curriculum].T).sum(axis=1)])


def propagate_round(previous, P, curriculum, weights, learned, initial, stays):
    """The refresh with dense row gathers of P and each curriculum row's learners blended by its weights."""
    rows = np.concatenate([learned, curriculum]).astype(int)
    stay = blended_stay(curriculum, weights, learned, stays)
    scores = np.array(initial, dtype=float, copy=True)
    scores[rows] = (1.0 - stay)[:, None] * (P[rows] @ previous) + stay[:, None] * previous[rows]
    sums = scores.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        scores /= sums[:, None]
    return scores


def steady_state(P: np.ndarray, scores: np.ndarray, theta: float, stay: np.ndarray) -> np.ndarray:
    """(I - theta ((1 - a) P + diag(a)))^-1 (1 - theta) F0 by one dense solve."""
    stay = np.asarray(stay, dtype=float)
    system = P * (-theta * (1.0 - stay))[:, None]
    np.fill_diagonal(system, system.diagonal() + (1.0 - theta * stay))
    return np.linalg.solve(system, (1.0 - theta) * scores)


# Eigenvalues below EIG_ZERO_REL * max(eigenvalue) count as zero modes.
EIG_ZERO_REL = 1e-9


def inverse_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """1/lambda on nonzero modes, 0 on (numerically) zero modes."""
    cutoff = EIG_ZERO_REL * max(eigenvalues[-1], 0.0)
    h = np.zeros_like(eigenvalues)
    nonzero = eigenvalues > cutoff
    h[nonzero] = 1.0 / eigenvalues[nonzero]
    return h


def pseudoinverse(laplacian: np.ndarray) -> np.ndarray:
    """L+ = U diag(h) U^T from the eigendecomposition, symmetrized."""
    values, vectors = np.linalg.eigh(laplacian)
    pseudo = (vectors * inverse_spectrum(values)) @ vectors.T
    return 0.5 * (pseudo + pseudo.T)


def pseudo_diagonal(laplacian: np.ndarray) -> np.ndarray:
    """L+_jj from the spectrum, without forming L+."""
    values, vectors = np.linalg.eigh(laplacian)
    return (vectors * vectors) @ inverse_spectrum(values)


def commute_times(pinv: np.ndarray) -> np.ndarray:
    """All-pairs L+_ii + L+_jj - 2 L+_ij read off a given pseudoinverse, as it stands."""
    diag = np.diag(pinv)
    return diag[:, None] + diag[None, :] - 2.0 * pinv


def commute_table(laplacian: np.ndarray) -> np.ndarray:
    """All-pairs commute times from the spectral L+, zero diagonal, clamped at zero."""
    table = commute_times(pseudoinverse(laplacian))
    np.fill_diagonal(table, 0.0)
    return np.maximum(table, 0.0)


def class_means(laplacian: np.ndarray, candidates, labeled_by_class) -> np.ndarray:
    """Class-mean commute times minus the common L+_ii, in the spectral closed form.

    One column per nonempty class: -2 (L+ m_c)_i + mean_{j in c} L+_jj, m_c
    the class's mean indicator, with L+ m_c = U (h * mean of U's class rows).
    """
    values, vectors = np.linalg.eigh(laplacian)
    h = inverse_spectrum(values)
    diagonal = (vectors * vectors) @ h
    rows = vectors[np.asarray(candidates, dtype=int)]
    groups = [np.asarray(m, dtype=int) for m in labeled_by_class.values() if len(m) > 0]
    return np.column_stack([-2.0 * (rows @ (h * vectors[m].mean(axis=0))) + diagonal[m].mean() for m in groups])


def prior(laplacian: np.ndarray, kappa2: float) -> np.ndarray:
    """The GP prior covariance U diag(1 / (lambda + 1/kappa2)) U^T."""
    values, vectors = np.linalg.eigh(laplacian)
    factor = vectors / np.sqrt(np.maximum(values, 0.0) + 1.0 / kappa2)
    return factor @ factor.T


def schur_oracle(laplacian: np.ndarray, kappa2: float, candidates, anchors) -> np.ndarray:
    """The candidates' conditional covariance given the anchors, symmetrized.

    Inverts the precision L + I / kappa2 densely, then takes the Schur
    complement Sigma_BB - Sigma_BL Sigma_LL^-1 Sigma_LB.
    """
    sigma = np.linalg.inv(laplacian + np.eye(laplacian.shape[0]) / kappa2)
    sigma = 0.5 * (sigma + sigma.T)
    sig_bb = sigma[np.ix_(candidates, candidates)]
    sig_bl = sigma[np.ix_(candidates, anchors)]
    sig_ll = sigma[np.ix_(anchors, anchors)]
    conditional = sig_bb - sig_bl @ np.linalg.solve(sig_ll, sig_bl.T)
    return 0.5 * (conditional + conditional.T)


def line_quartic(block, direction, r, h, beta0: float, beta1: float) -> np.ndarray:
    """Coefficients c0..c4 of the surrogate along ``block + t * direction``, one elementwise sum each.

    With P = S*S - S, Q = (2S - 1)*D, E = D*D, A = S'S - I, B = S'D + D'S
    and C = D'D; one (b, s) block gives 5 values, an (M, b, s) stack (M, 5).
    """
    def total(x):
        return np.sum(x, axis=(-2, -1))

    s, d = block, direction
    rs, rd = r @ s, r @ d
    hb = beta0 * h[:, None]
    p, q, e = s * s - s, (2.0 * s - 1.0) * d, d * d
    a = np.swapaxes(s, -1, -2) @ s - np.eye(s.shape[-1])
    sd = np.swapaxes(s, -1, -2) @ d
    cross = sd + np.swapaxes(sd, -1, -2)
    dd = np.swapaxes(d, -1, -2) @ d
    c0 = total(s * rs + hb * s * s + beta1 * p * p) + beta1 * total(a * a)
    c1 = total(d * rs + s * rd + 2.0 * hb * s * d + 2.0 * beta1 * p * q) + 2.0 * beta1 * total(a * cross)
    c2 = total(d * rd + hb * e + beta1 * (q * q + 2.0 * p * e)) + beta1 * total(cross * cross + 2.0 * a * dd)
    c3 = 2.0 * beta1 * (total(q * e) + total(cross * dd))
    c4 = beta1 * (total(e * e) + total(dd * dd))
    return np.stack([c0, c1, c2, c3, c4], axis=-1)


def exact_step(coefficients) -> np.ndarray:
    """The step t >= 0 minimizing c0 + c1 t + ... + c4 t^4, from the cubic derivative's companion matrix.

    The real parts of the companion's eigenvalues (or the vertex -c1 / (2 c2)
    where c4 = 0) are clipped to t >= 0; the candidate of lowest value wins,
    ties going to t = 0.
    """
    c = np.asarray(coefficients, dtype=float)
    c1, c2, c3, c4 = (c[..., k, None] for k in range(1, 5))
    cubic = c4 > 0.0
    lead = np.where(cubic, 4.0 * c4, 1.0)
    companion = np.zeros(c.shape[:-1] + (3, 3))
    companion[..., 0, :] = np.concatenate([-3.0 * c3, -2.0 * c2, -c1], axis=-1) / lead
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    vertex = -c1 / (2.0 * np.where(c2 > 0.0, c2, np.inf))
    roots = np.where(cubic, np.linalg.eigvals(companion).real, vertex)
    t = np.concatenate([np.zeros_like(c1), np.maximum(roots, 0.0)], axis=-1)
    gain = t * (c1 + t * (c2 + t * (c3 + t * c4)))
    return np.take_along_axis(t, np.argmin(gain, axis=-1)[..., None], axis=-1)[..., 0]
