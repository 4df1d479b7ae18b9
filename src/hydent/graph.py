"""Similarity-graph construction and spectral quantities.

Every learner of a run propagates over one weighted graph.  This module
builds the k-nearest-neighbor edge pattern, fills in Gaussian kernel edge
weights and flap's self-loop weights, and precomputes the degree vector and
row-stochastic iteration matrix.  The Laplacian and its eigendecomposition,
which only teachers read, are computed the first time something reads them,
so runs without teachers never pay for either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Eigenvalues below EIG_ZERO_REL * max(eigenvalue) count as zero modes.
EIG_ZERO_REL = 1e-9


@dataclass(frozen=True)
class LearnerGraph:
    """Adjacency plus every derived matrix a learner or teacher needs.

    ``laplacian`` comes from the off-diagonal weights alone.  ``eigenvalues``
    are ascending; ``eigenvectors[:, k]`` is the orthonormal eigenvector for
    ``eigenvalues[k]``.  Each is computed on its first read and then kept,
    as is ``pseudo_diagonal``.
    """

    adjacency: np.ndarray
    degree: np.ndarray
    iteration: np.ndarray

    @cached_property
    def laplacian(self) -> np.ndarray:
        laplacian = 0.0 - self.adjacency  # unlike -W, leaves absent edges +0.0 as D - W does
        np.fill_diagonal(laplacian, 0.0)
        np.fill_diagonal(laplacian, -laplacian.sum(axis=1))
        return laplacian

    @cached_property
    def _spectrum(self):
        return np.linalg.eigh(self.laplacian)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._spectrum[1]

    @cached_property
    def pseudo_diagonal(self) -> np.ndarray:
        """L+_jj, the diagonal of the Laplacian's pseudoinverse, from the spectrum."""
        return (self.eigenvectors * self.eigenvectors) @ _inverse_spectrum(self)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def squared_distances(features: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clamped at zero."""
    features = np.asarray(features, dtype=float)
    norms = np.einsum("ij,ij->i", features, features)
    sq = norms[:, None] + norms[None, :] - 2.0 * features @ features.T
    return np.maximum(sq, 0.0)


def knn_pattern(sq: np.ndarray, k: int) -> np.ndarray:
    """Boolean symmetric k-nearest-neighbor edge pattern from squared distances.

    An edge {i, j} exists when j is among i's k nearest neighbors or vice
    versa (union symmetrization).  Distance ties are broken toward the
    lower index; self-edges are never part of the pattern.
    """
    masked = np.array(sq, dtype=float)
    n = masked.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of points n={n}")
    np.fill_diagonal(masked, np.inf)
    # Stable sort keeps index order on ties, so the lower index wins.
    order = np.argsort(masked, axis=1, kind="stable")[:, :k]
    pattern = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    pattern[rows, order.ravel()] = True
    return pattern | pattern.T


def gaussian_weights(pattern: np.ndarray, sq: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel weights exp(-||xi-xj||^2 / (2 sigma^2)) on pattern edges.

    ``sq`` holds the squared distances.  Fails when sigma is so small that
    all of some node's edge weights underflow to 0.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    weights = np.zeros(sq.shape)
    weights[pattern] = np.exp(-sq[pattern] / (2.0 * sigma**2))
    np.fill_diagonal(weights, 0.0)
    lost = pattern.any(axis=1) & ~weights.any(axis=1)
    if lost.any():
        node = int(np.argmax(lost))
        raise ValueError(
            f"sigma={sigma} is too small: every edge weight of node {node} underflows to 0 "
            f"(nearest squared distance {sq[node, pattern[node]].min():.4g}); "
            "raise --sigma or rescale the features")
    return weights


def flap_style_weights(weights: np.ndarray) -> np.ndarray:
    """Flap's self-loop on each node: the strongest weight in its row of ``weights``.

    ``weights`` has a zero diagonal, as :func:`gaussian_weights` returns it.
    With loops s added, row i's iteration matrix is (1 - a_i) P_i + a_i e_i,
    a = s / (degree + s): flap is the Gaussian learner keeping the share a
    of its own scores, so a run builds no looped copy of the graph.
    """
    return np.asarray(weights, dtype=float).max(axis=1)


def assemble(adjacency: np.ndarray) -> LearnerGraph:
    """Derive degree and iteration matrix from W (the Laplacian and spectrum on demand).

    Self-loops count in the degree and the iteration matrix but stay out of
    the Laplacian, which is built from the off-diagonal weights alone.

    Fails on a zero-degree row: an isolated node can never receive label
    mass, which makes the iteration matrix undefined.
    """
    W = np.asarray(adjacency, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("adjacency must be square")
    # the tolerance is only evaluated where W and W.T differ, so no float n x n temporary is made
    rows, cols = np.nonzero(W != W.T)
    if np.any(np.abs(W[rows, cols] - W[cols, rows]) > 1e-12 * np.maximum(1.0, np.abs(W[rows, cols]))):
        raise ValueError("adjacency must be symmetric")
    if np.any(W < 0):
        raise ValueError("adjacency must be nonnegative")
    degree = W.sum(axis=1)
    if np.any(degree <= 0):
        bad = int(np.flatnonzero(degree <= 0)[0])
        raise ValueError(f"node {bad} has zero degree; graph construction failed")
    iteration = W / degree[:, None]
    return LearnerGraph(W, degree, iteration)


def _inverse_spectrum(graph: LearnerGraph) -> np.ndarray:
    # 1/lambda on nonzero modes, 0 on (numerically) zero modes.
    lam = graph.eigenvalues
    cutoff = EIG_ZERO_REL * max(lam[-1], 0.0)
    h = np.zeros_like(lam)
    nonzero = lam > cutoff
    h[nonzero] = 1.0 / lam[nonzero]
    return h


def commute_table(graph: LearnerGraph) -> np.ndarray:
    """All-pairs commute times as one symmetric matrix with zero diagonal."""
    h = _inverse_spectrum(graph)
    pseudo = (graph.eigenvectors * h) @ graph.eigenvectors.T
    pseudo = 0.5 * (pseudo + pseudo.T)
    diag = np.diag(pseudo)
    table = diag[:, None] + diag[None, :] - 2.0 * pseudo
    np.fill_diagonal(table, 0.0)
    return np.maximum(table, 0.0)
