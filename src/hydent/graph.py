"""Similarity-graph construction, components and the Laplacian's inverses.

Every learner of a run propagates over one weighted k-nearest-neighbor
graph, which is held as compressed sparse rows (CSR, see :class:`Edges`):
about k edges per node, never an n x n array.  This module finds the kNN
edges from row chunks of the squared distances, puts Gaussian kernel
weights on them, reads flap's self-loop weights off them, and precomputes
the degree vector and the row-stochastic iteration matrix on the same
edges.  Teachers read two dense inverses built from the Laplacian, and
:func:`pseudoinverse` is one of them; both come from the symmetric
positive-definite inverse :func:`spd_inverse`, a Cholesky factor inverted
by blocks, so no run computes an eigendecomposition.  The graph's cached
dense ``laplacian`` and its spectrum remain for inspection and tests, and
are computed only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Squared distances knn_pattern holds at a time: a chunk of rows of about
# this many entries (at least two rows), so the n x n distances never exist.
CHUNK_ENTRIES = 1 << 18

# spd_inverse inverts a triangular block of at most this order directly and
# splits a larger one in halves joined by matrix products.
TRIANGLE_BLOCK = 64


class Edges(NamedTuple):
    """A square sparse matrix as compressed sparse rows.

    Row i's entries are ``values[indptr[i]:indptr[i + 1]]``, in the
    ascending columns ``indices[indptr[i]:indptr[i + 1]]``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray


def _edges(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> Edges:
    """CSR rows from entries sorted by row, then column."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Edges(indptr, np.asarray(cols, dtype=np.intp), values)


@dataclass(frozen=True)
class LearnerGraph:
    """Edge weights plus every derived quantity a learner or teacher needs.

    ``adjacency`` and ``iteration`` hold W and P = D^-1 W on the edges
    ``indptr``/``indices`` (CSR rows, see :class:`Edges`); ``degree`` is
    W's row sums.  The dense ``laplacian`` comes from the off-diagonal
    weights alone.  ``eigenvalues`` are ascending; ``eigenvectors[:, k]``
    is the orthonormal eigenvector for ``eigenvalues[k]``.  Each is
    computed on its first read and then kept; the library itself reads
    none of them, and :meth:`dense_laplacian` builds a Laplacian nothing keeps.
    """

    indptr: np.ndarray
    indices: np.ndarray
    adjacency: np.ndarray
    degree: np.ndarray
    iteration: np.ndarray

    @property
    def n(self) -> int:
        return self.degree.shape[0]

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each edge."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def product(self, values: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """M @ dense for the matrix M with ``values`` on this graph's edges.

        One ``np.bincount`` per column of ``dense``.
        """
        return np.column_stack([np.bincount(self.rows, weights=values * column[self.indices], minlength=self.n)
                                for column in np.asarray(dense, dtype=float).T])

    def dense_laplacian(self) -> np.ndarray:
        """A new dense Laplacian of the off-diagonal weights; the graph keeps no reference to it."""
        laplacian = np.zeros((self.n, self.n))
        laplacian[self.rows, self.indices] = 0.0 - self.adjacency
        np.fill_diagonal(laplacian, 0.0)
        # the dense row sum, as D - W would give it
        np.fill_diagonal(laplacian, -laplacian.sum(axis=1))
        return laplacian

    @cached_property
    def laplacian(self) -> np.ndarray:
        return self.dense_laplacian()

    @cached_property
    def _spectrum(self):
        return np.linalg.eigh(self.laplacian)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._spectrum[1]


def knn_pattern(features: np.ndarray, k: int) -> Edges:
    """Symmetric k-nearest-neighbor edges, each holding its squared Euclidean distance.

    An edge {i, j} exists when j is among i's k nearest neighbors or vice
    versa (union symmetrization).  Distance ties are broken toward the
    lower index; self-edges are never part of the pattern.  The squared
    distances ||xi||^2 + ||xj||^2 - 2 xi.xj, clamped at zero, are computed
    about ``CHUNK_ENTRIES`` at a time, and each row's k nearest are found by
    partition rather than by sorting the row.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of points n={n}")
    norms = np.einsum("ij,ij->i", features, features)
    picked = []
    # chunks of two rows or more: a one-row product takes BLAS's matrix-vector
    # path, whose rounding differs from the matrix-matrix one
    for chunk in np.array_split(np.arange(n), max(1, n // max(2, CHUNK_ENTRIES // n))):
        sq = norms[chunk, None] + norms[None, :]
        sq -= 2.0 * features[chunk] @ features.T
        np.maximum(sq, 0.0, out=sq)
        sq[np.arange(chunk.size), chunk] = np.inf
        near = np.argpartition(sq, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(sq, near, axis=1).max(axis=1, keepdims=True)
        crowded = np.flatnonzero(np.count_nonzero(sq <= kth, axis=1) > k)
        if crowded.size:
            # more than k at or below the k-th distance: the tied ones go to the
            # lowest indices, the order a stable sort leaves them in
            rows = sq[crowded]
            below, tied = rows < kth[crowded], rows == kth[crowded]
            room = k - below.sum(axis=1, keepdims=True)
            near[crowded] = np.nonzero(below | (tied & (np.cumsum(tied, axis=1) <= room)))[1].reshape(-1, k)
        picked.append((np.repeat(chunk, k), near.ravel(), np.take_along_axis(sq, near, axis=1).ravel()))
    rows, cols, sq = (np.concatenate(part) for part in zip(*picked))
    codes = np.concatenate([rows * n + cols, cols * n + rows])
    # stable, so an edge both ends picked keeps the distance its own row computed
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    first = np.concatenate([[True], codes[1:] != codes[:-1]])
    codes = codes[first]
    return _edges(n, codes // n, codes % n, np.concatenate([sq, sq])[order][first])


def gaussian_weights(distances: Edges, sigma: float) -> Edges:
    """Gaussian kernel weights exp(-||xi-xj||^2 / (2 sigma^2)) on the edges of ``distances``.

    ``distances`` holds each edge's squared distance, as :func:`knn_pattern`
    returns it.  An edge whose weight underflows to 0 is dropped.  Fails
    when sigma is so small that every edge of some node underflows.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    indptr, indices, sq = distances
    n = indptr.size - 1
    weights = np.exp(-sq / (2.0 * sigma**2))
    rows = np.repeat(np.arange(n), np.diff(indptr))
    kept = weights > 0.0
    lost = (np.diff(indptr) > 0) & (np.bincount(rows[kept], minlength=n) == 0)
    if lost.any():
        node = int(np.argmax(lost))
        raise ValueError(
            f"sigma={sigma} is too small: every edge weight of node {node} underflows to 0 "
            f"(nearest squared distance {sq[indptr[node]:indptr[node + 1]].min():.4g}); "
            "raise --sigma or rescale the features")
    return _edges(n, rows[kept], indices[kept], weights[kept])


def flap_style_weights(weights: Edges) -> np.ndarray:
    """Flap's self-loop on each node: the strongest weight in its row of ``weights``.

    Every row of ``weights`` needs an edge, as :func:`assemble` requires.
    With loops s added, row i's iteration matrix is (1 - a_i) P_i + a_i e_i,
    a = s / (degree + s): flap is the Gaussian learner keeping the share a
    of its own scores, so a run builds no looped copy of the graph.
    """
    indptr, _, values = weights
    return np.maximum.reduceat(np.asarray(values, dtype=float), indptr[:-1])


def assemble(weights: Edges) -> LearnerGraph:
    """Derive degree and iteration matrix from W's edges (the Laplacian and spectrum on demand).

    Self-loops count in the degree and the iteration matrix but stay out of
    the Laplacian, which is built from the off-diagonal weights alone.

    Fails unless W is square, symmetric to 1e-12 * max(1, |W_ij|) and
    nonnegative, and on a zero-degree row: an isolated node can never
    receive label mass, which makes the iteration matrix undefined.
    """
    indptr, indices, values = weights
    indptr, indices, values = np.asarray(indptr), np.asarray(indices), np.asarray(values, dtype=float)
    n = indptr.size - 1
    counts = np.diff(indptr)
    if n < 1 or indptr[0] != 0 or np.any(counts < 0) or indptr[-1] != indices.size or values.shape != indices.shape:
        raise ValueError("adjacency must be CSR rows: indptr rising from 0 to one entry per edge value")
    outside = indices[(indices < 0) | (indices >= n)]
    if outside.size:
        raise ValueError(f"adjacency must be square: column {outside[0]} is outside [0, {n})")
    rows = np.repeat(np.arange(n), counts)
    codes = rows * n + indices
    if np.any(codes[1:] <= codes[:-1]):
        raise ValueError("adjacency columns must ascend within each row")
    # W[j, i] for each stored W[i, j], 0 where it is not stored
    mirrors = indices * n + rows
    at = np.minimum(np.searchsorted(codes, mirrors), codes.size - 1)
    mirror = np.where(codes[at] == mirrors, values[at], 0.0)
    with np.errstate(invalid="ignore"):
        # the tolerance of either orientation, as a dense |W - W.T| test applies both
        if np.any(np.abs(values - mirror) > 1e-12 * np.maximum(1.0, np.minimum(np.abs(values), np.abs(mirror)))):
            raise ValueError("adjacency must be symmetric")
    if np.any(values < 0):
        raise ValueError("adjacency must be nonnegative")
    degree = np.bincount(rows, weights=values, minlength=n)
    if np.any(degree <= 0):
        bad = int(np.flatnonzero(degree <= 0)[0])
        raise ValueError(f"node {bad} has zero degree; graph construction failed")
    return LearnerGraph(indptr, indices, values, degree, values / degree[rows])


def components(graph: LearnerGraph) -> np.ndarray:
    """Each node's connected component, numbered 0, 1, ... in order of each component's lowest node.

    Only edges of positive weight connect, so the components are those of
    the Laplacian.  Every node takes the lowest label among itself and its
    neighbors, then the label its label holds, until nothing changes.
    """
    # a zero-weight edge points back at its own row, which changes nothing
    ends = np.where(graph.adjacency > 0.0, graph.indices, graph.rows)
    labels = np.arange(graph.n)
    while True:
        lowest = np.minimum(labels, np.minimum.reduceat(labels[ends], graph.indptr[:-1]))
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = lowest


def _lower_inverse(lower: np.ndarray) -> None:
    """Overwrite the lower-triangular ``lower`` with its inverse.

    With lower = [[A, 0], [B, C]], the inverse is [[A^-1, 0], [-C^-1 B A^-1, C^-1]];
    numpy has no triangular solve, so the halves are joined by matrix products.
    """
    n = lower.shape[0]
    if n <= TRIANGLE_BLOCK:
        lower[...] = np.tril(np.linalg.inv(lower))
        return
    half = n // 2
    _lower_inverse(lower[:half, :half])
    _lower_inverse(lower[half:, half:])
    lower[half:, :half] = -(lower[half:, half:] @ (lower[half:, :half] @ lower[:half, :half]))


def spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """The inverse of a symmetric positive-definite matrix, exactly symmetric.

    With matrix = F F^T its Cholesky factorization, the inverse is K^T K for
    K = F^-1, inverted in F's own buffer.  This takes about half the time of
    ``np.linalg.inv``'s LU route.
    """
    factor = np.linalg.cholesky(matrix)
    _lower_inverse(factor)
    return factor.T @ factor


def _null_projector(labels: np.ndarray) -> np.ndarray:
    """P0, the projector onto the Laplacian's null space: 1 / n_c within component c, 0 across."""
    indicator = (labels[:, None] == np.arange(labels.max() + 1)).astype(float)
    return (indicator / indicator.sum(axis=0)) @ indicator.T


def pseudoinverse(graph: LearnerGraph) -> np.ndarray:
    """L+, the Laplacian's Moore-Penrose pseudoinverse, as (L + P0)^-1 - P0.

    P0 projects onto L's null space, the indicators of its
    :func:`components`, so L + P0 is positive definite with L's eigenvectors,
    and removing P0 from its inverse leaves 1/lambda on every nonzero mode
    and 0 on the zero modes (Fouss et al., IEEE TKDE 2007).  P0 is built
    twice rather than kept, so it never adds to the inverse's peak memory.
    """
    labels = components(graph)
    grounded = graph.dense_laplacian()
    grounded += _null_projector(labels)
    pinv = spd_inverse(grounded)
    pinv -= _null_projector(labels)
    return pinv

