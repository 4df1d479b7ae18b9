"""Similarity-graph construction, components and the Laplacian's inverses.

Every learner of a run propagates over one weighted k-nearest-neighbor
graph, which is held as compressed sparse rows (CSR, see :class:`Edges`):
about k edges per node, never an n x n array.  This module finds the kNN
edges exactly by a sweep along one feature, which compares only rows near
each other in that order: a matrix product screens them, and each edge's
squared distance is taken by direct differences on the centred features.  It puts
Gaussian kernel weights on the edges, reads flap's self-loop weights off
them, and precomputes the degree vector and the row-stochastic iteration
matrix on the same edges.  Teachers read two dense inverses built from
the Laplacian, and :func:`pseudoinverse` is one of them; both come from
:func:`spd_inverse`, which overwrites a symmetric positive-definite matrix
with its inverse by one recursion: by halves over Schur complements down to
blocks of order at most 64, each inverted through its Cholesky factor.  So
no run computes an eigendecomposition, and no inverse needs a second n x n
array.  The graph's cached dense ``laplacian`` and its spectrum are computed
only when read: the benchmark tracer (``bench/tracing.py``) and tests read
them, no run does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Distance estimates knn_pattern holds at a time: a chunk of rows of about
# this many entries (at least one row), so the n x n distances never exist.
CHUNK_ENTRIES = 1 << 18

# Rows knn_pattern's sweep takes per block.  Of 32 to 512, 128 was the best
# balance: fastest at d = 5 and 10, within 10 % of the best at d = 2 (the
# timings are in CHANGES.md).
SWEEP_BLOCK = 128

# spd_inverse splits a matrix in halves joined over the Schur complement
# down to blocks of at most this order, each inverted through its Cholesky factor.
INVERSE_BLOCK = 64

# Rows of a dense n x n array rewritten at a time (the inverse's mirror and P0),
# so a panel's temporaries stay a small share of the array.
PANEL_ROWS = 64


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


def _indices(idx, role, n):
    """``idx`` as int indices in [0, n); a boolean mask (read as 0 and 1) and a fractional index are refused."""
    idx = np.asarray(idx)
    if idx.dtype == bool:
        raise ValueError(f"{role} indices were given as a boolean mask; pass np.flatnonzero(mask)")
    if idx.dtype.kind == "f":  # whole floats pass, so an empty list reads as no indices
        fractional = idx[~(np.isfinite(idx) & (idx == np.floor(idx)))]
        if fractional.size:
            raise ValueError(f"{role} index {fractional[0]} is not a whole number")
    idx = idx.astype(int, copy=False)
    outside = idx[(idx < 0) | (idx >= n)]
    if outside.size:
        raise ValueError(f"{role} index {outside[0]} is outside [0, {n})")
    return idx


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


def _nearest(features: np.ndarray, norms: np.ndarray, margin: np.ndarray, rows: np.ndarray, cols: np.ndarray,
             k: int, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``rows``' k nearest among ``cols``: (their indices, their squared distances).

    ``cols`` ascends and holds every row of ``rows``, which is never its own
    neighbor.  The estimates ||xi||^2 + ||xj||^2 - 2 xi.xj only screen the
    columns; they are computed at most ``CHUNK_ENTRIES`` at a time into the
    two rows of ``scratch``, which every call reuses (freed temporaries had
    their pages handed back and faulted in again on each call).  Each
    column within twice the row's ``margin`` of its k-th estimate gets its
    squared distance by direct differences, sum((xi - xj)^2), and the k of
    lowest (distance, index) are kept, as a stable sort keeps them.
    """
    window, window_norms = features[cols], norms[cols]
    near, dist = np.empty((rows.size, k), dtype=np.intp), np.empty((rows.size, k))
    per_chunk = max(1, CHUNK_ENTRIES // cols.size)
    for first in range(0, rows.size, per_chunk):
        part = slice(first, first + per_chunk)
        chunk = rows[part]
        size, shape = chunk.size * cols.size, (chunk.size, cols.size)
        estimate = np.add(norms[chunk, None], window_norms[None, :], out=scratch[0, :size].reshape(shape))
        estimate -= np.matmul(2.0 * features[chunk], window.T, out=scratch[1, :size].reshape(shape))
        estimate[np.arange(chunk.size), np.searchsorted(cols, chunk)] = np.inf
        kth = np.partition(estimate, k - 1, axis=1)[:, k - 1]
        # flat, as a 2-D np.nonzero took several times as long
        row, col = np.divmod(np.flatnonzero(estimate <= (kth + 2.0 * margin[chunk])[:, None]), cols.size)
        sq = np.square(features[chunk[row]] - window[col]).sum(axis=1)
        # the candidates come by row, then column, so a stable sort on (row, distance)
        # ranks each row's equal distances by index
        ranked = np.lexsort((sq, row))
        counts = np.bincount(row, minlength=chunk.size)
        picked = ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        near[part], dist[part] = cols[col[picked]], sq[picked]
    return near, dist


def knn_pattern(features: np.ndarray, k: int) -> Edges:
    """Symmetric k-nearest-neighbor edges, each holding its squared Euclidean distance.

    An edge {i, j} exists when j is among i's k nearest neighbors or vice
    versa (union symmetrization).  Distance ties are broken toward the
    lower index; self-edges are never part of the pattern.  The result is
    that of a stable sort of all n^2 squared distances sum((xi - xj)^2) of
    the centred features (each column's mean subtracted), but most are
    never computed.  Both ends of an edge hold the same bits, and a shift
    of the input changes only how the centring rounds.

    A sweep along the feature of widest range (projection search:
    Friedman, Baskett & Shustek, IEEE Trans. Computers 1975) takes the
    rows in that order, in blocks of ``SWEEP_BLOCK``, and compares each
    block only with a window of the rows around it in the same order, which
    the product form ||xi||^2 + ||xj||^2 - 2 xi.xj screens for the columns
    whose distance is taken.  A row's k nearest in the window are final
    once its k-th distance, plus a rounding margin, is below the squared
    axis gap to the nearest row outside the window.  The other rows widen
    their window, at least doubling it.  A window past half the rows takes
    all of them and is final by definition, so the loop always ends, and
    brute force is its limit case.  Each block starts from the window half
    its predecessor's rows needed, so input whose rows need wide windows
    (high d) runs as brute force, in chunks of at most ``CHUNK_ENTRIES``
    estimates.

    Fails on input that is not a 2-D array of finite values whose squared
    norms are finite, and on a k that is not an integer in [1, n).
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D array with one row per point, got shape {features.shape}")
    n, d = features.shape
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of points n={n}")
    finite = np.isfinite(features)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"row {row}: non-finite feature value {float(features[row, col])}")
    norms = np.einsum("ij,ij->i", features, features)
    if not np.isfinite(norms).all():
        raise ValueError(f"row {np.argmin(np.isfinite(norms))}: squared norm overflows; rescale the features")
    features = features - features.mean(axis=0)
    norms = np.einsum("ij,ij->i", features, features)
    axis = int(np.argmax(np.ptp(features, axis=0)))
    order = np.argsort(features[:, axis], kind="stable")
    keys = features[order, axis]
    # Over twice the bound (2d + 3) eps (||xi||^2 + ||xj||^2) on how far an estimate can
    # fall from the exact squared distance, for every j at once; a direct distance is
    # within half a margin of it too.  So _nearest's screen is safe, as the k-th direct
    # distance is at most a margin above the k-th estimate, and so is the finality test:
    # an outside row's exact distance is at least the squared gap, so its direct one
    # exceeds the k-th inside once that plus a margin is below the gap squared.
    eps = np.finfo(float).eps
    margin = 4 * (d + 2) * eps * (norms + norms.max())
    # keys[lo - 1] and keys[hi], the nearest keys outside a window [lo, hi), as fence[lo] and
    # fence[hi + 1]: a window reaching an end of the order has nothing beyond it
    fence = np.concatenate([[-np.inf], keys, [np.inf]])
    near, dist = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    scratch = np.empty((2, min(max(CHUNK_ENTRIES, n), n * n)))
    stop, reach = 0, max(k, SWEEP_BLOCK // 2)
    while stop < n:
        if SWEEP_BLOCK + 2 * reach > n // 2:
            # windows of all rows: a block, or as many rows as one such product holds
            size = max(SWEEP_BLOCK, CHUNK_ENTRIES // n)
        else:
            # fewer rows when the window is wide, so one product holds the block
            size = max(1, min(SWEEP_BLOCK, CHUNK_ENTRIES // (SWEEP_BLOCK + 2 * reach)))
        pending = np.arange(stop, min(n, stop + size))
        stop = pending[-1] + 1
        needed = []
        while pending.size:
            lo, hi = max(0, pending[0] - reach), min(n, pending[-1] + 1 + reach)
            if hi - lo > n // 2:
                lo, hi = 0, n
            cols = np.sort(order[lo:hi]) if hi - lo < n else np.arange(n)
            picked, sq = _nearest(features, norms, margin, order[pending], cols, k, scratch)
            bound = sq.max(axis=1) + margin[order[pending]]
            centre = keys[pending]
            gap = np.minimum(centre - fence[lo], fence[hi + 1] - centre)
            # the gap's own rounding is covered by a relative slack of 8 eps; a
            # window of all rows is final even if overflow left a bound NaN
            final = (hi - lo == n) | (bound < gap * gap * (1.0 - 8.0 * eps))
            done = order[pending[final]]
            near[done], dist[done] = picked[final], sq[final]
            # how far each row reaches: its most sorted neighbors on one side
            # with keys within sqrt(bound) of its own
            radius = np.sqrt(bound)
            need = np.maximum(pending - np.searchsorted(keys, centre - radius),
                              np.searchsorted(keys, centre + radius, side="right") - 1 - pending)
            needed.append(need[final])
            pending, need = pending[~final], need[~final]
            if pending.size:
                # a row's k-th distance in a window bounds its true one, so at the
                # median of these reaches about half the pending rows are final
                reach = max(2 * reach, int(np.sort(need)[need.size // 2]))
        # the next block starts from the reach half of this block's rows needed
        needed = np.sort(np.concatenate(needed))
        reach = max(k, int(needed[needed.size // 2]))
    rows, cols = np.repeat(np.arange(n), k), near.ravel()
    # both ends of an edge picked by both hold the same distance, so either copy serves
    codes, first = np.unique(np.concatenate([rows * n + cols, cols * n + rows]), return_index=True)
    return _edges(n, codes // n, codes % n, dist.ravel()[first % dist.size])


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

    Every row of ``weights`` needs an edge, as :func:`assemble` requires;
    a row without one is an error that names it.  With loops s added, row
    i's iteration matrix is (1 - a_i) P_i + a_i e_i, a = s / (degree + s):
    flap is the Gaussian learner keeping the share a of its own scores, so
    a run builds no looped copy of the graph.
    """
    indptr, _, values = weights
    empty = np.flatnonzero(np.diff(indptr) == 0)
    if empty.size:
        raise ValueError(f"node {empty[0]} has no edges, so flap has no strongest weight for it")
    return np.maximum.reduceat(np.asarray(values, dtype=float), indptr[:-1])


def assemble(weights: Edges) -> LearnerGraph:
    """Derive degree and iteration matrix from W's edges (the Laplacian and spectrum on demand).

    Self-loops count in the degree and the iteration matrix but stay out of
    the Laplacian, which is built from the off-diagonal weights alone.

    Fails unless W is square, symmetric to 1e-12 * max(1, |W_ij|), finite
    and nonnegative, and on a zero-degree row: an isolated node can never
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
    # after the symmetry test, which rejects an inf facing a finite mirror as asymmetric
    finite = np.isfinite(values)
    if not finite.all():
        edge = int(np.argmin(finite))
        raise ValueError(f"edge ({rows[edge]}, {indices[edge]}): non-finite weight {values[edge]}")
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


def _panels(rows: int) -> list:
    """Slices of ``PANEL_ROWS`` consecutive rows covering [0, ``rows``)."""
    return [slice(start, min(rows, start + PANEL_ROWS)) for start in range(0, rows, PANEL_ROWS)]


def _mirror_lower(matrix: np.ndarray, rows: int) -> None:
    """Copy the lower triangle onto the upper one in ``matrix``'s first ``rows`` rows, a row panel at a time."""
    for panel in _panels(rows):
        matrix[panel, panel.stop:] = matrix[panel.stop:, panel].T
        square = matrix[panel, panel]
        # a masked copy, several times faster on a panel than indexing its upper triangle
        np.copyto(square, square.T, where=~np.tri(panel.stop - panel.start, dtype=bool))


def _invert_by_halves(matrix: np.ndarray) -> None:
    """Overwrite the symmetric positive-definite ``matrix`` with its inverse, read from its lower triangle.

    [[A, B^T], [B, C]] is inverted by halves over the Schur complement
    S = C - B A^-1 B^T: with T = B A^-1, the inverse is
    [[A^-1 + T^T S^-1 T, (-S^-1 T)^T], [-S^-1 T, S^-1]] (block LDL^T; Golub &
    Van Loan, *Matrix Computations*, sec. 4.2).  T is the only array the
    step keeps; every result is written over the block it replaces.  The
    halves recurse down to blocks of order at most ``INVERSE_BLOCK``, each
    inverted as K^T K for K = F^-1, F its Cholesky factor, which also
    tells a matrix that is not positive definite.
    """
    n = matrix.shape[0]
    if n <= INVERSE_BLOCK:
        factor = np.tril(np.linalg.inv(np.linalg.cholesky(matrix)))
        np.matmul(factor.T, factor, out=matrix)
        return
    half = n // 2
    head, cross, tail = matrix[:half, :half], matrix[half:, :half], matrix[half:, half:]
    _invert_by_halves(head)
    t = cross @ head
    tail -= t @ cross.T
    _invert_by_halves(tail)
    np.matmul(tail, t, out=cross)
    cross *= -1.0
    head -= t.T @ cross
    _mirror_lower(matrix, half)


def spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Overwrite the symmetric positive-definite ``matrix`` with its inverse, exactly symmetric, and return it.

    Only the lower triangle is read.  The inverse is built in the
    argument's own buffer by :func:`_invert_by_halves`, so its temporaries
    hold about n^2 / 2 entries at their peak; at n = 1000 on one BLAS thread
    it takes under half the time of ``np.linalg.inv``'s LU route.  Raises
    ``np.linalg.LinAlgError`` if the matrix is not positive definite, and
    ``matrix`` then holds partial results.
    """
    if not (isinstance(matrix, np.ndarray) and matrix.dtype == float and matrix.ndim == 2
            and matrix.shape[0] == matrix.shape[1]):
        raise ValueError("spd_inverse overwrites its argument, which must be a square float64 array")
    _invert_by_halves(matrix)
    return matrix


def _add_null_projector(matrix: np.ndarray, labels: np.ndarray, sign: float) -> None:
    """Add ``sign`` P0 to ``matrix`` a row panel at a time; P0 holds 1 / n_c within component c, 0 across."""
    share = sign / np.bincount(labels)
    for panel in _panels(labels.size):
        matrix[panel] += (labels[panel, None] == labels) * share[labels[panel], None]


def pseudoinverse(graph: LearnerGraph) -> np.ndarray:
    """L+, the Laplacian's Moore-Penrose pseudoinverse, as (L + P0)^-1 - P0.

    P0 projects onto L's null space, the indicators of its
    :func:`components`, so L + P0 is positive definite with L's eigenvectors,
    and removing P0 from its inverse leaves 1/lambda on every nonzero mode
    and 0 on the zero modes (Fouss et al., IEEE TKDE 2007).  P0 is added
    and removed in place, a row panel at a time, and the inverse is made in
    the grounded Laplacian's own buffer, so L+ is the one n x n array built.
    """
    labels = components(graph)
    pinv = graph.dense_laplacian()
    _add_null_projector(pinv, labels, 1.0)
    spd_inverse(pinv)
    _add_null_projector(pinv, labels, -1.0)
    return pinv

