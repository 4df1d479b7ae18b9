"""Joint curriculum selection across teachers.

Every teacher m scores its candidate pool with a symmetric matrix R(m); a
relaxed binary selection matrix S(m) of shape (pool size, curriculum size)
encodes which candidates that teacher picks.  The joint objective couples
the per-teacher scores tr(S'RS) with a row-sparsity term on the stacked
matrix (S(1), ..., S(M)), plus penalties pushing each S toward binary,
orthogonal-column matrices.  The curriculum is the rows of largest stacked
2-norm: a candidate whose whole stacked row is driven to zero is one that
every teacher agrees is difficult.

The solver holds the M blocks as one (M, b, s) array.  Each sweep refreshes
the row-norm weights, which majorize the row-sparsity term and decouple the
blocks, then moves every block along its negative gradient by the exact
minimizing step: along a line each block's majorized objective is a quartic
in the step length, so the step is a root of a cubic.  A sweep is kept only
if it does not raise the full objective, so the objective trace is
non-increasing.  :func:`surrogate`, :func:`gradient` and
:func:`line_quartic` take one (b, s) block or the whole stack.

Every 0/1 block with orthonormal columns zeroes both penalties.  When the
penalty weights are large against the scores, the solve settles next to
whichever such block it starts near, so the start picks the curriculum.
Unless given another start, :func:`bcd_solve` starts each teacher at its
own best such block (:func:`easiest_start`), so the scores decide.

The solver's numerics are the module constants below, read at call time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ZETA = 1e-8  # offset in the row-norm weights 1 / (2 ||row|| + ZETA); keeps zero rows finite
EPSILON = 1e-4  # a sweep moving the stack less than this (Frobenius norm) ends the solve
SWEEP_CAP = 300  # sweeps a solve may take before it stops unconverged


def l21_norm(matrix: np.ndarray) -> float:
    """Sum of row 2-norms."""
    return float(np.linalg.norm(matrix, axis=1).sum())


def l21_weight_matrix(stacked: np.ndarray) -> np.ndarray:
    """Diagonal of the row-norm reweighting matrix: 1 / (2 ||row||_2 + ZETA).

    tr(S' diag(h) S) reproduces the row-sparsity term exactly in the limit
    ZETA -> 0; the small offset keeps the weights finite on zero rows.
    """
    return 1.0 / (2.0 * np.linalg.norm(stacked, axis=1) + ZETA)


def _scores(r_list, b: int | None = None) -> np.ndarray:
    """The score matrices, at least one and each b x b, as one (M, b, b) array; b defaults to the first's rows."""
    if len(r_list) == 0:
        raise ValueError("need one score matrix per selection block")
    if b is None:
        b = np.shape(r_list[0])[0] if np.ndim(r_list[0]) else 0
    for r in r_list:
        if np.shape(r) != (b, b):
            raise ValueError(f"score matrix shape {np.shape(r)} does not match pool size {b}")
    return np.asarray(r_list, dtype=float)


def _as_stack(blocks, r_list):
    """The blocks as one (M, b, s) array and the score matrices as one (M, b, b) array."""
    if len(blocks) != len(r_list) or len(blocks) == 0:
        raise ValueError("need one score matrix per selection block")
    if len({np.shape(block) for block in blocks}) != 1 or np.ndim(blocks[0]) != 2:
        raise ValueError("all selection blocks must be matrices of one shape")
    return np.asarray(blocks, dtype=float), _scores(r_list, np.shape(blocks[0])[0])


def _total(x: np.ndarray):
    """Sum over the last two axes: one value per block."""
    return np.sum(x, axis=(-2, -1))


def _gram(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2) @ x


def _block_terms(block: np.ndarray, r: np.ndarray, beta1: float):
    """tr(S'RS) plus both penalties, per block: everything but the row coupling."""
    sq = block * block
    eye = np.eye(block.shape[-1])
    return _total(block * (r @ block) + beta1 * (sq - block) ** 2) + beta1 * _total((_gram(block) - eye) ** 2)


def _value(blocks: np.ndarray, r: np.ndarray, beta0: float, beta1: float) -> float:
    """The joint objective of an (M, b, s) stack under (M, b, b) scores."""
    return float(beta0 * l21_norm(np.hstack(blocks)) + np.sum(_block_terms(blocks, r, beta1)))


def objective(blocks, r_list, beta0: float, beta1: float) -> float:
    """Full joint objective, with the row-sparsity term computed exactly.

    ``blocks`` is a sequence of (b, s) blocks or an (M, b, s) stack.
    """
    return _value(*_as_stack(blocks, r_list), beta0, beta1)


def surrogate(block: np.ndarray, r: np.ndarray, h: np.ndarray, beta0: float, beta1: float):
    """One block's objective with the row-sparsity term majorized by h.

    This is the function the per-block gradient and line search act on; h
    stays fixed for a whole sweep.  Given an (M, b, s) stack and (M, b, b)
    scores, returns the M block values.
    """
    return _block_terms(block, r, beta1) + beta0 * _total(h[:, None] * block * block)


def gradient(block: np.ndarray, r: np.ndarray, h: np.ndarray, beta0: float, beta1: float) -> np.ndarray:
    """Gradient of :func:`surrogate` with respect to the block (or each block of a stack)."""
    sq = block * block
    linear = r @ block + beta0 * (h[:, None] * block)
    linear += beta1 * (2.0 * (block @ _gram(block)) - block)
    return 2.0 * (linear + beta1 * (2.0 * sq * block - 3.0 * sq))


def line_quartic(block, direction, r, h, beta0: float, beta1: float) -> np.ndarray:
    """Coefficients c0..c4 of ``surrogate(block + t * direction)`` as a polynomial in t.

    The coefficients run along the last axis; an (M, b, s) stack gives an
    (M, 5) array.  With P = S*S - S, Q = (2S - 1)*D, E = D*D (elementwise)
    the binary penalty along the line is sum (P + tQ + t^2 E)^2, and with
    A = S'S - I, B = S'D + D'S, C = D'D the orthogonality penalty is
    ||A + tB + t^2 C||^2; the score and coupling terms are quadratic in t.
    """
    s, d = block, direction
    rs, rd = r @ s, r @ d
    hb = beta0 * h[:, None]
    p, q, e = s * s - s, (2.0 * s - 1.0) * d, d * d
    a = _gram(s) - np.eye(s.shape[-1])
    sd = np.swapaxes(s, -1, -2) @ d
    cross = sd + np.swapaxes(sd, -1, -2)
    dd = _gram(d)
    c0 = _total(s * rs + hb * s * s + beta1 * p * p) + beta1 * _total(a * a)
    c1 = _total(d * rs + s * rd + 2.0 * hb * s * d + 2.0 * beta1 * p * q) + 2.0 * beta1 * _total(a * cross)
    c2 = _total(d * rd + hb * e + beta1 * (q * q + 2.0 * p * e)) + beta1 * _total(cross * cross + 2.0 * a * dd)
    c3 = 2.0 * beta1 * (_total(q * e) + _total(cross * dd))
    c4 = beta1 * (_total(e * e) + _total(dd * dd))
    return np.stack([c0, c1, c2, c3, c4], axis=-1)


def exact_step(coefficients) -> np.ndarray:
    """The step t >= 0 minimizing c0 + c1 t + c2 t^2 + c3 t^3 + c4 t^4.

    ``coefficients`` holds c0..c4 along its last axis, one polynomial per
    leading index.  The minimizer over t >= 0 is 0 or a real root of the
    cubic derivative, read off as an eigenvalue of its companion matrix.
    Where c4 = 0 (no penalty, or a zero direction) c3 is 0 as well for the
    surrogate, and the only root is the vertex -c1 / (2 c2).  Each root is
    clipped to t >= 0 and the candidate of lowest value wins, with ties
    going to t = 0, so a zero or ascent direction gives 0.
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


def extract_curriculum(blocks, s: int) -> np.ndarray:
    """The curriculum: the ``min(s, b)`` rows of largest 2-norm in the stacked matrix.

    Returns their positions in the candidate pool, in rank order; ties go
    to the lower position.
    """
    norms = np.linalg.norm(np.hstack(blocks), axis=1)
    return np.argsort(-norms, kind="stable")[:s]


def easiest_start(r_list, s: int) -> np.ndarray:
    """Binary starting blocks: each teacher picks its ``s`` lowest-scored candidates.

    For a 0/1 block with orthonormal columns both penalties vanish and
    tr(S'RS) is the sum of R's diagonal over the picked rows, so this is
    each teacher's best selection on its own; the solve then weighs it
    against the row coupling.  Ties go to the lower candidate position.
    Returns the blocks as one (M, b, min(s, b)) stack.
    """
    diagonals = np.array([np.diag(r) for r in r_list])
    teachers, b = diagonals.shape
    picked = np.argsort(diagonals, axis=1, kind="stable")[:, : min(s, b)]
    blocks = np.zeros((teachers, b, picked.shape[1]))
    blocks[np.arange(teachers)[:, None], picked, np.arange(picked.shape[1])] = 1.0
    return blocks


@dataclass(frozen=True)
class TeachingSolution:
    """Outcome of one joint curriculum optimization.

    ``curriculum`` holds the ``min(s, b)`` candidate-pool positions of
    largest stacked row norm, in rank order.  The objective trace has one
    entry per sweep plus the starting value.  ``moved`` tells whether the
    curriculum differs, as a set, from the one the solve's start (``init``
    or :func:`easiest_start`) reads as.
    """

    blocks: tuple
    curriculum: np.ndarray
    objective_trace: np.ndarray
    converged: bool
    moved: bool


def bcd_solve(r_list, beta0: float, beta1: float, s: int, *, init=None) -> TeachingSolution:
    """Minimize the joint curriculum objective by batched block gradient sweeps.

    Each sweep refreshes the row-norm weights from the current stacked
    matrix, then moves every block along its negative gradient by the
    exact minimizer of its quartic :func:`surrogate` along that line (the
    blocks are independent given the weights, so all move at once).  The
    step is positive only where the quartic predicts a strict decrease.
    Stops when the stacked matrix moves less than ``EPSILON`` in Frobenius
    norm, or when a sweep would still raise the full objective through
    majorization slack or rounding (that sweep is discarded; both count as
    converged), or after ``SWEEP_CAP`` sweeps.

    The solve starts from ``init``, an (M, b, s) stack or a sequence of
    (b, s) blocks, when given, and from :func:`easiest_start` otherwise.
    ``s`` is a positive integer, clamped to the pool size b.  Scores or
    weights whose starting objective is not finite are refused.
    """
    r = _scores(r_list)
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
        raise ValueError(f"curriculum size must be an integer, got {s!r}")
    if s < 1:
        raise ValueError("curriculum size must be positive")
    s = min(s, r.shape[1])
    blocks = easiest_start(r, s) if init is None else _as_stack(init, r)[0].copy()
    if blocks.shape[2] != s:
        raise ValueError("init blocks must have s columns")
    start = set(extract_curriculum(blocks, s).tolist())

    trace = [objective(blocks, r, beta0, beta1)]
    if not np.isfinite(trace[0]):
        raise ValueError("scores and weights must be finite")
    converged = False
    for _ in range(SWEEP_CAP):
        h = l21_weight_matrix(np.hstack(blocks))
        descent = -gradient(blocks, r, h, beta0, beta1)
        step = exact_step(line_quartic(blocks, descent, r, h, beta0, beta1))
        candidate = blocks + step[:, None, None] * descent
        value = _value(candidate, r, beta0, beta1)
        if value > trace[-1]:
            # The one descent guard: ZETA's majorization slack and rounding can
            # lift the full objective by ~1e-14; stop rather than record a rise.
            converged = True
            break
        shift = float(np.sqrt(np.sum((candidate - blocks) ** 2)))
        blocks = candidate
        trace.append(value)
        if shift < EPSILON:
            converged = True
            break

    if blocks.min() < -0.5 or blocks.max() > 1.5:
        warnings.warn("selection entries drifted outside [-0.5, 1.5]")
    curriculum = extract_curriculum(blocks, s)
    moved = set(curriculum.tolist()) != start
    return TeachingSolution(tuple(blocks), curriculum, np.asarray(trace), converged, moved)
