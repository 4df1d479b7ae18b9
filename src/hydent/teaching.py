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
read off two Gram products, minimized at a closed-form root of its cubic
derivative.  A sweep is kept only if it does not raise the full objective.
An iterate's products are formed once, for the guard that admits it and the
sweep that leaves it; :func:`objective`, :func:`surrogate`, :func:`gradient`
and :func:`line_quartic` wrap the same kernels.

Every 0/1 block with orthonormal columns zeroes both penalties.  With
penalty weights large against the scores, the solve settles next to
whichever such block it starts near, so the start picks the curriculum; by
default each teacher starts at its own best one (:func:`easiest_start`), so
the scores decide.  The numerics are the module constants, read at call time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ZETA = 1e-8  # offset in the row-norm weights 1 / (2 ||row|| + ZETA); keeps zero rows finite
EPSILON = 1e-4  # a sweep moving the stack less than this (Frobenius norm) ends the solve
SWEEP_CAP = 300  # sweeps a solve may take before it stops unconverged

# Row 3i + j has a 1 in column i + j: a flattened 3 x 3 array times this sums its antidiagonals.
_ANTIDIAGONALS = (np.add.outer(np.arange(3), np.arange(3)).reshape(9, 1) == np.arange(5)).astype(float)


def l21_norm(matrix: np.ndarray) -> float:
    """Sum of row 2-norms."""
    return float(np.linalg.norm(matrix, axis=1).sum())


def l21_weight_matrix(stacked: np.ndarray) -> np.ndarray:
    """Diagonal h of the row-norm reweighting matrix, 1 / (2 ||row||_2 + ZETA).

    tr(S' diag(h) S) is the row-sparsity term in the limit ZETA -> 0.
    """
    return _row_weights(np.linalg.norm(stacked, axis=1))


def _row_weights(norms: np.ndarray) -> np.ndarray:
    return 1.0 / (2.0 * norms + ZETA)


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


class _Iterate(NamedTuple):
    """An iterate S, one (b, s) block or an (M, b, s) stack, and what every evaluation at it reads."""

    blocks: np.ndarray
    rs: np.ndarray  # R S
    gram: np.ndarray  # S'S
    sq: np.ndarray  # S * S
    norms: np.ndarray  # 2-norms of the stacked matrix's rows
    terms: np.ndarray  # per block, tr(S'RS) plus both penalties: all but the row coupling
    value: float  # the joint objective


def _iterate(blocks: np.ndarray, r: np.ndarray, beta0: float, beta1: float) -> _Iterate:
    rs, gram, sq = r @ blocks, blocks.swapaxes(-1, -2) @ blocks, blocks * blocks
    eye = np.eye(blocks.shape[-1])
    terms = (blocks * rs + beta1 * (sq - blocks) ** 2).sum(axis=(-2, -1))
    terms += beta1 * ((gram - eye) ** 2).sum(axis=(-2, -1))
    norms = np.linalg.norm(np.hstack(blocks) if blocks.ndim == 3 else blocks, axis=1)
    return _Iterate(blocks, rs, gram, sq, norms, terms, float(beta0 * norms.sum() + terms.sum()))


def objective(blocks, r_list, beta0: float, beta1: float) -> float:
    """Full joint objective, row-sparsity term exact, of (b, s) blocks or an (M, b, s) stack."""
    return _iterate(*_as_stack(blocks, r_list), beta0, beta1).value


def surrogate(block: np.ndarray, r: np.ndarray, h: np.ndarray, beta0: float, beta1: float):
    """One block's objective with the row-sparsity term majorized by h, fixed for a sweep.

    The gradient and line search act on it.  Given an (M, b, s) stack and
    (M, b, b) scores, returns the M block values.
    """
    at = _iterate(block, r, beta0, beta1)
    return at.terms + beta0 * (h[:, None] * at.sq).sum(axis=(-2, -1))


def _gradient(at: _Iterate, h: np.ndarray, beta0: float, beta1: float) -> np.ndarray:
    s, sq = at.blocks, at.sq
    linear = at.rs + beta0 * (h[:, None] * s)
    linear += beta1 * (2.0 * (s @ at.gram) - s)
    return 2.0 * (linear + beta1 * (2.0 * sq * s - 3.0 * sq))


def gradient(block: np.ndarray, r: np.ndarray, h: np.ndarray, beta0: float, beta1: float) -> np.ndarray:
    """Gradient of :func:`surrogate` with respect to the block (or each block of a stack)."""
    return _gradient(_iterate(block, r, beta0, beta1), h, beta0, beta1)


def _quartic(at: _Iterate, d: np.ndarray, rd: np.ndarray, h: np.ndarray, beta0: float, beta1: float):
    s, hb, size = at.blocks, beta0 * h[:, None], d.shape[-2] * d.shape[-1]
    sd = s.swapaxes(-1, -2) @ d
    p, q, e = at.sq - s, (2.0 * s - 1.0) * d, d * d
    rows = np.array([s, d, p, q, e, at.rs + hb * s, rd + hb * d]).reshape(7, -1, size).swapaxes(0, 1)
    g = rows[:, :5] @ rows[:, 2:].swapaxes(-1, -2)  # S, D, P, Q, E against P, Q, E, U, V
    z = np.array([at.gram - np.eye(s.shape[-1]), sd + sd.swapaxes(-1, -2), d.swapaxes(-1, -2) @ d])
    z = z.reshape(3, -1, s.shape[-1] ** 2).swapaxes(0, 1)
    # each term is a product of two polynomials in t; its coefficients are antidiagonal sums
    terms = beta1 * (g[:, 2:, :3] + z @ z.swapaxes(-1, -2))
    terms[:, :2, :2] += g[:, :2, 3:]
    return (terms.reshape(-1, 9) @ _ANTIDIAGONALS).reshape(s.shape[:-2] + (5,))


def line_quartic(block, direction, r, h, beta0: float, beta1: float) -> np.ndarray:
    """Coefficients c0..c4 of ``surrogate(block + t * direction)`` as a polynomial in t.

    The coefficients run along the last axis; an (M, b, s) stack gives an
    (M, 5) array.  With P = S*S - S, Q = (2S - 1)*D, E = D*D (elementwise)
    the binary penalty along the line is sum (P + tQ + t^2 E)^2, and with
    A = S'S - I, B = S'D + D'S, C = D'D the orthogonality penalty is
    ||A + tB + t^2 C||^2; the rest is <S + tD, U + tV>, U = RS + beta0 h*S,
    V = RD + beta0 h*D.  Two batched Gram products give every coefficient.
    """
    return _quartic(_iterate(block, r, beta0, beta1), direction, r @ direction, h, beta0, beta1)


def exact_step(coefficients) -> np.ndarray:
    """The step t >= 0 minimizing c0 + c1 t + c2 t^2 + c3 t^3 + c4 t^4.

    ``coefficients`` holds c0..c4 (all finite) along its last axis, one
    polynomial per leading index, each solved in floats (numpy's per-call
    cost would dwarf a cubic's).  The minimizer is 0 or a real root of the
    cubic derivative, in the trigonometric or Cardano form of Numerical
    Recipes, sec. 5.6, polished by one Newton step; where c4 = 0 (no
    penalty, or a zero direction) c3 = 0 too, and the only root is the
    vertex -c1 / (2 c2).  Roots are clipped to t >= 0 and the lowest value
    wins, ties going to t = 0, so a zero or ascent direction gives 0.
    """
    c = np.asarray(coefficients, dtype=float)
    if not np.isfinite(c).all():
        bad = np.flatnonzero(~np.isfinite(c).reshape(-1, c.shape[-1]).all(axis=0))
        raise ValueError("line coefficients must be finite; not so for " + ", ".join(f"c{k}" for k in bad))
    steps = []
    for _, c1, c2, c3, c4 in c.reshape(-1, c.shape[-1]).tolist():
        roots = [-c1 / (2.0 * c2) if c2 > 0.0 else 0.0]
        if c4 > 0.0:  # the derivative over its lead is t^3 + a t^2 + b t + e
            a, b, e = 0.75 * c3 / c4, 0.5 * c2 / c4, 0.25 * c1 / c4
            q, r = (a * a - 3.0 * b) / 9.0, (a * (2.0 * a * a - 9.0 * b) + 27.0 * e) / 54.0
            if r * r < q * q * q:  # three real roots
                theta = math.atan2(math.sqrt(q * q * q - r * r), r)
                roots = [-2.0 * math.sqrt(q) * math.cos((theta + k * math.pi) / 3.0) - a / 3.0 for k in (0, 2, -2)]
            else:
                big = -math.copysign((abs(r) + math.sqrt(r * r - q * q * q)) ** (1.0 / 3.0), r)
                roots = [big + (q / big if big else 0.0) - a / 3.0]
            slopes = [(3.0 * t + 2.0 * a) * t + b for t in roots]
            roots = [t - (((t + a) * t + b) * t + e) / slope if slope else t for t, slope in zip(roots, slopes)]
        clipped = [max(t, 0.0) for t in roots]
        steps.append(min([(0.0, 0.0)] + [(t * (c1 + t * (c2 + t * (c3 + t * c4))), t) for t in clipped])[1])
    return np.array(steps).reshape(c.shape[:-1])


def _check_size(s) -> None:
    """Refuse a curriculum size ``s`` that is not a positive integer."""
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
        raise ValueError(f"curriculum size must be an integer, got {s!r}")
    if s < 1:
        raise ValueError("curriculum size must be positive")


def extract_curriculum(blocks, s: int) -> np.ndarray:
    """Candidate-pool positions of the ``min(s, b)`` largest stacked rows, by 2-norm.

    In rank order, ties going to the lower position; ``s`` is a positive integer.
    """
    _check_size(s)
    return _largest(np.linalg.norm(np.hstack(blocks), axis=1), s)


def _largest(norms: np.ndarray, s: int) -> np.ndarray:
    return np.argsort(-norms, kind="stable")[:s]


def easiest_start(r_list, s: int) -> np.ndarray:
    """Binary starting blocks: each teacher picks its ``s`` lowest-scored candidates.

    For a 0/1 block with orthonormal columns both penalties vanish and
    tr(S'RS) is the sum of R's diagonal over the picked rows, so this is
    each teacher's best selection on its own, ties going to the lower
    position.  ``s`` is a positive integer.  Returns an (M, b, min(s, b)) stack.
    """
    _check_size(s)
    diagonals = np.array([np.diag(r) for r in r_list])
    teachers, b = diagonals.shape
    picked = np.argsort(diagonals, axis=1, kind="stable")[:, : min(s, b)]
    blocks = np.zeros((teachers, b, picked.shape[1]))
    blocks[np.arange(teachers)[:, None], picked, np.arange(picked.shape[1])] = 1.0
    return blocks


@dataclass(frozen=True)
class TeachingSolution:
    """Outcome of one joint curriculum optimization.

    ``curriculum`` is as :func:`extract_curriculum` reads the final blocks.
    The objective trace has one entry per sweep plus the starting value.
    ``moved``: the curriculum differs, as a set, from the start's.
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
    blocks are independent given the weights, so all move at once).  Stops
    when the stack moves less than ``EPSILON`` (Frobenius), or when a sweep
    would raise the full objective through majorization slack or rounding
    (that sweep is discarded; both count as converged), or after
    ``SWEEP_CAP`` sweeps.  Starts from ``init`` (an (M, b, s) stack or (b, s)
    blocks) if given, else from :func:`easiest_start`.  ``s`` is a positive
    integer, clamped to the pool size b > 0.  Negative weights and a
    starting objective that is not finite are refused.
    """
    r = _scores(r_list)
    _check_size(s)
    if r.shape[1] == 0:
        raise ValueError("the candidate pool is empty; need at least one candidate to select from")
    if beta0 < 0 or beta1 < 0:
        raise ValueError(f"beta0 and beta1 must be nonnegative, got {beta0} and {beta1}")
    s = min(s, r.shape[1])
    blocks = easiest_start(r, s) if init is None else _as_stack(init, r)[0].copy()
    if blocks.shape[2] != s:
        raise ValueError("init blocks must have s columns")
    at = _iterate(blocks, r, beta0, beta1)
    start = set(_largest(at.norms, s).tolist())
    trace = [at.value]
    if not np.isfinite(trace[0]):
        raise ValueError("scores and weights must be finite")
    converged = False
    for _ in range(SWEEP_CAP):
        h = _row_weights(at.norms)
        descent = -_gradient(at, h, beta0, beta1)
        step = exact_step(_quartic(at, descent, r @ descent, h, beta0, beta1))
        candidate = _iterate(at.blocks + step[:, None, None] * descent, r, beta0, beta1)
        if candidate.value > trace[-1]:
            # The one descent guard: ZETA's majorization slack and rounding can
            # lift the full objective by ~1e-14; stop rather than record a rise.
            converged = True
            break
        shift = float(np.sqrt(np.sum((candidate.blocks - at.blocks) ** 2)))
        at = candidate
        trace.append(at.value)
        if shift < EPSILON:
            converged = True
            break

    if at.blocks.min() < -0.5 or at.blocks.max() > 1.5:
        warnings.warn("selection entries drifted outside [-0.5, 1.5]")
    curriculum = _largest(at.norms, s)
    moved = set(curriculum.tolist()) != start
    return TeachingSolution(tuple(at.blocks), curriculum, np.asarray(trace), converged, moved)
