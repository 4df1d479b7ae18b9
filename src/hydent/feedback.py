"""Learning feedback: how much curriculum the learners can absorb next.

After a round, the freshly learned rows' score entropy measures how
confident the ensemble was.  The feedback value g is exp of the mean
negative entropy (base class-count, scaled by gamma), so g = 1 for
perfectly one-hot rows and exp(-gamma) for rows still at the uniform
prior.  The next curriculum size is the next pool size shrunk by g; the
first round, before any feedback exists, takes g = exp(-gamma), as if the
learners were still at the uniform prior.
"""

from __future__ import annotations

import math

import numpy as np


def feedback_value(scores: np.ndarray, class_count: int, gamma: float = 0.5) -> float:
    """g in (0, 1] from the just-learned rows of the score matrix, one column per class.

    Entries at zero contribute nothing (the 0 log 0 = 0 convention).
    ``gamma`` must be finite and positive with exp(-gamma) > 0, as :class:`~hydent.run.RunConfig` requires.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValueError("need a nonempty matrix of learned rows")
    if class_count < 2:
        raise ValueError("need at least two classes")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if math.exp(-gamma) == 0.0:
        raise ValueError(f"gamma={gamma} is too large: exp(-gamma), the feedback of uniform rows, underflows to 0")
    if scores.shape[1] != class_count:
        raise ValueError(f"scores must hold one column per class, {class_count}, not {scores.shape[1]}")
    if not np.all(np.isfinite(scores)) or scores.min() < 0.0:
        raise ValueError("scores must be finite and nonnegative")
    positive = scores > 0.0
    inner = np.zeros_like(scores)
    inner[positive] = scores[positive] * np.log(scores[positive])
    total = inner.sum() / math.log(class_count)
    return float(math.exp(gamma * total / scores.shape[0]))


def next_size(pool_size: int, g: float) -> int:
    """Curriculum size for the coming round given feedback g."""
    if pool_size < 0:
        raise ValueError("pool size must be nonnegative")
    if not 0.0 < g <= 1.0:
        raise ValueError("feedback must lie in (0, 1]")
    return math.ceil(pool_size * g)
