"""Learning feedback g and the curriculum-size schedule."""

import math

import numpy as np
import pytest

from hydent.feedback import feedback_value, next_size


def test_one_hot_rows_give_full_confidence():
    scores = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert feedback_value(scores, 2) == pytest.approx(1.0)


def test_uniform_rows_give_exp_minus_gamma():
    for c in (2, 3, 5):
        scores = np.full((4, c), 1.0 / c)
        assert feedback_value(scores, c, gamma=0.5) == pytest.approx(math.exp(-0.5))
        assert feedback_value(scores, c, gamma=2.0) == pytest.approx(math.exp(-2.0))


def test_soft_row_hand_value():
    scores = np.array([[0.9, 0.1]])
    inner = 0.9 * math.log2(0.9) + 0.1 * math.log2(0.1)
    want = math.exp(0.5 * inner)
    g = feedback_value(scores, 2, gamma=0.5)
    assert g == pytest.approx(want, rel=1e-12)
    assert g == pytest.approx(0.790969, abs=1e-5)


def test_feedback_zero_entries_contribute_nothing():
    # mixing exact one-hot rows in must not produce NaN from 0 log 0
    scores = np.array([[1.0, 0.0], [0.5, 0.5]])
    g = feedback_value(scores, 2, gamma=0.5)
    assert g == pytest.approx(math.exp(0.5 * (-0.5)))


def test_feedback_decreases_toward_uniform():
    previous = 2.0
    for eps in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        row = np.array([[1.0 - eps, eps]])
        g = feedback_value(row, 2)
        assert g < previous
        previous = g
    assert previous == pytest.approx(math.exp(-0.5))


def test_feedback_bounds_and_validation():
    rng = np.random.default_rng(31)
    scores = rng.dirichlet(np.ones(3), size=8)
    g = feedback_value(scores, 3)
    assert 0.0 < g <= 1.0
    with pytest.raises(ValueError):
        feedback_value(np.empty((0, 2)), 2)
    with pytest.raises(ValueError):
        feedback_value(np.array([[0.5, 0.5]]), 1)
    with pytest.raises(ValueError):
        feedback_value(np.array([[-0.1, 1.1]]), 2)
    # a NaN would drop out of the entropy sum and read as a confident row
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="scores must be finite"):
            feedback_value(np.array([[bad, 0.5]]), 2)
    # RunConfig's rule: gamma = -1 would read g = e, above 1, and NaN would read NaN
    for gamma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            feedback_value(scores, 3, gamma=gamma)


def test_feedback_rejects_scores_not_one_column_per_class():
    # uniform rows of the wrong width used to read 0.729 and 0.453, not exp(-gamma)
    with pytest.raises(ValueError, match="scores must hold one column per class, 3, not 2"):
        feedback_value(np.full((4, 2), 0.5), 3)
    with pytest.raises(ValueError, match="scores must hold one column per class, 2, not 3"):
        feedback_value(np.full((4, 3), 1.0 / 3.0), 2)


def test_initial_size_values():
    # the first round is sized with the feedback of rows at the uniform prior, exp(-gamma)
    assert next_size(10, math.exp(-0.5)) == 7  # ceil(10 exp(-0.5)) = ceil(6.065)
    assert next_size(1, math.exp(-0.5)) == 1
    assert next_size(0, math.exp(-0.5)) == 0
    assert next_size(10, math.exp(-50.0)) == 1  # ceiling keeps progress alive


def test_next_size_values():
    assert next_size(10, 1.0) == 10
    assert next_size(7, math.exp(-0.5)) == 5  # ceil(4.2457)
    assert next_size(0, 0.5) == 0


def test_next_size_monotone_in_both_arguments():
    sizes = [next_size(b, 0.4) for b in range(0, 30)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    gains = [next_size(17, g) for g in np.linspace(0.05, 1.0, 20)]
    assert all(a <= b for a, b in zip(gains, gains[1:]))


def test_next_size_validates_feedback():
    with pytest.raises(ValueError):
        next_size(5, 0.0)
    with pytest.raises(ValueError):
        next_size(5, 1.5)
