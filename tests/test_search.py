"""The shared multistart ascent engine, on a toy objective with a known answer."""

import numpy as np
import pytest

import summlab as sl
from summlab.search import gradient_step, multistart_ascent
from summlab.spaces import unit_rows

C = np.array([3.0, -1.0, 2.0, 0.0])
SPHERE = sl.lp(2, C.shape[0])


def _linear(rows):
    # maximise <c, x> over the l_2 sphere: the answer is ||c||_2 at c / ||c||_2
    return rows @ C, rows.copy()


def _climb(rows, data, step):
    return gradient_step(SPHERE, rows, np.tile(C, (rows.shape[0], 1)), step)


def _unit_starts(rng, count):
    return unit_rows(SPHERE, rng.standard_normal((count, C.shape[0])))


def test_reaches_the_linear_maximum(rng):
    value, row = multistart_ascent(_unit_starts(rng, 8), _linear, _climb, sl.DEFAULT_BUDGET)
    assert value == pytest.approx(np.linalg.norm(C), rel=1e-9)
    np.testing.assert_allclose(row, C / np.linalg.norm(C), atol=1e-4)
    assert value == pytest.approx(row @ C, rel=1e-15)


def test_never_below_the_best_start(rng):
    starts = _unit_starts(rng, 16)

    def scatter(rows, data, step):  # proposals that are mostly worse than their rows
        return _unit_starts(rng, rows.shape[0])

    for propose in (_climb, scatter):
        value, row = multistart_ascent(starts, _linear, propose, sl.SearchBudget(max_iter=20))
        assert value >= float((starts @ C).max())
        assert value == row @ C


def test_stops_after_three_stalled_iterations(rng):
    calls = []

    def counted(rows):
        calls.append(rows.shape[0])
        return _linear(rows)

    starts = _unit_starts(rng, 5)
    value, _ = multistart_ascent(starts, counted, lambda rows, data, step: rows.copy(), sl.DEFAULT_BUDGET)
    assert len(calls) == 1 + 3  # the starts, then three trials that never rise
    assert value == float((starts @ C).max())


def test_ties_go_to_the_lowest_start_index():
    # the two unit rows differ only where C is zero, so their values tie exactly
    up, down = np.array([0.6, 0.0, 0.0, 0.8]), np.array([0.6, 0.0, 0.0, -0.8])
    low = np.array([0.0, 0.0, 0.0, 1.0])
    hold = lambda rows, data, step: rows.copy()  # noqa: E731
    for first, second in ((up, down), (down, up)):
        value, row = multistart_ascent(np.vstack([low, first, second]), _linear, hold, sl.DEFAULT_BUDGET)
        assert value == first @ C == second @ C
        np.testing.assert_array_equal(row, first)
