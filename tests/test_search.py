"""The shared multistart ascent engine, on a toy objective with a known answer,
and the seeded start directions."""

import os
import subprocess
import sys

import numpy as np
import pytest

import summlab as sl
from summlab.search import canonical_rows, gradient_step, multistart_ascent, quasi_random_directions
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


def test_start_directions_are_seeded_and_shaped():
    for count, dim in ((64, 5), (7, 1), (0, 3), (0, 1)):
        rows = quasi_random_directions(count, dim, 12345)
        assert rows.shape == (count, dim)
        np.testing.assert_array_equal(rows, quasi_random_directions(count, dim, 12345))
        if count:
            assert not np.array_equal(rows, quasi_random_directions(count, dim, 12346))


def test_summlab_imports_and_searches_without_scipy():
    script = """
import sys
import numpy as np
import summlab as sl
import summlab.cli
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
sys.modules["scipy"] = None  # any later scipy import now fails
fam = sl.VectorFamily(sl.lp(1.5, 3), np.arange(12.0).reshape(4, 3) - 5.0)
assert not sl.weak_norm(fam, 3.0).exact
sl.brute_force_weak_norm(fam, 3.0, resolution=1000)
t = sl.MultilinearMap((sl.lp(2, 3),) * 2, sl.lp(2, 2), sl.DenseTensor(np.arange(18.0).reshape(3, 3, 2)))
assert not sl.operator_norm(t).exact
"""
    # the subprocess finds this copy of summlab whether or not it is installed
    here = os.path.dirname(os.path.dirname(sl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


def _tied_variants(m):
    """m and copies with ties in the first column: rounded, constant, +/-0.0, duplicate rows."""
    constant, zeros = m.copy(), m.copy()
    constant[:, 0] = m[0, 0]
    zeros[::2, 0], zeros[1::2, 0] = 0.0, -0.0
    return [m, np.round(m), constant, zeros, np.vstack((m, m[::-1]))]


@pytest.mark.parametrize("shape", [(1, 1), (1, 20), (6, 1), (5, 3), (9, 8), (9, 15), (9, 16), (40, 17), (64, 64), (128, 128)])
def test_canonical_rows_is_the_lexicographic_order(rng, shape):
    # the same permutation as a full lexsort, so rows and derived seeds keep their bits; bytes tell -0.0 from 0.0
    for m in _tied_variants(rng.standard_normal(shape)):
        assert canonical_rows(m).tobytes() == m[np.lexsort(m.T[::-1])].tobytes()
    # one +/-0.0 pair whose second entries put -0.0 after 0.0, in a column of distinct entries
    m = rng.standard_normal(shape)
    if shape[0] >= 2 and shape[1] >= 2:
        m[:2, 0], m[:2, 1] = (0.0, -0.0), (-1.0, 1.0)
    assert canonical_rows(m).tobytes() == m[np.lexsort(m.T[::-1])].tobytes()


@pytest.mark.parametrize("shape", [(16, 16), (50, 16), (200, 16), (32, 32), (128, 128), (40, 17)])
def test_canonical_rows_sorts_tied_runs_as_lexsort_does(rng, shape):
    # basis families (cycling past the dimension), small integers with scattered -0.0, and a few
    # tied first entries among distinct ones: only the tied runs are sorted again
    n, d = shape
    basis = np.zeros(shape)
    basis[np.arange(n), np.arange(n) % d] = 1.0
    ints = rng.integers(-2, 3, shape).astype(float)
    ints[rng.random(shape) < 0.2] = -0.0
    few = rng.standard_normal(shape)
    few[: n // 5, 0] = 0.5
    few[n // 5 : n // 4] = few[0]
    for m in (basis, -basis, ints, few, few[rng.permutation(n)]):
        assert canonical_rows(m).tobytes() == m[np.lexsort(m.T[::-1])].tobytes()
