"""Norms, dual exponents, and norming functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import summlab as sl
from summlab.errors import DegenerateInputError, DomainError, StructuralError
from summlab.spaces import coord_norm, dual, frozen_array, norming_rows

from conftest import random_space


def test_norm_values():
    assert sl.Vector(sl.lp(2, 3), [3, 4, 0]).norm() == 5.0
    assert sl.Vector(sl.lp(1, 3), [1, 1, 1]).norm() == 3.0
    assert sl.Vector(sl.sup_slice(2), [1, -2]).norm() == 2.0
    assert sl.Vector(sl.lp(math.inf, 2), [1, -2]).norm() == 2.0


def test_dual_spaces():
    assert sl.dual(sl.lp(2, 3)) == sl.lp(2, 3)
    assert sl.dual(sl.lp(1, 3)) == sl.lp(math.inf, 3)
    assert sl.dual(sl.lp(math.inf, 3)) == sl.lp(1, 3)
    assert sl.dual(sl.sup_slice(4)) == sl.lp(1, 4)
    assert sl.dual(sl.lp(4, 2)) == sl.lp(4 / 3, 2)
    assert sl.dual(sl.lp(3, 5)) is sl.dual(sl.lp(3, 5))  # cached
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        assert sl.dual(sl.dual(sl.lp(p, 3))).exponent == pytest.approx(p, rel=1e-12)


def test_norm_zero_iff_zero(rng):
    space = sl.lp(3, 4)
    assert sl.Vector(space, np.zeros(4)).norm() == 0.0
    v = sl.Vector(space, [0, 1e-300, 0, 0])
    assert v.norm() > 0.0


def test_single_vector_norm_matches_its_matrix_row(rng):
    # one reduction for both shapes: the bits must not depend on how a vector is passed
    for space in (sl.lp(1.5, 5), sl.lp(3, 7), sl.lp(7.5, 4)):
        rows = rng.standard_normal((2000, space.dimension))
        for s in (space, dual(space)):
            batch = coord_norm(s, rows, axis=1)
            single = np.array([coord_norm(s, v) for v in rows])
            np.testing.assert_array_equal(single, batch)


def test_dual_exponent_values():
    assert sl.dual_exponent(2) == 2.0
    assert sl.dual_exponent(1) == math.inf
    assert sl.dual_exponent(math.inf) == 1.0
    assert sl.dual_exponent(4) == pytest.approx(4 / 3, rel=1e-15)
    with pytest.raises(DomainError):
        sl.dual_exponent(0.5)


def test_dual_exponent_involution_on_named_points():
    for p in (1.0, 4 / 3, 2.0, 4.0, math.inf):
        assert sl.dual_exponent(sl.dual_exponent(p)) == pytest.approx(p, rel=1e-12)


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
def test_dual_exponent_involution(p):
    assert sl.dual_exponent(sl.dual_exponent(p)) == pytest.approx(p, rel=1e-9)


def test_cotype_table():
    assert sl.lp(1, 3).cotype == 2.0
    assert sl.lp(2, 3).cotype == 2.0
    assert sl.lp(3, 3).cotype == 3.0
    assert sl.lp(math.inf, 3).cotype == math.inf
    assert sl.sup_slice(3).cotype == math.inf


def test_space_validation():
    with pytest.raises(StructuralError):
        sl.lp(2, 0)
    with pytest.raises(DomainError):
        sl.lp(0.5, 3)
    # exponent of a sup slice is normalized away
    assert sl.sup_slice(3) == sl.SpaceDescriptor(sl.Family.SUP_SLICE, 7.0, 3)


def test_vector_validation():
    space = sl.lp(2, 3)
    with pytest.raises(StructuralError):
        sl.Vector(space, [1, 2])
    with pytest.raises(StructuralError):
        sl.Vector(space, [1, 2, math.nan])
    with pytest.raises(StructuralError):
        sl.norming_functional(sl.lp(2, 4), sl.Vector(space, [1, 2, 3]))


def test_norming_functional_examples():
    s = sl.lp(2, 2)
    phi = sl.norming_functional(s, sl.Vector(s, [0.6, 0.8]))
    np.testing.assert_allclose(phi.coords, [0.6, 0.8], atol=1e-15)
    assert phi.space == s

    s = sl.lp(1, 3)
    phi = sl.norming_functional(s, sl.Vector(s, [1, -2, 0]))
    np.testing.assert_array_equal(phi.coords, [1, -1, 0])
    assert phi.space == sl.lp(math.inf, 3)
    assert np.dot(phi.coords, [1, -2, 0]) == 3.0

    s = sl.sup_slice(2)
    phi = sl.norming_functional(s, sl.Vector(s, [2, 2]))
    np.testing.assert_array_equal(phi.coords, [1, 0])  # lowest-index tie-break
    assert phi.space == sl.lp(1, 2)
    assert np.dot(phi.coords, [2, 2]) == 2.0


def test_norming_functional_zero_vector():
    s = sl.lp(2, 2)
    with pytest.raises(DegenerateInputError):
        sl.norming_functional(s, sl.Vector(s, [0, 0]))


def test_norming_functional_random_property(rng):
    for _ in range(300):
        space = random_space(rng)
        v = sl.Vector(space, rng.standard_normal(space.dimension))
        if v.norm() == 0.0:
            continue
        phi = sl.norming_functional(space, v)
        assert phi.space == dual(space)
        assert abs(phi.norm() - 1.0) <= 1e-12
        assert abs(np.dot(phi.coords, v.coords) / v.norm() - 1.0) <= 1e-12


def test_norm_homogeneity_and_triangle(rng):
    for _ in range(300):
        space = random_space(rng)
        d = space.dimension
        u = sl.Vector(space, rng.standard_normal(d))
        v = sl.Vector(space, rng.standard_normal(d))
        lam = 2.0 ** rng.integers(-3, 4)  # representable scalings are exact
        assert sl.Vector(space, lam * u.coords).norm() == abs(lam) * u.norm()
        s = sl.Vector(space, u.coords + v.coords).norm()
        assert s <= (u.norm() + v.norm()) * (1 + 1e-12)


def test_dual_norming_rows_attain_dual_norm(rng):
    # norming rows in dual(E) maximise <c, x> over the unit ball of E, also
    # where c has zero coordinates (sup domains put 0 there) or is zero (e_1)
    for _ in range(200):
        space = random_space(rng)
        c = rng.standard_normal((4, space.dimension))
        c[rng.random(c.shape) < 0.3] = 0.0
        c[3] = 0.0
        x = norming_rows(dual(space), c)
        np.testing.assert_allclose(coord_norm(space, x, axis=1), 1.0, rtol=0.0, atol=1e-12)
        want = coord_norm(dual(space), c, axis=1)
        np.testing.assert_allclose(np.einsum("ij,ij->i", c, x), want, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(x[3], np.eye(space.dimension)[0])


def test_lp_inf_is_the_sup_slice():
    for d in (1, 3, 8):
        assert sl.lp(math.inf, d) == sl.sup_slice(d)
        assert sl.dual(sl.lp(1, d)) == sl.sup_slice(d)
        assert sl.dual(sl.sup_slice(d)) == sl.lp(1, d)
        assert sl.lp(math.inf, d).family is sl.Family.SUP_SLICE
        assert sl.lp(math.inf, d).is_sup and not sl.lp(1e300, d).is_sup
        assert repr(sl.lp(math.inf, d)) == f"sup^{d}"
        assert sl.space_from_json({"family": "lp", "p": "inf", "dim": d}) == sl.sup_slice(d)
    assert sl.lp(2, 3).family is sl.Family.SEQUENCE_LP


def test_frozen_array_is_a_read_only_finite_copy():
    src = np.array([[1, 2], [3, 4]])
    a = frozen_array(src, "entries")
    assert a.dtype == float and not a.flags.writeable
    src[0, 0] = 9
    assert a[0, 0] == 1.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(StructuralError, match="entries must be finite"):
            frozen_array([1.0, bad], "entries")


def test_space_json_roundtrip():
    for space in (sl.lp(2, 3), sl.lp(1, 7), sl.lp(math.inf, 2), sl.sup_slice(5), sl.real_line()):
        assert sl.space_from_json(sl.space_to_json(space)) == space
    assert sl.space_to_json(sl.lp(math.inf, 2))["p"] == "inf"
    with pytest.raises(StructuralError):
        sl.space_from_json({"family": "banach", "dim": 2})
