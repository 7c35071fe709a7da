"""Witness constructors: normalizations, caps, anchor inequalities."""

import numpy as np
import pytest

import summlab as sl
from summlab.errors import BudgetError, DomainError, StructuralError
from summlab.maps import _poly_outputs
from summlab.spaces import coord_norm
from summlab.witnesses import _norm_bound, _verify_witness


def test_coefficient_rules():
    poly, _ = sl.cotype_witness(2, 0.5, sl.lp(2, 4), 2.0, 4)
    np.testing.assert_allclose(poly.body.a, 4 ** (-0.25))
    assert abs((poly.body.a ** (2.0 / 0.5)).sum() - 1.0) <= 1e-12

    poly, _ = sl.real_even_witness(2, 0.5, sl.lp(2, 3), 3)
    np.testing.assert_allclose(poly.body.a, 3 ** (-0.5))
    assert abs((poly.body.a ** (1.0 / 0.5)).sum() - 1.0) <= 1e-12

    # the normalization is checked where the polynomial is built: sum a^(1/p) = 0.5 here
    body = sl.WitnessBody(np.array([0.5, 0.5]), np.eye(2), 0.5)
    with pytest.raises(StructuralError):
        sl.HomogeneousPolynomial(2, sl.lp(2, 2), sl.real_line(), body)
    with pytest.raises(StructuralError):
        sl.WitnessBody(np.array([-0.5, 0.5]), np.eye(2), 0.5)


def test_tensor_witness_quotients():
    # m=2, n=3 basis families at p=q=2: numerator n^(m/2), denominators 1
    t = sl.tensor_witness(2, 3)
    fams = [sl.VectorFamily.basis(sl.lp(2, 3), 3)] * 2
    assert sl.mixed_power_sum(t, fams, 2.0) == pytest.approx(3.0, rel=1e-12)

    t = sl.tensor_witness(1, 5)
    assert sl.mixed_power_sum(t, [sl.VectorFamily.basis(sl.lp(2, 5), 5)], 2.0) == pytest.approx(
        np.sqrt(5), rel=1e-12
    )

    sample = sl.summing_quotient(sl.tensor_witness(2, 2), [sl.VectorFamily.basis(sl.lp(2, 2), 2)] * 2, 2, 2)
    assert sample.quotient == pytest.approx(2.0, rel=1e-12)

    # the O(1) body is built at any size; the power sum enforces the tuple budget
    t = sl.tensor_witness(3, 10)
    with pytest.raises(BudgetError):
        sl.mixed_power_sum(t, [sl.VectorFamily.basis(sl.lp(2, 10), 10)] * 3, 2.0, tuple_budget=100)


def test_cotype_witness_construction():
    poly, anchors = sl.cotype_witness(2, 0.5, sl.lp(2, 4), 2.0, 4)
    np.testing.assert_allclose(poly.body.a, 4 ** (-0.25), rtol=1e-15)
    assert poly.codomain == sl.lp(2, 4)
    # anchors are the basis, functionals norm them
    np.testing.assert_array_equal(anchors.matrix, np.eye(4))
    np.testing.assert_allclose(poly.body.functionals @ anchors.matrix.T, np.eye(4), atol=1e-12)

    with pytest.raises(DomainError):
        sl.cotype_witness(2, 2.5, sl.lp(2, 4), 2.0, 4)  # needs p < r
    with pytest.raises(DomainError):
        sl.cotype_witness(2, 0.5, sl.lp(2, 4), 1.5, 4)  # target cotype below 2
    with pytest.raises(StructuralError):
        sl.cotype_witness(2, 0.5, sl.lp(2, 3), 2.0, 4)  # basis anchors need dim >= n


def test_cotype_witness_norm_cap_and_anchor_floor(rng):
    for _ in range(8):
        n = int(rng.integers(2, 7))
        m = int(rng.choice([1, 2, 3]))
        r = float(rng.choice([2.0, 2.5, 3.0]))
        p = float(rng.uniform(0.2, min(1.5, r - 0.1)))
        rows = rng.standard_normal((n, n + 1))
        rows /= np.atleast_1d(coord_norm(sl.lp(2, n + 1), rows, axis=1))[:, None]
        anchors_in = sl.VectorFamily(sl.lp(2, n + 1), rows)
        poly, anchors = sl.cotype_witness(m, p, sl.lp(2, n + 1), r, n, anchors=anchors_in)
        assert sl.operator_norm(poly).value <= 1 + 1e-9
        outs = np.atleast_1d(coord_norm(poly.codomain, _poly_outputs(poly, anchors.matrix), axis=-1))
        floors = poly.body.weights * anchors.norms() ** m
        assert np.all(outs >= floors - 1e-10)


def test_norm_bound_is_certified_on_random_witnesses(rng, small_budget):
    # the bound from the construction is never below the searched norm and never above the cap 1
    domains = [lambda d: sl.lp(1, d), lambda d: sl.lp(1.5, d), lambda d: sl.lp(2, d), lambda d: sl.lp(3, d), sl.sup_slice]
    for trial in range(120):
        n = int(rng.integers(1, 6))
        space = domains[trial % len(domains)](n + int(rng.integers(0, 2)))
        anchors = "basis"
        if trial % 2:
            anchors = sl.VectorFamily(space, rng.standard_normal((n, space.dimension)))
        if trial % 4 < 2:
            m, r = int(rng.integers(1, 5)), float(rng.choice([2.0, 2.5, 3.0]))
            poly, _ = sl.cotype_witness(m, float(rng.uniform(0.2, 1.9)), space, r, n, anchors=anchors)
        else:
            poly, _ = sl.real_even_witness(int(rng.choice([2, 4])), float(rng.uniform(0.15, 0.9)), space, n, anchors=anchors)
        assert sl.operator_norm(poly, small_budget).value - 1e-12 <= _norm_bound(poly) <= 1 + 1e-9


def test_verify_witness_rejects_a_cap_the_search_cannot_see():
    # certified bound 1.0 (basis functionals, equal weights 1/2 in l_2^4); the searched norm is 0.5
    poly, anchors = sl.cotype_witness(2, 0.5, sl.lp(2, 4), 2.0, 4)
    assert _norm_bound(poly) == pytest.approx(1.0, rel=1e-15)
    assert sl.operator_norm(poly).value < 0.75
    with pytest.raises(StructuralError):
        _verify_witness(poly, anchors, 0.75)
    _verify_witness(poly, anchors, 1.0)


def test_real_even_witness_construction():
    poly, anchors = sl.real_even_witness(2, 0.5, sl.lp(2, 3), 3)
    np.testing.assert_allclose(poly.body.a, 3 ** (-0.5), rtol=1e-15)
    assert abs((poly.body.a ** 2.0).sum() - 1.0) <= 1e-12
    assert poly.codomain.dimension == 1

    with pytest.raises(DomainError):
        sl.real_even_witness(3, 0.5, sl.lp(2, 3), 3)  # odd degree
    with pytest.raises(DomainError):
        sl.real_even_witness(2, 1.0, sl.lp(2, 3), 3)  # needs p < 1


def test_real_even_witness_cap_and_floor(rng):
    for _ in range(8):
        n = int(rng.integers(2, 7))
        m = int(rng.choice([2, 4]))
        p = float(rng.uniform(0.15, 0.9))
        poly, anchors = sl.real_even_witness(m, p, sl.lp(2, n), n)
        assert sl.operator_norm(poly).value <= 1 + 1e-9
        outs = _poly_outputs(poly, anchors.matrix)[:, 0]
        floors = poly.body.weights * anchors.norms() ** m
        assert np.all(outs >= floors - 1e-10)


def test_identity_witness_quotients():
    # basis family at p=q=2 gives sqrt(d)
    ident = sl.identity_witness(sl.lp(2, 4))
    sample = sl.summing_quotient(ident, [sl.VectorFamily.basis(sl.lp(2, 4), 4)], 2, 2)
    assert sample.quotient == pytest.approx(2.0, rel=1e-12)

    # p = q > 2: numerator n^(1/p), searched weak norm must find 1
    for p in (3.0, 4.0):
        n = 5
        ident = sl.identity_witness(sl.lp(2, n))
        sample = sl.summing_quotient(ident, [sl.VectorFamily.basis(sl.lp(2, n), n)], p, p)
        assert sample.quotient == pytest.approx(n ** (1 / p), rel=1e-9)
        assert sample.family_descriptor.conservative  # searched denominator

    one = sl.identity_witness(sl.lp(2, 1))
    sample = sl.summing_quotient(one, [sl.VectorFamily.basis(sl.lp(2, 1), 1)], 2, 2)
    assert sample.quotient == pytest.approx(1.0, rel=1e-12)


def test_diagonal_product_map_shape_check():
    with pytest.raises(StructuralError):
        sl.diagonal_product_map(2, 3, sl.lp(1, 4))
