"""Oracle equivalence and the classical growth checks."""

import numpy as np
import pytest

import summlab as sl
from summlab.errors import BudgetError, DomainError, StructuralError

from conftest import random_family


def _random_map(rng, m, n, d_out=2):
    space = sl.lp(2, n)
    coeffs = rng.standard_normal((n,) * m + (d_out,))
    return sl.MultilinearMap((space,) * m, sl.lp(2, d_out), sl.DenseTensor(coeffs))


def test_brute_force_matches_optimized(rng):
    # the optimized reduction against the serial naive loop
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        fam_len = int(rng.integers(2, 6))
        p = float(rng.choice([0.7, 1.0, 2.0, 3.2]))
        if rng.integers(0, 2):
            t = sl.tensor_witness(m, n)
        else:
            t = _random_map(rng, m, n)
        fams = [random_family(rng, t.domain[i], fam_len) for i in range(m)]
        a = sl.mixed_power_sum(t, fams, p)
        b = sl.brute_force_mixed_sum(t, fams, p)
        assert a == pytest.approx(b, rel=1e-12)


def test_brute_force_identity_basis():
    t = sl.identity_witness(sl.lp(2, 9))
    fam = sl.VectorFamily.basis(sl.lp(2, 9), 9)
    assert sl.brute_force_mixed_sum(t, [fam], 2.0) == pytest.approx(3.0, rel=1e-12)


def test_brute_force_zero_map():
    space = sl.lp(2, 2)
    t = sl.MultilinearMap((space,), space, sl.DenseTensor(np.zeros((2, 2))))
    assert sl.brute_force_mixed_sum(t, [sl.VectorFamily.basis(space, 2)], 2.0) == 0.0


def test_brute_force_budget():
    t = sl.tensor_witness(3, 50)
    fams = [sl.VectorFamily.basis(sl.lp(2, 50), 50)] * 3
    with pytest.raises(BudgetError):
        sl.brute_force_mixed_sum(t, fams, 2.0)


def test_sampling_oracle_basis_family():
    fam = sl.VectorFamily.basis(sl.lp(2, 3), 3)
    val = sl.brute_force_weak_norm(fam, 2.0, resolution=10**5)
    assert abs(val - 1.0) <= 1e-3


def test_sampling_oracle_single_vector(rng):
    space = sl.lp(2, 3)
    v = rng.standard_normal(3)
    fam = sl.VectorFamily(space, v[None, :])
    val = sl.brute_force_weak_norm(fam, 2.0, resolution=10**5)
    want = sl.Vector(space, v).norm()
    assert abs(val - want) / want <= 1e-3


def test_sampling_oracle_vs_svd(rng):
    for _ in range(5):
        d = int(rng.integers(2, 5))
        fam = random_family(rng, sl.lp(2, d), int(rng.integers(2, 5)))
        svd = sl.weak_norm(fam, 2.0).value
        val = sl.brute_force_weak_norm(fam, 2.0, resolution=10**6)
        assert val <= svd * (1 + 1e-12)
        assert abs(val - svd) / svd <= 1e-3


def test_sampling_oracle_budget():
    fam = sl.VectorFamily.basis(sl.lp(2, 7), 2)
    with pytest.raises(BudgetError):
        sl.brute_force_weak_norm(fam, 2.0)
    fam = sl.VectorFamily.basis(sl.lp(2, 3), 2)
    with pytest.raises(BudgetError):
        sl.brute_force_weak_norm(fam, 2.0, resolution=10**8)


def test_hilbert_identity_check_small():
    for d in (1, 2, 4):
        rep = sl.hilbert_identity_check(d)
        assert rep.passed, rep.details
    with pytest.raises(DomainError):
        sl.hilbert_identity_check(64)


def test_identity_growth_check():
    rep = sl.identity_growth_check(4.0, [2, 4, 8, 16])
    assert rep.passed, rep.details
    assert rep.details["slope"] == pytest.approx(0.25, abs=0.01)
    with pytest.raises(DomainError):
        sl.identity_growth_check(2.0, [2, 4, 8])


def test_identity_growth_quotient_arithmetic():
    # basis family arithmetic: numerator n^(1/q), weak-2 norm 1
    n, q = 16, 4.0
    ident = sl.identity_witness(sl.lp(2, n))
    sample = sl.summing_quotient(ident, [sl.VectorFamily.basis(sl.lp(2, n), n)], q, 2.0)
    assert sample.quotient == pytest.approx(2.0, rel=1e-12)
    assert sample.quotient >= sl.WEAK2_GROWTH_CONSTANT * 2.0


def test_identity_cap_check_grid():
    # the full grid the check is contracted to pass on
    for p in (0.5, 1.0, 2.0, 4.0):
        for d in (2, 4, 9, 16):
            rep = sl.identity_cap_check(p, d)
            assert rep.passed, rep.details
            if p >= 1.0:
                assert rep.details["exact_path_quotients"] > 0
    with pytest.raises(DomainError):
        sl.identity_cap_check(2.0, 17)


def test_identity_cap_check_quasi_norm_p():
    # at p = 0.5 no exact weak-norm path exists at n = d >= 2; the assertion
    # set is empty but the closed-form basis quotient still gets checked
    rep = sl.identity_cap_check(0.5, 4)
    assert rep.passed, rep.details
    assert rep.details["exact_path_quotients"] == 0
    assert rep.details["basis_quotient_closed_form"] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("p", [1e-300, 1e300])
def test_identity_cap_check_beyond_the_float_range_is_a_structural_error(p):
    # d^(1/p) overflows at p = 1e-300 and the weak 1e300-norm search overflows at
    # p = 1e300: both are refused as values beyond the float range, not OverflowError
    with pytest.raises(StructuralError):
        sl.identity_cap_check(p, 4)
