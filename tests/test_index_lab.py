"""Quotients, family search, regression, and the bound tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import summlab as sl
from summlab.errors import DegenerateInputError, DomainError, StructuralError, ValidityError
from summlab.index_lab import (
    BOUNDS,
    cotype_seam_points,
    exact_cap_violations,
    mult_upper_branch,
    pol_cotype_branch_value,
    power_cap,
)
from summlab.weak_norms import family_q_sum


def _basis(n):
    return sl.VectorFamily.basis(sl.lp(2, n), n)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def test_summing_quotient_examples():
    q = sl.summing_quotient(sl.tensor_witness(2, 3), [_basis(3)] * 2, 2, 2)
    assert q.quotient == pytest.approx(3.0, rel=1e-12)
    assert not q.family_descriptor.conservative

    q = sl.summing_quotient(sl.identity_witness(sl.lp(2, 4)), [_basis(4)], 2, 2)
    assert q.quotient == pytest.approx(2.0, rel=1e-12)

    zero = sl.VectorFamily(sl.lp(2, 3), np.zeros((3, 3)))
    with pytest.raises(DegenerateInputError):
        sl.summing_quotient(sl.identity_witness(sl.lp(2, 3)), [zero], 2, 2)


def test_polynomial_quotient_matches_direct_evaluation():
    n, p = 4, 1 / 3
    poly, anchors = sl.real_even_witness(2, p, sl.lp(2, n), n)
    sample = sl.polynomial_quotient(poly, anchors, p, 2.0)
    # direct evaluation oracle: P(e_k) = a_k^(1/p); weak-2 norm of the basis is 1
    numerator = sum(float(v) ** p for v in poly.body.weights) ** (1 / p)
    assert numerator == pytest.approx(16.0, rel=1e-12)
    assert sample.quotient == pytest.approx(numerator, rel=1e-12)

    # m = 1 polynomial quotient coincides with the linear summing quotient
    ident = sl.identity_witness(sl.lp(2, 3))
    lin = sl.summing_quotient(ident, [_basis(3)], 2, 2)
    poly1 = sl.HomogeneousPolynomial(1, sl.lp(2, 3), sl.lp(2, 3), sl.DenseTensor(np.eye(3)))
    pol = sl.polynomial_quotient(poly1, _basis(3), 2, 2)
    assert pol.quotient == pytest.approx(lin.quotient, rel=1e-12)

    zero = sl.HomogeneousPolynomial(2, sl.lp(2, 3), sl.lp(2, 1), sl.DenseTensor(np.zeros((3, 3, 1))))
    assert sl.polynomial_quotient(zero, _basis(3), 2, 2).quotient == 0.0


def _replayed(numerator, families, q, certificates, power=1):
    """A quotient recomputed from its families: numerator over the product of their q-sums at the certificates."""
    denom = 1.0
    for fam, cert in zip(families, certificates):
        denom *= family_q_sum(fam, q, cert)
    return numerator / denom**power


def test_quotient_samples_replay_bit_for_bit_from_their_families(rng, small_budget):
    # every weak norm, searched or exact, is the q-sum its certificate attains, so each sample
    # replays from its families; ROADMAP direction 1 extends the same replay to every trace sample
    cases = [(sl.lp(2, 4), 2.0, 1.5), (sl.lp(2, 4), 1.0, 3.0), (sl.lp(1.5, 5), 2.0, 2.0), (sl.lp(1.5, 5), 3.0, 0.7)]
    for space, p, q in cases:
        ident = sl.identity_witness(space)
        for n in (2, 5, 8):
            fam = sl.VectorFamily(space, rng.standard_normal((n, space.dimension)))
            sample = sl.summing_quotient(ident, [fam], p, q, small_budget)
            numerator = sl.mixed_power_sum(ident, [fam], p)
            assert _replayed(numerator, [fam], q, sample.family_descriptor.certificates) == sample.quotient
    for n, q in ((3, 1.5), (4, 2.0), (6, 1.0)):
        poly, _ = sl.real_even_witness(2, 0.5, sl.lp(1.5, n), n)
        fam = sl.VectorFamily(poly.domain, rng.standard_normal((n + 1, n)))
        sample = sl.polynomial_quotient(poly, fam, 0.5, q, small_budget)
        numerator = sl.poly_power_sum(poly, fam, 0.5)
        assert _replayed(numerator, [fam], q, sample.family_descriptor.certificates, 2) == sample.quotient
        assert sample.family_descriptor.conservative


def test_quotients_of_scaled_families_do_not_underflow():
    # each power ||y||^3 underflows at these scales, yet the quotient is scale-invariant
    square = sl.HomogeneousPolynomial(2, sl.lp(2, 3), sl.lp(2, 1), sl.DenseTensor(np.eye(3)[..., None]))
    cases = [
        (lambda s: sl.summing_quotient(sl.identity_witness(sl.lp(2, 4)), [_basis(4).scaled(s)], 3, 2), 1e-110),
        (lambda s: sl.summing_quotient(sl.tensor_witness(2, 4), [_basis(4).scaled(s), _basis(4)], 3, 2), 1e-110),
        (lambda s: sl.polynomial_quotient(square, _basis(3).scaled(s), 3, 2), 1e-60),
    ]
    for quotient, scale in cases:
        want = quotient(1.0).quotient
        assert want > 1.0
        assert quotient(scale).quotient == pytest.approx(want, rel=1e-12)


def test_conservative_flag_propagates():
    # q != 2 on a Hilbert family forces the search path
    sample = sl.summing_quotient(sl.identity_witness(sl.lp(2, 3)), [_basis(3)], 3, 3)
    assert sample.family_descriptor.conservative
    assert sample.family_descriptor.weak_norm_exact == (False,)


def test_zero_family_is_refused_before_the_power_sum(monkeypatch):
    import summlab.index_lab as index_lab

    def no_power_sum(*args, **kwargs):
        raise AssertionError("power sum computed for an all-zero family")

    monkeypatch.setattr(index_lab, "mixed_power_sum", no_power_sum)
    monkeypatch.setattr(index_lab, "poly_power_sum", no_power_sum)
    zero = sl.VectorFamily(sl.lp(2, 3), np.zeros((3, 3)))
    with pytest.raises(DegenerateInputError):
        sl.summing_quotient(sl.tensor_witness(2, 3), [_basis(3), zero], 2, 2)
    poly = sl.HomogeneousPolynomial(2, sl.lp(2, 3), sl.lp(2, 1), sl.DenseTensor(np.ones((3, 3, 1))))
    with pytest.raises(DegenerateInputError):
        sl.polynomial_quotient(poly, zero, 2, 2)


@pytest.mark.parametrize("weak", [1e200, 1e-200])
def test_denominator_beyond_the_float_range_is_a_structural_error(weak):
    from summlab.index_lab import _quotient_sample

    res = sl.WeakNormResult(weak, sl.Vector(sl.lp(2, 2), [1.0, 0.0]), True)
    with pytest.raises(StructuralError, match="float range"):
        _quotient_sample(2, lambda: 1.0, [res], 2, "direct")


def test_power_cap_beyond_the_float_range_is_inf():
    assert power_cap(4, 1.5, 1e-6) == 4.0**1.5 * (1.0 + 1e-6)
    assert power_cap(4, 0.5) == 2.0
    # a cap beyond the largest double bounds nothing
    assert power_cap(4, 1e300) == math.inf
    assert power_cap(2, 1024) == math.inf
    assert power_cap(4, -1e300) == 0.0


def test_exact_cap_violations_keep_trace_order_and_skip_conservative():

    def sample(quotient, exact):
        return sl.QuotientSample(4, quotient, sl.Provenance("direct", exact))

    trace = [
        sample(3.0, (True,)),
        sample(9.0, (False,)),  # searched: may overstate, never a violation
        sample(2.5, (True, True)),
        sample(1.0, (True,)),
        sample(7.0, (True, False)),
        sample(2.0, (True,)),  # equal to the cap is not above it
    ]
    assert exact_cap_violations(trace, 2.0) == [trace[0], trace[2]]
    assert exact_cap_violations(trace, 3.0) == []
    assert exact_cap_violations([], 0.0) == []


def test_maximize_quotient_identity():
    for d in (1, 4, 9):
        best = sl.maximize_quotient(sl.identity_witness(sl.lp(2, d)), d, 2, 2, random_starts=2, sweeps=6)
        assert best.quotient == pytest.approx(math.sqrt(d), rel=1e-12)
        assert best.family_descriptor.strategy == "basis"


def test_maximize_quotient_tensor_witness_cap():
    n, m = 4, 2
    best, trace = sl.maximize_quotient(
        sl.tensor_witness(m, n), n, 2, 2, random_starts=3, sweeps=8, return_trace=True
    )
    cap = n ** (m / 2) * (1 + 1e-6)
    assert best.quotient >= n ** (m / 2) * (1 - 1e-12)
    assert all(s.quotient <= cap for s in trace)


def test_trace_samples_have_no_dicts_and_share_one_ascent_label_per_start():
    # a trace keeps one sample and one provenance per evaluated quotient
    poly, anchors = sl.real_even_witness(2, 0.5, sl.lp(2, 2), 2)
    _, trace = sl.maximize_quotient(
        poly, anchors.n, 0.5, 2.0, anchor_families=anchors, random_starts=2, sweeps=3, return_trace=True
    )
    for sample in trace:
        assert not hasattr(sample, "__dict__") and not hasattr(sample.family_descriptor, "__dict__")
    labels = [sample.family_descriptor.strategy for sample in trace]
    assert labels[:3] == ["basis", "anchor", "random[0]"]
    assert set(labels) == {"basis", "anchor", "random[0]", "random[0]+ascent", "random[1]", "random[1]+ascent"}
    for start in range(2):
        ascent = [label for label in labels if label == f"random[{start}]+ascent"]
        assert len(ascent) > 1 and all(label is ascent[0] for label in ascent)


def test_maximize_quotient_single_point():
    poly, anchors = sl.real_even_witness(2, 0.5, sl.lp(2, 2), 2)
    best = sl.maximize_quotient(poly, 1, 0.5, 2.0, anchor_families=anchors.permuted([0]), random_starts=1, sweeps=4)
    cap = sl.operator_norm(poly).value
    assert best.quotient <= cap + 1e-9


def test_maximize_quotient_deterministic():
    t = sl.tensor_witness(2, 3)
    a = sl.maximize_quotient(t, 3, 2, 2, random_starts=2, sweeps=5)
    b = sl.maximize_quotient(t, 3, 2, 2, random_starts=2, sweeps=5)
    assert a.quotient == b.quotient
    assert a.family_descriptor.strategy == b.family_descriptor.strategy


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------


def _samples(pairs):
    return [sl.QuotientSample(n, v, sl.Provenance("synthetic", ())) for n, v in pairs]


def test_estimate_index_exact_power_law():
    est = sl.estimate_index(_samples([(2, 2.0), (4, 4.0), (8, 8.0)]))
    assert est.slope == pytest.approx(1.0, abs=1e-12)
    assert est.intercept == pytest.approx(0.0, abs=1e-12)
    assert est.residual <= 1e-12
    assert est.grid == (2, 4, 8)


def test_estimate_index_constant():
    est = sl.estimate_index(_samples([(2, 3.7), (4, 3.7), (8, 3.7), (16, 3.7)]))
    assert est.slope == pytest.approx(0.0, abs=1e-12)


def test_estimate_index_random_power_laws(rng):
    for _ in range(50):
        slope = float(rng.uniform(-2, 2))
        c = float(rng.uniform(0.1, 10))
        grid = [2, 4, 8, 16]
        est = sl.estimate_index(_samples([(n, c * n**slope) for n in grid]))
        assert est.slope == pytest.approx(slope, abs=1e-12)
        assert est.intercept == pytest.approx(math.log(c), abs=1e-12)
        assert est.residual <= 1e-12


def test_estimate_index_errors():
    with pytest.raises(StructuralError):
        sl.estimate_index(_samples([(2, 1.0), (4, 2.0)]))
    with pytest.raises(StructuralError):
        sl.estimate_index(_samples([(2, 1.0), (2, 2.0), (2, 3.0)]))
    with pytest.raises(DomainError):
        sl.estimate_index(_samples([(2, 1.0), (4, 0.0), (8, 2.0)]))


def test_soundness_extends_to_n16():
    # the module-level soundness invariant reaches n = 16
    checked = 0
    for t, m in [
        (sl.identity_witness(sl.lp(2, 16)), 1),
        (sl.identity_witness(sl.lp(1, 16)), 1),
        (sl.tensor_witness(2, 16), 2),
    ]:
        norm = sl.operator_norm(t)
        assert norm.exact
        for p, q in [(1.0, 2.0), (2.0, 2.0), (3.0, 1.5), (1.5, 4.0)]:
            cap = norm.value * 16 ** sl.upper_bound_mult(m, p, q) * (1 + 1e-6)
            _, trace = sl.maximize_quotient(t, 16, p, q, random_starts=1, sweeps=3, return_trace=True)
            checked += len(exact_cap_violations(trace, -math.inf))
            assert exact_cap_violations(trace, cap) == []
    assert checked > 0  # not vacuous: every exact sample was held to the cap


def test_tensor_witness_slopes():
    for m, grid in [(1, [2, 4, 8, 16]), (2, [2, 4, 8, 16]), (3, [2, 4, 8])]:
        samples = [
            sl.summing_quotient(sl.tensor_witness(m, n), [_basis(n)] * m, 2, 2) for n in grid
        ]
        est = sl.estimate_index(samples)
        assert est.slope == pytest.approx(m / 2, abs=1e-9)
        assert est.residual <= 1e-9


# ---------------------------------------------------------------------------
# bound tables
# ---------------------------------------------------------------------------


def test_upper_bound_mult_values():
    assert sl.upper_bound_mult(2, 2, 2) == pytest.approx(1.0, abs=1e-15)
    assert sl.upper_bound_mult(3, 4, 2) == pytest.approx(0.75, abs=1e-15)
    assert sl.upper_bound_mult(1, 1, 1) == pytest.approx(1.0, abs=1e-15)
    assert sl.upper_bound_mult(2, 1, 4) == pytest.approx(2.5, abs=1e-15)
    assert sl.upper_bound_mult(1, 3, 2) == pytest.approx(1 / 3, abs=1e-15)


@pytest.mark.parametrize("p", [5e-324, 1e-300, 0.3, 1.0, 2.0, 2.5, 7.0, 1e300, 2.0**1023, 1.7976931348623157e308])
def test_identity_cap_exponents_are_the_closed_forms(p):
    # identity_cap_check reads these two; 2.0 * p is beyond the float range from p = 2^1023 on
    assert sl.upper_bound_mult(1, p, p) == max(1.0 / p, 0.5)
    if p > 2.0:
        assert sl.weak2_growth_exponent(p) == 1.0 / p


@pytest.mark.parametrize(
    "p, q, want",
    [(1e200, 1e250, 1.0), (3.0, 1e308, 2.0 * (0.5 + 1.0 / 3.0)), (1e-10, 1.7e308, 2.0 * (0.5 + 1e10)), (1e300, 1.7e308, 1.0)],
)
def test_mult_upper_stays_finite_where_q_times_p_overflows(p, q, want):
    # m(qp - 2p + 2q)/(2qp) is inf / inf = nan, or inf, once q * p or 2q is beyond the float range
    assert sl.upper_bound_mult(2, p, q) == mult_upper_branch(2, p, q, "p_lt_q") == pytest.approx(want, rel=1e-15)


def test_mult_upper_keeps_its_bits_where_q_times_p_is_finite(rng):
    # the finite-range form is kept, so every bound written before keeps its bits
    for _ in range(20000):
        m = int(rng.integers(1, 6))
        q = 2.0 + float(np.exp(rng.uniform(-30, 300)))
        p = q * float(np.exp(rng.uniform(-300, 0)))
        want = m * (q * p - 2.0 * p + 2.0 * q) / (2.0 * q * p)
        if math.isfinite(want) and want > 0:
            assert mult_upper_branch(m, p, q, "p_lt_q") == want


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.1, max_value=8.0),
    st.floats(min_value=2.0, max_value=8.0),
)
def test_upper_bound_mult_branch_continuity(m, p, q):
    # at p = q the two q >= 2 branches agree; at q = 2 all three agree
    assert mult_upper_branch(m, q, q, "p_ge_q") == pytest.approx(m / 2, rel=1e-12)
    assert mult_upper_branch(m, q, q, "p_lt_q") == pytest.approx(m / 2, rel=1e-12)
    assert mult_upper_branch(m, p, 2.0, "p_ge_q") == pytest.approx(m / p, rel=1e-12)
    assert mult_upper_branch(m, p, 2.0, "p_lt_q") == pytest.approx(m / p, rel=1e-12)


def test_upper_bound_pol_values():
    assert sl.upper_bound_pol(2, 0.5, 2) == pytest.approx(2.0, abs=1e-15)
    assert sl.upper_bound_pol(2, 1, 4) == pytest.approx(1.5, abs=1e-15)
    # m=1, q=3, p=2 satisfies p < q/m, so the bound is claimed there
    assert sl.upper_bound_pol(1, 2, 3) == pytest.approx(0.5 + 1 / 6, rel=1e-12)
    with pytest.raises(ValidityError):
        sl.upper_bound_pol(1, 3, 2)  # p >= q/m
    with pytest.raises(ValidityError):
        sl.upper_bound_pol(2, 1, 2)  # boundary p = q/m is excluded


def test_lower_bound_pol_cotype_values():
    # q=1, r=2: branch (b) collapses to 1/p - (m+1)/2
    m = 2
    for p in (0.42, 0.5, 0.62):
        assert sl.lower_bound_pol_cotype(m, p, 1, 2) == pytest.approx(1 / p - 1.5, rel=1e-12)
    # branch (d) example: m=1, q=2, r=3, p=2
    assert sl.lower_bound_pol_cotype(1, 2, 2, 3) == pytest.approx(1 / 6, rel=1e-12)
    # seam: q=2, m=2, r=2 at p = 2r/(mr+2) = 2/3
    p_seam = 2 * 2 / (2 * 2 + 2)
    assert sl.lower_bound_pol_cotype(2, p_seam, 2, 2) == pytest.approx(1.0, rel=1e-12)
    assert pol_cotype_branch_value("d", 2, p_seam, 2, 2) == pytest.approx(1.0, rel=1e-12)


def test_cotype_bound_at_huge_r_takes_the_limit_forms():
    # mr + q, rq and pr overflow at r = 1e308; the seams are then q/m and 2/m, branch (b) is
    # m/2 + 1/p - m/q - 1/r and branch (d) 1/p - 1/r, each finite and on the right side of its seam
    m, q, r = 2, 1.5, 1e308
    assert cotype_seam_points(m, q, r) == (0.75, 1.0)
    assert sl.lower_bound_pol_cotype(m, 0.6, q, r) == 1.0  # below rq/(mr + q): branch (a)
    assert sl.lower_bound_pol_cotype(m, 0.9, q, r) == pytest.approx(1.0 + 1 / 0.9 - 2 / 1.5, rel=1e-15)
    with pytest.raises(ValidityError):
        sl.lower_bound_pol_cotype(m, 1.5, q, r)  # past 2r/(mr + 2): no claim
    assert sl.lower_bound_pol_cotype(m, 2.0, 3.0, r) == 0.5
    for branch, p in (("b", 0.9), ("d", 2.0)):
        assert math.isfinite(pol_cotype_branch_value(branch, m, p, q, r))
    # finite forms keep their bits
    assert cotype_seam_points(2, 1.5, 3.0) == (3.0 * 1.5 / (2 * 3.0 + 1.5), 2.0 * 3.0 / (2 * 3.0 + 2.0))
    assert pol_cotype_branch_value("b", 2, 0.7, 1.5, 3.0) == (2 * 0.7 + 2.0) / (2.0 * 0.7) - (2 * 3.0 + 1.5) / (3.0 * 1.5)


def test_lower_bound_pol_cotype_errors():
    with pytest.raises(DomainError):
        sl.lower_bound_pol_cotype(2, 0.5, 1, 1.5)  # r < 2
    with pytest.raises(DomainError):
        sl.lower_bound_pol_cotype(2, 2.5, 1, 2)  # p >= r
    with pytest.raises(ValidityError):
        sl.lower_bound_pol_cotype(2, 1.5, 1, 2)  # q < 2, p past the (b) range
    with pytest.raises(ValidityError):
        sl.lower_bound_pol_cotype(2, 0.5, 0.5, 2)  # q < 1


def test_lower_bound_pol_real_even_values():
    assert sl.lower_bound_pol_real_even(2, 1 / 3, 1) == pytest.approx(1.0, rel=1e-12)
    assert sl.lower_bound_pol_real_even(2, 0.4, 3) == pytest.approx(1.0, rel=1e-12)
    assert sl.lower_bound_pol_real_even(2, 0.8, 2) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(DomainError):
        sl.lower_bound_pol_real_even(3, 0.4, 2)
    with pytest.raises(ValidityError):
        sl.lower_bound_pol_real_even(2, 1.2, 3)  # p >= 1 in branch (d)


def test_seam_continuity_sweep():
    for m in (2, 4):
        for q in (1.0, 1.5, 2.0, 3.0):
            for r in (2.0, 2.5, 3.0):
                gaps = sl.seam_continuity_gaps(m, q, r)
                assert gaps, f"no seams applicable at {(m, q, r)}"
                for name, gap in gaps.items():
                    assert gap <= 1e-12, (m, q, r, name, gap)


def test_lower_below_upper_where_both_valid(rng):
    # wherever a lower-bound branch and the polynomial upper bound are both
    # claimed, the lower bound cannot exceed the upper bound
    for _ in range(500):
        m = int(rng.integers(1, 5))
        p = float(rng.uniform(0.05, 4.0))
        q = float(rng.uniform(1.0, 6.0))
        r = float(rng.uniform(2.0, 4.0))
        try:
            upper = sl.upper_bound_pol(m, p, q)
        except (ValidityError, DomainError):
            continue
        try:
            lower = sl.lower_bound_pol_cotype(m, p, q, r)
            assert lower <= upper + 1e-12
        except (ValidityError, DomainError):
            pass
        if m % 2 == 0:
            try:
                lower = sl.lower_bound_pol_real_even(m, p, q)
                assert lower <= upper + 1e-12
            except (ValidityError, DomainError):
                pass


# ---------------------------------------------------------------------------
# exact cases, shifts, growth exponents
# ---------------------------------------------------------------------------


def test_exact_index_values():
    assert sl.exact_index("l2_to_c0", m=3).value == pytest.approx(1.5, abs=1e-15)
    assert sl.exact_index("l1_to_l2", m=1, p=0.8).value == pytest.approx(0.25, rel=1e-12)
    assert sl.exact_index("sup_to_cotype", p=1.5, r=2).value == pytest.approx(1 / 6, rel=1e-12)
    with pytest.raises(ValidityError):
        sl.exact_index("l1_to_l2", m=1, p=1.0)
    with pytest.raises(ValidityError):
        sl.exact_index("sup_to_cotype", p=4.0, r=2)
    with pytest.raises(ValidityError):
        sl.exact_index("no_such_case")


def test_exact_cases_match_lower_bound_branches(rng):
    for _ in range(100):
        m = int(rng.integers(1, 5))
        lo, hi = 2 / (2 * m + 1), 2 / (m + 1)
        p = float(rng.uniform(lo, hi * 0.999))
        got = sl.exact_index("l1_to_l2", m=m, p=p).value
        assert got == pytest.approx(sl.lower_bound_pol_cotype(m, p, 1, 2), abs=1e-12)
        assert got == pytest.approx(sl.index_shift(p, hi, 0.0), abs=1e-12)

        r = float(rng.uniform(2.0, 4.0))
        p2 = float(rng.uniform(2 * r / (r + 2) * 1.001, r * 0.999))
        got = sl.exact_index("sup_to_cotype", p=p2, r=r).value
        assert got == pytest.approx(sl.lower_bound_pol_cotype(1, p2, 2, r), abs=1e-12)
        assert got == pytest.approx(sl.index_shift(p2, r, 0.0), abs=1e-12)


@pytest.mark.parametrize("m", [1.5, 2.5, math.nan, 0, None])
def test_exact_cases_refuse_an_order_that_is_not_a_positive_integer(m):
    # as every other bound does; l2_to_c0 gave m/2 and l1_to_l2 its formula at a fractional m
    with pytest.raises(DomainError, match="order m must be a positive integer"):
        sl.exact_index("l2_to_c0", m=m)
    with pytest.raises(DomainError, match="order m must be a positive integer"):
        sl.exact_index("l1_to_l2", m=m, p=0.5)


@pytest.mark.parametrize("r", [math.inf, math.nan, 1.5])
def test_sup_to_cotype_refuses_a_target_cotype_that_is_not_finite_and_at_least_2(r):
    # at r = inf the range check read "exact only for nan < p < inf"
    with pytest.raises(DomainError, match="target cotype must be a finite r >= 2"):
        sl.exact_index("sup_to_cotype", p=1.5, r=r)


@pytest.mark.parametrize("args", [(2.5, 0.5, 1.0), (1.5, 2.0, 2.0)])
def test_bound_table_has_no_valid_entry_at_a_fractional_order(args):
    # the exact cases listed l1_to_l2 = 0.25 and l2_to_c0 = 0.75 as valid here
    entries = sl.bound_table(*args)
    assert entries and not any(e.valid for e in entries)


def test_index_shift():
    assert sl.index_shift(0.8, 1.0, 0.0) == pytest.approx(0.25, rel=1e-12)
    eps = 1e-6
    assert sl.index_shift(1.0 - eps, 1.0, 0.0) == pytest.approx(eps, rel=1e-3)
    with pytest.raises(DomainError):
        sl.index_shift(1.0, 1.0, 0.0)


def test_interpolation_growth_exponent():
    assert sl.interpolation_growth_exponent(2, 2) == pytest.approx(0.5, abs=1e-15)
    assert sl.interpolation_growth_exponent(2, 1) == pytest.approx(0.0, abs=1e-15)
    assert sl.interpolation_growth_exponent(1.5, 1.5) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        sl.interpolation_growth_exponent(1.2, 1.5)


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=1.0, max_value=2.0))
def test_interpolation_diagonal_is_half(s):
    assert sl.interpolation_growth_exponent(s, s) == pytest.approx(0.5, rel=1e-12)


def test_weak2_growth_exponent():
    assert sl.weak2_growth_exponent(4.0) == pytest.approx(0.25, abs=1e-15)
    assert sl.weak2_growth_exponent(2.5) == pytest.approx(0.4, abs=1e-15)
    assert sl.weak2_growth_exponent(2.0 + 1e-9) == pytest.approx(0.5, rel=1e-6)
    with pytest.raises(DomainError):
        sl.weak2_growth_exponent(2.0)
    assert sl.WEAK2_GROWTH_CONSTANT == pytest.approx(1 / (2 * math.e), rel=1e-15)


def test_bound_table_assembly():
    entries = sl.bound_table(2, 2.0, 2.0, 2.0)
    kinds = {(e.kind, e.valid) for e in entries}
    assert ("mult_upper", True) in kinds
    # p = r = 2 sits outside the cotype lower bound's p < r range
    assert ("pol_lower_cotype", False) in kinds
    mult = next(e for e in entries if e.kind == "mult_upper")
    assert mult.value == pytest.approx(1.0)
    exact = [e for e in entries if e.kind == "exact" and e.valid]
    assert any(e.value == pytest.approx(1.0) for e in exact)
    # pol_upper is invalid at p = q = 2, m = 2 (needs p < q/m = 1)
    pol_up = next(e for e in entries if e.kind == "pol_upper")
    assert not pol_up.valid and pol_up.value is None

    entries = sl.bound_table(2, 0.5, 2.0, 2.0)
    cot = next(e for e in entries if e.kind == "pol_lower_cotype")
    assert cot.valid and cot.value == pytest.approx(1.0)
    even = next(e for e in entries if e.kind == "pol_lower_real_even")
    assert even.valid and even.value == pytest.approx(1.0)

    # off the domain a seam formula divides by zero; the table still assembles
    assert not any(e.valid for e in sl.bound_table(0, 0.5, 0.0, 2.0))


@pytest.mark.parametrize(
    "args, reading",
    [
        ((2, math.nan, 2.0), None),
        ((2, 0.5, math.nan), None),
        ((1, math.nan, 2.0, 3.0), None),
        ((2, 0.5, 2.0, math.nan), {"pol_lower_cotype"}),
        ((1, 3.0, 2.0, math.nan), {"pol_lower_cotype", "exact"}),
    ],
    ids=["p", "q", "p-with-r", "r", "r-at-m1-q2"],
)
def test_nan_parameter_makes_every_bound_that_reads_it_invalid(args, reading):
    # every guard is a comparison that NaN fails; ``reading`` None: every bound reads the NaN
    entries = sl.bound_table(*args)
    assert not any(e.valid for e in entries if reading is None or e.kind in reading)
    assert all(math.isfinite(e.value) for e in entries if e.valid)


def test_weak2_growth_exponent_refuses_nan():
    with pytest.raises(DomainError):
        sl.weak2_growth_exponent(math.nan)


_MULT_BRANCH_KEYS = {
    "q<=2: m/p": "low_q",
    "q>=2, p>=q: mq/(2p)": "p_ge_q",
    "q>=2, p<q: m(qp-2p+2q)/(2qp)": "p_lt_q",
}


def _real_even_branch_value(branch, m, p, q):
    # the paper's scalar even-degree formulas, written out as the reference
    if branch in ("a", "c"):
        return m / 2.0
    if branch == "b":
        return (m * p + 2.0) / (2.0 * p) - (m + q) / q
    return (1.0 - p) / p


def test_bound_table_values_follow_their_branch_labels():
    seen = set()
    for m in (1, 2, 3, 4):
        for q in (1.0, 1.5, 2.0, 3.0, 4.0):
            for r in (2.0, 3.0, 4.0):
                seams = {q, 2.0, *cotype_seam_points(m, q, r), q / (m + q), 2.0 / (m + 2.0)}
                for p in sorted({0.2, 0.5, 0.9, 1.5, 2.5} | seams):
                    for e in sl.bound_table(m, p, q, r):
                        if not e.valid:
                            continue
                        if e.kind == "mult_upper":
                            raw = mult_upper_branch(m, p, q, _MULT_BRANCH_KEYS[e.branch])
                        elif e.kind == "pol_lower_cotype":
                            raw = pol_cotype_branch_value(e.branch[1], m, p, q, r)
                        elif e.kind == "pol_lower_real_even":
                            raw = _real_even_branch_value(e.branch[1], m, p, q)
                        else:
                            continue
                        assert e.value == raw, (e.kind, e.branch, m, p, q, r)
                        seen.add((e.kind, e.branch))
    assert len(seen) == 3 + 4 + 4  # every branch of the three tables was hit


def _dense(domain, codomain):
    shape = tuple(space.dimension for space in (*domain, codomain))
    return sl.MultilinearMap(tuple(domain), codomain, sl.DenseTensor(np.ones(shape)))


# maps of every kind with their order m, target cotype r and facts, each written out by hand
_MAPS_WITH_FACTS = [
    (sl.tensor_witness(2, 3), 2, None, {"multilinear", "vector codomain", "l_2 domain", "sup codomain"}),
    (sl.identity_witness(sl.lp(1, 3)), 1, 2.0, {"multilinear", "vector codomain", "l_1 domain", "cotype r codomain", "cotype 2 codomain"}),
    (sl.identity_witness(sl.sup_slice(3)), 1, None, {"multilinear", "vector codomain", "sup domain", "sup codomain"}),
    (sl.diagonal_product_map(2, 3, sl.lp(1, 3)), 2, None, {"multilinear", "vector codomain", "l_1 domain", "sup codomain"}),
    (
        sl.cotype_witness(2, 0.5, sl.lp(2, 3), 3.0, 3)[0],
        2,
        3.0,
        {"polynomial", "vector codomain", "l_2 domain", "cotype r codomain", "cotype 3 codomain"},
    ),
    (
        sl.cotype_witness(2, 0.5, sl.lp(1, 3), 2.0, 3)[0],
        2,
        2.0,
        {"polynomial", "vector codomain", "l_1 domain", "cotype r codomain", "cotype 2 codomain"},
    ),
    (sl.real_even_witness(2, 0.5, sl.lp(1.5, 3), 3)[0], 2, None, {"polynomial", "scalar", "l_1.5 domain"}),
    (_dense([sl.lp(1, 2), sl.lp(3, 2)], sl.lp(2, 2)), 2, 2.0, {"multilinear", "vector codomain", "cotype r codomain", "cotype 2 codomain"}),
    (_dense([sl.sup_slice(2)], sl.lp(3, 2)), 1, 3.0, {"multilinear", "vector codomain", "sup domain", "cotype r codomain", "cotype 3 codomain"}),
]


def test_bound_refs_are_the_valid_entries_of_the_rows_whose_needs_hold():
    # each row's hypotheses, as README's bound-reference table states them
    assert {name: set(row.needs) for name, row in BOUNDS.items()} == {
        "mult_upper": set(),
        "pol_upper": {"polynomial"},
        "pol_lower_cotype": {"polynomial", "vector codomain"},
        "pol_lower_real_even": {"polynomial", "scalar"},
        "l2_to_c0": {"multilinear", "l_2 domain", "sup codomain"},
        "l1_to_l2": {"polynomial", "l_1 domain", "cotype 2 codomain"},
        "sup_to_cotype": {"sup domain", "cotype r codomain"},
    }
    cited = set()
    for map_obj, m, r, facts in _MAPS_WITH_FACTS:
        for p in (0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 4.0):
            for q in (1.0, 1.5, 2.0, 3.0):
                entries = iter(sl.bound_table(m, p, q, r))
                want = []
                for name, row in BOUNDS.items():
                    if row.at(m, p, q, r) is None:
                        continue
                    entry = next(entries)  # the table lists its rows in BOUNDS order
                    assert (entry.kind, entry.branch) == (row.kind, row.at(m, p, q, r)[0])
                    if entry.valid and row.needs <= facts:
                        want.append(entry)
                        cited.add(name)
                assert next(entries, None) is None
                assert sl.bound_refs(map_obj, p, q) == want, (map_obj, p, q)
    assert cited == set(BOUNDS)  # every row is cited by some map
