"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import itertools
import math

import numpy as np
import pytest

import summlab as sl
from summlab.index_lab import exact_cap_violations
from summlab.maps import _poly_outputs
from summlab.spaces import coord_norm
from summlab.weak_norms import family_q_sum

SEED = 20260810


def _report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_hilbert_identity_equality():
    """sqrt(d) equality of the identity quotient on l_2^d at p = q = 2."""
    worst = 0.0
    for d in (1, 2, 4, 9, 16, 25, 32):
        space = sl.lp(2, d)
        ident = sl.identity_witness(space)
        best = sl.maximize_quotient(ident, d, 2, 2, random_starts=2, sweeps=8)
        expected = math.sqrt(d)
        assert expected - 1e-9 <= best.quotient <= expected + 1e-6, (d, best.quotient)
        basis = sl.summing_quotient(ident, [sl.VectorFamily.basis(space, d)], 2, 2)
        assert abs(basis.quotient - expected) <= 1e-12 * expected, (d, basis.quotient)
        worst = max(worst, abs(best.quotient - expected))
    _report(1, True, f"identity quotient = sqrt(d) for d up to 32 (worst gap {worst:.2e})")


def test_criterion_2_diagonal_witness_slopes():
    """Diagonal-witness slope m/2 with residual <= 1e-9 and a hard cap."""
    for m, grid in [(1, [2, 4, 8, 16]), (2, [2, 4, 8, 16]), (3, [2, 4, 8])]:
        samples = []
        for n in grid:
            best, trace = sl.maximize_quotient(
                sl.tensor_witness(m, n), n, 2, 2, random_starts=2, sweeps=8, return_trace=True
            )
            cap = n ** (m / 2) * (1 + 1e-6)
            for s in trace:
                assert s.quotient <= cap, (m, n, s.quotient, cap)
            assert best.quotient == pytest.approx(n ** (m / 2), rel=1e-12)
            samples.append(best)
        est = sl.estimate_index(samples)
        assert est.slope == pytest.approx(m / 2, abs=1e-9), (m, est.slope)
        assert est.residual <= 1e-9, (m, est.residual)
    _report(2, True, "slopes m/2 at m = 1, 2, 3 with residual <= 1e-9, no family beat n^(m/2)")


def test_criterion_3_upper_bound_soundness():
    """No exact-path quotient exceeds ||T|| n^(upper bound) on the grid."""
    grid_pq = [1.0, 1.5, 2.0, 3.0, 4.0]
    checked = 0
    for n in (2, 4, 8):
        instances = [
            (sl.identity_witness(sl.lp(1, n)), 1),
            (sl.identity_witness(sl.lp(2, n)), 1),
            (sl.identity_witness(sl.sup_slice(n)), 1),
            (sl.tensor_witness(2, n), 2),
            (sl.diagonal_product_map(2, n, sl.lp(1, n)), 2),
        ]
        for t, m in instances:
            norm = sl.operator_norm(t)
            assert norm.exact
            for p, q in itertools.product(grid_pq, grid_pq):
                cap = norm.value * n ** sl.upper_bound_mult(m, p, q) * (1 + 1e-6)
                _, trace = sl.maximize_quotient(
                    t, n, p, q, random_starts=2, sweeps=6, return_trace=True
                )
                checked += len(exact_cap_violations(trace, -math.inf))
                assert exact_cap_violations(trace, cap) == [], (repr(t.domain), n, p, q, cap)
    _report(3, True, f"{checked} exact-path quotients under the piecewise caps, zero violations")


def test_criterion_4_weak2_growth():
    """Identity growth at (q, 2): slope 1/q +- 0.01 and the (2e)^-1 floor."""
    for q in (2.5, 3.0, 4.0):
        rep = sl.identity_growth_check(q, [2, 4, 8, 16])
        assert rep.passed, rep.details
        assert abs(rep.details["slope"] - 1.0 / q) <= 0.01
        for row in rep.details["rows"]:
            assert row["quotient"] >= sl.WEAK2_GROWTH_CONSTANT * row["n"] ** (1.0 / q)
    _report(4, True, "slopes 1/q for q in {2.5, 3, 4} with every quotient above the floor")


def test_criterion_5_seam_continuity():
    """Adjacent lower-bound branches agree at all four seam formulas."""
    worst = 0.0
    count = 0
    for m in (2, 4):
        for q in (1.0, 1.5, 2.0, 3.0):
            for r in (2.0, 2.5, 3.0):
                gaps = sl.seam_continuity_gaps(m, q, r)
                assert gaps
                for name, gap in gaps.items():
                    count += 1
                    worst = max(worst, gap)
                    assert gap <= 1e-12, (m, q, r, name, gap)
    _report(5, True, f"{count} seam evaluations, worst gap {worst:.2e} <= 1e-12")


def test_criterion_6_exact_case_consistency():
    """Exact indices equal the lower-bound branches and the shifted uppers."""
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        lo, hi = 2.0 / (2 * m + 1), 2.0 / (m + 1)
        p = float(rng.uniform(lo, hi * 0.999))
        exact = sl.exact_index("l1_to_l2", m=m, p=p).value
        assert abs(exact - sl.lower_bound_pol_cotype(m, p, 1.0, 2.0)) <= 1e-12
        assert abs(exact - sl.index_shift(p, hi, 0.0)) <= 1e-12

        r = float(rng.uniform(2.0, 4.0))
        p2 = float(rng.uniform(2 * r / (r + 2) * 1.001, r * 0.999))
        exact = sl.exact_index("sup_to_cotype", p=p2, r=r).value
        assert abs(exact - sl.lower_bound_pol_cotype(1, p2, 2.0, r)) <= 1e-12
        assert abs(exact - sl.index_shift(p2, r, 0.0)) <= 1e-12

        assert abs(sl.exact_index("l2_to_c0", m=m).value - sl.upper_bound_mult(m, 2, 2)) <= 1e-12
    _report(6, True, "100 random draws: exact = lower branch = shifted upper to 1e-12")


def test_criterion_7_witness_inequalities():
    """50 random witnesses: norm cap 1 + 1e-9 and the anchor floor."""
    rng = np.random.default_rng(SEED + 7)
    built = 0
    while built < 50:
        n = int(rng.integers(2, 7))
        d = n + int(rng.integers(0, 3))
        use_basis = bool(rng.integers(0, 2))
        space = sl.lp(float(rng.choice([1.0, 2.0, 3.0])), d)
        if use_basis:
            anchors_in = "basis"
        else:
            rows = rng.standard_normal((n, d))
            rows /= np.atleast_1d(coord_norm(space, rows, axis=1))[:, None]
            anchors_in = sl.VectorFamily(space, rows)
        if rng.integers(0, 2):
            m = int(rng.choice([1, 2, 3]))
            r = float(rng.choice([2.0, 2.5, 3.0]))
            p = float(rng.uniform(0.2, min(1.2, r - 0.05)))
            poly, anchors = sl.cotype_witness(m, p, space, r, n, anchors=anchors_in)
        else:
            m = int(rng.choice([2, 4]))
            p = float(rng.uniform(0.15, 0.9))
            poly, anchors = sl.real_even_witness(m, p, space, n, anchors=anchors_in)
        built += 1
        # full-budget norm search never exceeds the closed-form cap
        assert sl.operator_norm(poly).value <= 1 + 1e-9
        outs = np.atleast_1d(coord_norm(poly.codomain, _poly_outputs(poly, anchors.matrix), axis=-1))
        floors = poly.body.weights * anchors.norms() ** poly.degree
        assert np.all(outs >= floors - 1e-10)
    _report(7, True, "50 witnesses: ||P|| <= 1 + 1e-9 and anchor floors hold to 1e-10")


def test_criterion_8_oracle_equivalence():
    """Optimized reductions against the naive oracles."""
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for trial in range(200):
        m = int(rng.integers(1, 4))
        n_dim = int(rng.integers(2, 5))
        fam_len = int(rng.integers(2, 8)) if trial % 10 else int(rng.integers(8, 21))
        if fam_len**m > 10**5:
            fam_len = 4
        p = float(rng.choice([0.6, 1.0, 1.7, 2.0, 3.0]))
        if rng.integers(0, 2):
            t = sl.tensor_witness(m, n_dim)
        else:
            d_out = int(rng.integers(1, 4))
            t = sl.MultilinearMap(
                (sl.lp(2, n_dim),) * m,
                sl.lp(float(rng.choice([1.0, 2.0, np.inf])), d_out),
                sl.DenseTensor(rng.standard_normal((n_dim,) * m + (d_out,))),
            )
        fams = [sl.VectorFamily(sl.lp(2, n_dim), rng.standard_normal((fam_len, n_dim))) for _ in range(m)]
        a = sl.mixed_power_sum(t, fams, p)
        b = sl.brute_force_mixed_sum(t, fams, p)
        rel = abs(a - b) / max(abs(b), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-12, (trial, a, b)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        fam = sl.VectorFamily(sl.lp(2, d), rng.standard_normal((int(rng.integers(2, 6)), d)))
        svd = sl.weak_norm(fam, 2.0).value
        sampled = sl.brute_force_weak_norm(fam, 2.0, resolution=10**6)
        assert abs(sampled - svd) / svd <= 1e-3
    _report(8, True, f"200 mixed-sum instances (worst rel gap {worst:.2e}) and the sampling cross-check")


def test_criterion_9_property_suite():
    """Monotonicity, homogeneity, permutation invariance, regression exactness."""
    rng = np.random.default_rng(SEED + 9)
    spaces = [sl.lp(2, 3), sl.lp(3, 3), sl.lp(1, 4), sl.sup_slice(3), sl.lp(1.5, 2)]
    trials = 0

    for _ in range(250):  # monotonicity in q
        space = spaces[int(rng.integers(0, len(spaces)))]
        fam = sl.VectorFamily(space, rng.standard_normal((int(rng.integers(2, 6)), space.dimension)))
        vals = [sl.weak_norm(fam, q).value for q in (1.0, 1.5, 2.0, 3.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo * (1 + 1e-9)
        trials += 1

    for _ in range(250):  # homogeneity
        space = spaces[int(rng.integers(0, len(spaces)))]
        fam = sl.VectorFamily(space, rng.standard_normal((int(rng.integers(1, 6)), space.dimension)))
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        lam = float(rng.uniform(0.2, 4.0))
        r1, r2 = sl.weak_norm(fam, q), sl.weak_norm(fam.scaled(lam), q)
        if r1.exact and r2.exact:
            assert abs(r2.value - lam * r1.value) <= 1e-12 * max(1.0, lam * r1.value)
        else:
            assert family_q_sum(fam.scaled(lam), q, r1.certificate.coords) == pytest.approx(
                lam * r1.value, rel=1e-12
            )
            assert family_q_sum(fam, q, r2.certificate.coords) == pytest.approx(r2.value / lam, rel=1e-12)
        trials += 1

    for _ in range(250):  # permutation invariance
        space = spaces[int(rng.integers(0, len(spaces)))]
        n = int(rng.integers(2, 6))
        fam = sl.VectorFamily(space, rng.standard_normal((n, space.dimension)))
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        r1 = sl.weak_norm(fam, q)
        r2 = sl.weak_norm(fam.permuted(rng.permutation(n)), q)
        if r1.exact:
            assert r1.value == r2.value
        else:
            assert abs(r1.value - r2.value) <= 1e-9 * max(1.0, r1.value)
        trials += 1

    for _ in range(250):  # regression exactness on synthetic power laws
        slope = float(rng.uniform(-2, 2))
        c = float(rng.uniform(0.1, 10))
        grid = sorted(rng.choice([2, 3, 4, 6, 8, 12, 16], size=4, replace=False))
        samples = [
            sl.QuotientSample(int(n), c * float(n) ** slope, sl.Provenance("synthetic", ()))
            for n in grid
        ]
        est = sl.estimate_index(samples)
        assert abs(est.slope - slope) <= 1e-12
        assert abs(est.intercept - math.log(c)) <= 1e-12
        trials += 1

    _report(9, True, f"{trials} randomized trials across the four properties, zero failures")
