"""Weak-norm fast paths, the search fallback, and their invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import summlab as sl
from summlab.errors import BudgetError, DomainError, StructuralError
from summlab.search import canonical_rows
from summlab.spaces import coord_norm, norming_rows
from summlab.weak_norms import _finish, _norming_map, _rescaled, family_q_sum

from conftest import random_family, random_space


def test_basis_family_l2_q2_is_one():
    # orthonormal rows have top singular value 1
    for n in (1, 2, 4, 8):
        fam = sl.VectorFamily.basis(sl.lp(2, n), n)
        res = sl.weak_norm(fam, 2.0)
        assert res.exact
        assert res.value == pytest.approx(1.0, abs=1e-12)


def test_single_vector_any_q(rng):
    for q in (0.5, 1.0, 2.5, 7.0):
        space = random_space(rng)
        v = rng.standard_normal(space.dimension)
        if not np.any(v):
            v[0] = 1.0
        fam = sl.VectorFamily(space, v[None, :])
        res = sl.weak_norm(fam, q)
        assert res.exact
        assert res.value == pytest.approx(sl.Vector(space, v).norm(), rel=1e-12)


def test_copies_of_one_unit_vector(rng):
    # each |phi(x)| <= 1 caps the sum at n; the norming functional attains it
    x = np.array([0.6, 0.8, 0.0])
    for n, q in [(5, 3.0), (4, 1.5), (3, 1.0)]:
        fam = sl.VectorFamily(sl.lp(2, 3), np.tile(x, (n, 1)))
        res = sl.weak_norm(fam, q)
        assert res.value == pytest.approx(n ** (1.0 / q), rel=1e-9)


def test_zero_family():
    fam = sl.VectorFamily(sl.lp(2, 3), np.zeros((4, 3)))
    res = sl.weak_norm(fam, 2.0)
    assert res.value == 0.0 and res.exact


def test_vertex_oracle_values():
    fam = sl.VectorFamily.basis(sl.lp(1, 4), 4)
    assert sl.weak_norm_vertex_oracle(fam, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert sl.weak_norm_vertex_oracle(fam, 2.0) == pytest.approx(2.0, rel=1e-15)
    single = sl.VectorFamily.basis(sl.lp(1, 2), 1)
    assert sl.weak_norm_vertex_oracle(single, 3.0) == pytest.approx(1.0, rel=1e-15)


def test_vertex_oracle_matches_a_plain_loop(rng):
    # the oracle scores its sign vectors in batches; one vector at a time is the reference
    for d in range(1, 9):
        fam = random_family(rng, sl.lp(1, d), 4)
        for q in (1.0, 1.5, 3.0):
            sums = [(np.abs(fam.matrix @ np.array(s)) ** q).sum() for s in itertools.product((1.0, -1.0), repeat=d)]
            assert sl.weak_norm_vertex_oracle(fam, q) == pytest.approx(max(sums) ** (1 / q), rel=1e-14, abs=0.0)


VERTEX_QS = (1.0, 1.25, 1.5, 3.0, 4.0)


def test_vertex_fast_path_matches_oracle(rng):
    # d = 11 is one block at q != 2; from d = 12 on, high rows add to the low parts
    for d in range(1, 21):
        fam = random_family(rng, sl.lp(1, d), 1 + d % 5)
        for q in (2.0, *VERTEX_QS):
            res = sl.weak_norm(fam, q)
            assert res.exact
            assert res.value == pytest.approx(sl.weak_norm_vertex_oracle(fam, q), rel=1e-12, abs=0.0)


def _gram_families(rng, d):
    """Random and tie-heavy +-1 families on l_1^d."""
    space = sl.lp(1, d)
    for n in (1, 3, 6):
        yield random_family(rng, space, n)
        yield sl.VectorFamily(space, rng.choice([-1.0, 1.0], (n, d)))


def test_gram_vertex_path_matches_oracle(rng):
    # d = 1 and d = 2 leave one or both half sign tables empty
    for d in range(1, 13):
        for fam in _gram_families(rng, d):
            res = sl.weak_norm(fam, 2.0)
            assert res.exact
            assert res.value == pytest.approx(sl.weak_norm_vertex_oracle(fam, 2.0), rel=1e-12)
            phi = res.certificate.coords
            assert phi[0] == 1.0 and np.all(np.abs(phi) == 1.0)


def test_gram_vertex_path_permutation_bit_identical(rng):
    for d in (1, 2, 5, 9, 12):
        for fam in _gram_families(rng, d):
            r1 = sl.weak_norm(fam, 2.0)
            r2 = sl.weak_norm(fam.permuted(rng.permutation(fam.n)), 2.0)
            assert r1.value == r2.value
            assert r1.certificate.coords.tobytes() == r2.certificate.coords.tobytes()


def test_gram_vertex_path_at_max_dim(rng):
    fam = random_family(rng, sl.lp(1, 20), 16)
    res = sl.weak_norm(fam, 2.0)
    assert res.exact
    assert family_q_sum(fam, 2.0, res.certificate.coords) == pytest.approx(res.value, rel=1e-12)
    assert sl.weak_norm_search(fam, 2.0).value <= res.value * (1 + 1e-12)
    # one coordinate past the enumeration limit falls to the search
    wide = random_family(rng, sl.lp(1, 21), 4)
    assert not sl.weak_norm(wide, 2.0).exact


@pytest.mark.parametrize("phi", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [1.0, 0.0]], ids=["nan", "inf", "length-2"])
def test_family_q_sum_refuses_a_malformed_certificate(phi):
    # a NaN coordinate gave NaN and a short phi numpy's ValueError from matmul
    fam = sl.VectorFamily(sl.lp(1.5, 3), np.eye(3))
    with pytest.raises(StructuralError):
        family_q_sum(fam, 1.5, phi)


def _first_max_vertex(x, q):
    """Lowest vertex number (bit j sets s_(j+1) = +1, s_0 = +1) whose q-sum is the max.

    For integer x every pairing is exact, so tied vertices get the same bits.
    """
    d = x.shape[1]
    bits = (np.arange(1 << (d - 1))[:, None] >> np.arange(d - 1)) & 1
    signs = np.hstack((np.ones((bits.shape[0], 1)), 2.0 * bits - 1.0))
    return signs[int(np.argmax((np.abs(signs @ x.T) ** q).sum(axis=1)))]


def _tied_families(rng, d):
    """Integer families on l_1^d whose vertex sums tie exactly."""
    space = sl.lp(1, d)
    yield sl.VectorFamily.basis(space, d)  # every vertex ties
    cycled = sl.VectorFamily.basis(space, 2 * d).matrix  # each row twice
    yield sl.VectorFamily(space, cycled * (-1.0) ** np.arange(2 * d)[:, None])  # and half of them negated
    for zero in ({0}, {d - 1}, {0, d // 2, d - 1}):
        if len(zero) == d:
            continue
        m = rng.integers(-3, 4, (4, d)).astype(float)
        m[:, sorted(zero)] = 0.0  # a zero column's sign never matters
        yield sl.VectorFamily(space, np.vstack((m, m, -m[:1])))


@pytest.mark.parametrize("d", [1, 2, 5, 11, 12, 14])
def test_vertex_kernel_ties_go_to_the_lowest_vertex(rng, d):
    for fam in _tied_families(rng, d):
        x = canonical_rows(fam.matrix)
        for q in VERTEX_QS:
            res = sl.weak_norm(fam, q)
            assert np.array_equal(res.certificate.coords, _first_max_vertex(x, q))


def test_vertex_kernel_value_is_the_certificates_q_sum(rng):
    for d in (1, 4, 11, 12, 16):
        for n in (1, 5, 16):
            fam = random_family(rng, sl.lp(1, d), n)
            for q in VERTEX_QS:
                res = sl.weak_norm(fam, q)
                assert family_q_sum(fam, q, res.certificate.coords) == res.value


def test_vertex_kernel_permutation_bit_identical(rng):
    for d in (3, 11, 12, 15):
        fam = random_family(rng, sl.lp(1, d), 7)
        for q in VERTEX_QS:
            r1 = sl.weak_norm(fam, q)
            r2 = sl.weak_norm(fam.permuted(rng.permutation(fam.n)), q)
            assert r1.value == r2.value
            assert r1.certificate.coords.tobytes() == r2.certificate.coords.tobytes()


def test_vertex_path_chunks_reach_every_coordinate(rng):
    # one vector on l_1^d: the sup is ||x||_1 at the sign vertex of x; past
    # the 11-coordinate low block q != 2 reaches it only through the high
    # rows, and the signs alternate so that high coordinates need a -1
    for d in (12, 19):
        x = np.abs(rng.standard_normal(d)) * (-1.0) ** np.arange(d)
        fam = sl.VectorFamily(sl.lp(1, d), x[None, :])
        for q in (1.5, 2.0, 3.0):
            res = sl.weak_norm(fam, q)
            assert res.exact
            assert res.value == pytest.approx(np.abs(x).sum(), rel=1e-12)
            assert np.array_equal(res.certificate.coords, np.sign(x))


def test_vertex_oracle_budget_error():
    fam = sl.VectorFamily.basis(sl.lp(1, 21), 2)
    with pytest.raises(BudgetError):
        sl.weak_norm_vertex_oracle(fam, 2.0)


def test_vertex_and_column_certificates_are_unit_by_construction(rng):
    # _finish takes no dual norm of a sign or basis vector; the dual norm is exactly 1,
    # and the result is bit for bit the one of the checked finish
    cases = [(sl.lp(1, d), q) for d in (1, 4, 12, 16) for q in VERTEX_QS + (2.0,)]
    cases += [(sl.sup_slice(d), q) for d in (1, 3, 7) for q in (1.0, 1.5, 2.0, 4.0)]
    for space, q in cases:
        for fam in (random_family(rng, space, int(rng.integers(2, 9))), sl.VectorFamily.basis(space, 5)):
            res = sl.weak_norm(fam, q)
            assert res.exact and res.certificate.norm() == 1.0
            x, e = _rescaled(canonical_rows(fam.matrix))
            checked = _finish(space, x, e, q, res.certificate.coords, exact=True)
            assert checked.value == res.value
            assert checked.certificate.coords.tobytes() == res.certificate.coords.tobytes()


def test_sup_slice_column_path(rng):
    # dual ball of a sup slice is the l_1 ball; extreme points are +-e_i
    for _ in range(20):
        d = int(rng.integers(1, 6))
        fam = random_family(rng, sl.sup_slice(d), int(rng.integers(2, 6)))
        q = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        res = sl.weak_norm(fam, q)
        assert res.exact
        want = max(float((np.abs(fam.matrix[:, i]) ** q).sum() ** (1 / q)) for i in range(d))
        assert res.value == pytest.approx(want, rel=1e-12)
        # the searched lower bound climbs to the exact sup
        srch = sl.weak_norm_search(fam, q)
        assert srch.value == pytest.approx(res.value, rel=1e-9)


def test_forced_search_reaches_vertex_path(rng):
    # on l_1 the sup sits at a sign vertex; the search must climb to it
    for _ in range(40):
        d = int(rng.integers(1, 9))
        fam = random_family(rng, sl.lp(1, d), int(rng.integers(2, 11)))
        for q in (1.0, 1.5, 2.0, 3.0, 4.0):
            exact = sl.weak_norm(fam, q)  # the vertex path
            srch = sl.weak_norm_search(fam, q)
            assert exact.exact and not srch.exact
            assert srch.value == pytest.approx(exact.value, rel=1e-9)


def test_search_independent_of_start_set(rng):
    # a convex objective climbed by the linear-argmax step: two seeds and a
    # much larger search land on the same value
    big = sl.SearchBudget(restarts=512, max_iter=2000)
    for _ in range(30):
        space = sl.lp(float(rng.choice([1.5, 3.0])), int(rng.integers(2, 9)))
        fam = random_family(rng, space, int(rng.integers(2, 11)))
        q = float(rng.choice([1.0, 1.5, 3.0, 4.0]))
        a = sl.weak_norm_search(fam, q, sl.SearchBudget(seed=1)).value
        b = sl.weak_norm_search(fam, q, sl.SearchBudget(seed=2)).value
        ref = sl.weak_norm_search(fam, q, big).value
        assert a == pytest.approx(b, rel=1e-9)
        assert min(a, b) >= ref * (1 - 1e-9)


def test_forced_search_against_svd(rng, small_budget):
    for _ in range(10):
        fam = random_family(rng, sl.lp(2, 3), 4)
        svd = sl.weak_norm(fam, 2.0)
        assert svd.exact
        srch = sl.weak_norm_search(fam, 2.0)  # force the ascent path
        assert not srch.exact
        assert srch.value <= svd.value + 1e-9
        assert srch.value >= svd.value * (1 - 1e-9)


def _hilbert_families(rng):
    """(label, matrix) pairs for the Hilbert path: every shape and degeneracy it meets."""
    shapes = [(1, 1), (2, 2), (5, 2), (2, 5), (40, 8), (8, 40), (200, 16), (3, 128), (128, 128)]
    cases = [(f"random {n}x{d}", rng.standard_normal((n, d))) for n, d in shapes]
    cases.append(("rank 1", np.outer(rng.standard_normal(7), rng.standard_normal(5))))
    cases.append(("rank 2 of 6", rng.standard_normal((9, 2)) @ rng.standard_normal((2, 6))))
    cases.append(("zero column", np.hstack((rng.standard_normal((6, 3)), np.zeros((6, 1))))))
    for n, d in [(4, 4), (3, 8), (10, 4), (128, 128)]:  # basis and cycling-basis families
        cases.append((f"basis {n} in l_2^{d}", sl.VectorFamily.basis(sl.lp(2, d), n).matrix))
    return cases


@pytest.mark.parametrize("scale", [0, 500, -500])
def test_hilbert_path_is_the_top_singular_value(rng, scale):
    for label, x in _hilbert_families(rng):
        fam = sl.VectorFamily(sl.lp(2, x.shape[1]), np.ldexp(x, scale))
        res = sl.weak_norm(fam, 2.0)
        sigma = np.linalg.svd(x, compute_uv=False)[0]
        assert res.exact, label
        assert res.value == pytest.approx(math.ldexp(sigma, scale), rel=1e-13, abs=0), label
        phi = res.certificate.coords
        assert res.certificate.space == sl.lp(2, x.shape[1])
        assert math.sqrt(phi @ phi) == pytest.approx(1.0, rel=1e-14), label
        assert family_q_sum(fam, 2.0, phi) == res.value, label  # the value is the certificate's own q-sum


def test_hilbert_path_permutation_bit_identical(rng):
    for label, x in _hilbert_families(rng):
        fam = sl.VectorFamily(sl.lp(2, x.shape[1]), x)
        r1 = sl.weak_norm(fam, 2.0)
        r2 = sl.weak_norm(fam.permuted(rng.permutation(fam.n)), 2.0)
        assert r1.value == r2.value, label
        np.testing.assert_array_equal(r1.certificate.coords, r2.certificate.coords)


def test_hilbert_path_falls_back_when_the_start_misses_the_top_eigenspace(rng, monkeypatch):
    # the Gram matrix, x^T x at n >= d and x x^T at n < d, is block diagonal, and its largest diagonal
    # entry (3.61) lies in the lower block: the inverse-iteration start has no top component, and
    # eigh gives the eigenvector
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: calls.append(g.shape) or eigh(g))
    rows = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.9, 0.0]])
    for x in (rows[:, :3], rows):
        fam = sl.VectorFamily(sl.lp(2, x.shape[1]), x)
        res = sl.weak_norm(fam, 2.0)
        assert res.exact
        assert res.value == pytest.approx(np.linalg.svd(x, compute_uv=False)[0], rel=1e-13, abs=0)
        assert family_q_sum(fam, 2.0, res.certificate.coords) == res.value
    assert len(calls) == 2
    # a start with a top component needs no eigh
    sl.weak_norm(sl.VectorFamily(sl.lp(2, 8), rng.standard_normal((20, 8))), 2.0)
    assert len(calls) == 2


@pytest.mark.parametrize("n, d, index", [(4, 4, 3), (3, 8, 0), (10, 4, 1), (128, 128, 127), (1, 5, 0), (7, 3, 0)])
def test_hilbert_path_basis_certificates(n, d, index):
    # of tied top directions a basis or cycling-basis family keeps its last most repeated basis vector
    res = sl.weak_norm(sl.VectorFamily.basis(sl.lp(2, d), n), 2.0)
    assert res.certificate.coords.tolist() == np.eye(1, d, index)[0].tolist()
    assert res.value == math.sqrt(-(-n // d))  # the most repeated basis vector's count


@pytest.mark.parametrize("n, d", [(9, 6), (6, 9), (40, 8)])
def test_hilbert_path_near_degenerate_top_pair(rng, n, d):
    # sigma_1 / sigma_2 - 1 = 1e-12 is below what one solve separates at every start; the
    # value stays within 1e-13 of the SVD's
    k = min(n, d)
    u = np.linalg.qr(rng.standard_normal((n, k)))[0]
    v = np.linalg.qr(rng.standard_normal((d, k)))[0]
    s = np.concatenate(([1.0 + 1e-12, 1.0], np.linspace(0.7, 0.1, k - 2)))
    x = (u * s) @ v.T
    fam = sl.VectorFamily(sl.lp(2, d), x)
    res = sl.weak_norm(fam, 2.0)
    assert res.exact
    assert res.value == pytest.approx(np.linalg.svd(x, compute_uv=False)[0], rel=1e-13, abs=0)
    assert family_q_sum(fam, 2.0, res.certificate.coords) == res.value


def test_random_l2_q2_vs_sampling_oracle(rng):
    fam = random_family(rng, sl.lp(2, 3), 4)
    svd = sl.weak_norm(fam, 2.0).value
    sampled = sl.brute_force_weak_norm(fam, 2.0, resolution=10**6)
    assert sampled <= svd * (1 + 1e-12)
    assert abs(sampled - svd) / svd <= 1e-3


def test_monotone_in_q(rng):
    qs = [1.0, 1.5, 2.0, 3.0]
    for _ in range(40):
        space = random_space(rng)
        fam = random_family(rng, space, int(rng.integers(2, 6)))
        vals = [sl.weak_norm(fam, q).value for q in qs]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo * (1 + 1e-9)


def test_homogeneity(rng):
    for _ in range(40):
        space = random_space(rng)
        fam = random_family(rng, space, int(rng.integers(1, 6)))
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        lam = float(rng.uniform(0.2, 4.0))
        r1 = sl.weak_norm(fam, q)
        r2 = sl.weak_norm(fam.scaled(lam), q)
        if r1.exact and r2.exact:
            assert r2.value == pytest.approx(lam * r1.value, rel=1e-12)
        else:
            # search paths: re-evaluate each certificate on the other family
            assert family_q_sum(fam.scaled(lam), q, r1.certificate.coords) == pytest.approx(
                lam * r1.value, rel=1e-12
            )
            assert family_q_sum(fam, q, r2.certificate.coords) == pytest.approx(
                r2.value / lam, rel=1e-12
            )


def test_permutation_invariance(rng):
    for _ in range(40):
        space = random_space(rng)
        n = int(rng.integers(2, 6))
        fam = random_family(rng, space, n)
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        perm = rng.permutation(n)
        r1 = sl.weak_norm(fam, q)
        r2 = sl.weak_norm(fam.permuted(perm), q)
        # every path, the search included, works on the sorted rows: bit-identical
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.certificate.coords, r2.certificate.coords)


def test_result_at_least_max_norm(rng):
    for _ in range(40):
        space = random_space(rng)
        fam = random_family(rng, space, int(rng.integers(1, 6)))
        q = float(rng.choice([0.7, 1.0, 2.0, 3.5]))
        res = sl.weak_norm(fam, q)
        assert res.value >= fam.norms().max() * (1 - 1e-12)


def test_certificate_invariants(rng):
    for _ in range(40):
        space = random_space(rng)
        fam = random_family(rng, space, int(rng.integers(1, 6)))
        q = float(rng.choice([0.7, 1.0, 2.0, 3.0]))
        res = sl.weak_norm(fam, q)
        assert res.certificate.space == sl.dual(space)
        assert res.certificate.norm() <= 1 + 1e-9
        assert family_q_sum(fam, q, res.certificate.coords) == pytest.approx(res.value, rel=1e-9, abs=1e-12)


def test_quasi_norm_q_accepted(rng):
    # q < 1 stays a well-defined sup; only the vertex shortcut is disabled
    fam = random_family(rng, sl.lp(1, 3), 3)
    res = sl.weak_norm(fam, 0.5)
    assert not res.exact
    assert res.value >= fam.norms().max() * (1 - 1e-12)


def test_errors():
    fam = sl.VectorFamily.basis(sl.lp(2, 3), 3)
    with pytest.raises(DomainError):
        sl.weak_norm(fam, 0.0)
    with pytest.raises(DomainError):
        sl.weak_norm(fam, -1.0)
    with pytest.raises(StructuralError):
        sl.weak_norm_vertex_oracle(fam, 2.0)  # not an l_1 family
    with pytest.raises(StructuralError):
        sl.VectorFamily(sl.lp(2, 3), np.zeros((0, 3)))
    with pytest.raises(StructuralError):
        sl.VectorFamily.from_vectors(
            [sl.Vector(sl.lp(2, 2), [1, 0]), sl.Vector(sl.lp(1, 2), [0, 1])]
        )


@pytest.mark.parametrize(
    "space", [sl.lp(1.5, 6), sl.lp(2, 6), sl.lp(3, 6), sl.lp(7.5, 6)] + [sl.lp(1, d) for d in range(21, 25)]
)
def test_search_step_matches_norming_rows(rng, space):
    # The search builds its Boyd step once; it is norming_rows(space, g)
    # up to rounding.  The reference raises |g| / ||g||_p, whose norm is
    # rounded, to the power p - 1, so its own error grows with p.
    step = _norming_map(space)
    tol = 1e-15 * max(1.0, space.exponent - 1.0)
    for scale in (1e-3, 1.0, 1e3):
        g = scale * rng.standard_normal((64, space.dimension))
        g[::5, 0] = 0.0  # zero entries
        zero_rows = g.copy()
        zero_rows[::9] = 0.0  # zero gradients go to e_1
        for rows in (g, zero_rows, g[:1], zero_rows[:1]):
            np.testing.assert_allclose(step(rows), norming_rows(space, rows), rtol=0.0, atol=tol)


def _check_scaled(fam, q, lam, rel):
    """weak_norm(lam * fam) against lam * weak_norm(fam); the certificate reproduces the value."""
    base = sl.weak_norm(fam, q)
    scaled = fam.scaled(lam)
    res = sl.weak_norm(scaled, q)
    assert res.exact == base.exact
    assert res.value == pytest.approx(lam * base.value, rel=rel, abs=0.0)
    assert family_q_sum(scaled, q, res.certificate.coords) == pytest.approx(res.value, rel=1e-12, abs=0.0)
    return res


@pytest.mark.parametrize("lam", [1e-150, 1e150])
def test_weak_norm_is_scale_safe(rng, lam):
    # Powers of entries near 1e+-150 under- and overflow (q = 3 gives 1e+-450);
    # every path rescales the family once and scales the value back.
    exact_cases = [(sl.lp(2, 4), 5, 2.0)]  # svd
    exact_cases += [(sl.lp(1, 6), 5, q) for q in (1.0, 1.5, 2.0, 3.0)]  # vertex
    exact_cases += [(sl.sup_slice(5), 4, 3.0), (sl.lp(1.5, 5), 1, 3.0)]  # column, single
    for space, n, q in exact_cases:
        for _ in range(5):
            assert _check_scaled(random_family(rng, space, n), q, lam, rel=1e-12).exact
    for p, q in itertools.product((1.5, 2.0, 3.0), (1.5, 3.0)):
        space = sl.lp(p, 4)
        # +/- copies of one vector: the search's member start is optimal, so
        # the value n^(1/q) ||x|| does not depend on where the search stops
        x = rng.standard_normal(space.dimension)
        fam = sl.VectorFamily(space, np.outer([1.0, -1.0, 1.0, 1.0, -1.0], x))
        res = _check_scaled(fam, q, lam, rel=1e-12)
        assert not res.exact
        assert res.value == pytest.approx(lam * 5 ** (1 / q) * sl.Vector(space, x).norm(), rel=1e-12, abs=0.0)
        # a random family: the scaled rows round differently, so the search
        # agrees to its own reproducibility (test_search_independent_of_start_set)
        assert not _check_scaled(random_family(rng, space, 5), q, lam, rel=1e-9).exact


@pytest.mark.parametrize("lam", [1e-150, 1e150])
def test_oracles_are_scale_safe(rng, lam):
    # the oracles take their powers on the rescaled family too
    for q in (1.0, 1.5, 3.0):
        fam = random_family(rng, sl.lp(1, 6), 5)
        want = lam * sl.weak_norm_vertex_oracle(fam, q)
        assert sl.weak_norm_vertex_oracle(fam.scaled(lam), q) == pytest.approx(want, rel=1e-12, abs=0.0)
    for space, q in ((sl.lp(2, 2), 2.0), (sl.lp(1.5, 3), 3.0), (sl.lp(3, 1), 1.5)):
        fam = random_family(rng, space, 4)
        want = lam * sl.brute_force_weak_norm(fam, q, resolution=10**4)
        got = sl.brute_force_weak_norm(fam.scaled(lam), q, resolution=10**4)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_weak_norm_never_returns_a_non_finite_value():
    # the weak 1-norm of two copies of (8e307, 8e307) in l_1^2 is 3.2e308
    fam = sl.VectorFamily(sl.lp(1, 2), np.full((2, 2), 8e307))
    with pytest.raises(StructuralError, match="largest double"):
        sl.weak_norm(fam, 1.0)
    phi = np.array([1.0, 0.0])
    for value in (np.inf, np.nan):
        with pytest.raises(StructuralError, match="not finite"):
            _finish(sl.lp(2, 2), np.array([[value, 0.0]]), 0, 2.0, phi, exact=True)


@pytest.mark.parametrize(
    "space, rows, q, want",
    [
        (sl.lp(1, 3), np.ones((3, 3)), 1000.0, 3.0 * 3.0 ** (1 / 1000)),
        (sl.sup_slice(3), np.full((3, 3), 1.5), 3000.0, 1.5 * 3.0 ** (1 / 3000)),
        # rescaled into [1, 2), the entries 0.1 become 1.6 and the pairings 4.8
        (sl.lp(1, 3), np.full((3, 3), 0.1), 1000.0, 0.3 * 3.0 ** (1 / 1000)),
        # at q = 1e20 the weak norm on l_1^d is the largest row l_1 norm times a count^(1/q)
        # that rounds to 1; d = 14 > _VERTEX_BLOCK_BITS scores the vertices in blocks
        *[
            (sl.lp(1, d), rows, 1e20, float(np.abs(rows).sum(axis=1).max()))
            for d in (10, 14)
            for rows in (np.ones((2, d)), np.full((3, d), 0.1), np.random.default_rng(d).standard_normal((5, d)))
        ],
    ],
    ids=["vertex-ones", "column", "vertex-tenths"]
    + [f"vertex-{kind}-huge-q-d{d}" for d in (10, 14) for kind in ("ones", "tenths", "gaussian")],
)
def test_exact_paths_at_a_large_q_return_the_finite_weak_norm(space, rows, q, want):
    # Each of these overflowed a pairing's q-th power and was refused as not finite; a
    # RuntimeWarning is an error in the suite, so none is raised on the way.  At q = 1e20,
    # vertex scores powered over a rounded l_1 norm put the pairings at 1 +- ulp, whose
    # powers overflowed or all underflowed to 0, and vertex 0 was reported as exact.
    fam = sl.VectorFamily(space, rows)
    res = sl.weak_norm(fam, q)
    assert res.exact
    assert res.value == pytest.approx(want, rel=1e-15, abs=0)
    assert family_q_sum(fam, q, res.certificate.coords) == res.value


@st.composite
def _large_q_families(draw):
    """A Gaussian family on l_1.5, l_2 or l_3 of dimension <= 6, or on l_1^24, at any scale."""
    space = draw(st.sampled_from([sl.lp(1.5, 1), sl.lp(2, 1), sl.lp(3, 1), sl.lp(1, 24)]))
    if space.dimension == 1:
        space = sl.lp(space.exponent, draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = 10.0 ** draw(st.integers(-8, 8)) * rng.standard_normal((draw(st.integers(1, 6)), space.dimension))
    return sl.VectorFamily(space, rows)


@settings(max_examples=40, deadline=None)
@given(_large_q_families())
def test_searched_weak_norm_at_a_large_q_tends_to_the_largest_member_norm(fam):
    # At such a q most powers of pairings overflow or underflow to 0.  The weak norm lies between
    # the largest member norm and n^(1/q) times it.  A search row is a unit vector up to the
    # rounding of the Boyd step's s ** ((p - 1) / p), whose rounded exponent costs up to
    # 2^-53 |ln s| of relative norm: under 1e-13 for a power sum s in [2^-960, 2^960], which a
    # row inside the sphere can lose.  A best row outside it is scaled back in, so the value
    # passes the upper end by a few roundings only.  The search reports a finite value there,
    # which its certificate replays bit for bit.
    top = float(fam.norms().max())
    for q in (1000.0, 1e5, 1e300):
        res = sl.weak_norm_search(fam, q)
        assert top * (1.0 - 1e-13) <= res.value <= fam.n ** (1.0 / q) * top * (1.0 + 1e-15)
        assert family_q_sum(fam, q, res.certificate.coords) == res.value


@pytest.mark.parametrize("q", [50.0, 1000.0])
def test_searched_weak_norm_does_not_exceed_the_exact_one(q):
    # The Boyd step's rounded exponent left this member's best row 2.3e-14 outside the dual
    # unit sphere at q = 1000, and its value as far above the member's norm, the weak norm.
    fam = sl.VectorFamily(sl.lp(3, 3), np.array([[-1.44030319e8, -8.68530831e7, 9.51020500e7]]))
    eps = np.finfo(float).eps
    res = sl.weak_norm_search(fam, q)
    assert res.value <= sl.weak_norm(fam, q).value * (1.0 + 4.0 * eps)
    assert res.certificate.norm() <= 1.0 + 4.0 * eps


@pytest.mark.parametrize("phi, q", [((0.5, 0.0), 1e20), ((0.5, 0.25), 2000.0)])
def test_q_sum_below_1_at_a_large_q_is_the_largest_pairing(phi, q):
    # the powers of pairings below 1 underflow at such a q, so they are taken over the largest
    fam = sl.VectorFamily.basis(sl.lp(2, 2), 2)
    assert family_q_sum(fam, q, np.array(phi)) == pytest.approx(0.5, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("space", [sl.lp(1.5, 6), sl.lp(2, 6), sl.lp(3, 6)])
@pytest.mark.parametrize("k", [-1060, -540, 500, 1000])
def test_search_step_of_rows_past_the_float_range_is_a_unit_row(rng, space, k):
    # The search's weights are (q-1)-th powers: at a large q a gradient's norm, or its p-th
    # power sum, can fall out of the normal doubles, where dividing by it leaves no unit row.
    # The search takes its steps with overflow warnings off, as here.  Powers of a sum near
    # 2^+-800 by (p - 1) / p, which rounds, cost the l_1.5 and l_3 steps more than the 1e-15
    # of test_search_step_matches_norming_rows.
    g = np.ldexp(rng.standard_normal((64, space.dimension)), k)
    with np.errstate(over="ignore"):
        phi = _norming_map(space)(g)
    np.testing.assert_allclose(phi, norming_rows(space, np.ldexp(g, -k)), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(coord_norm(sl.dual(space), phi, axis=1), 1.0, rtol=1e-13)


def test_q_sum_beyond_the_float_range_is_a_structural_error():
    # eight pairings of 1 at q = 0.001: the q-sum 8^1000 overflows before any value is reported
    with pytest.raises(StructuralError, match="largest double"):
        _finish(sl.lp(2, 2), np.ones((8, 2)), 0, 0.001, np.array([1.0, 0.0]), exact=True)


def test_searched_weak_norm_beyond_the_float_range_is_a_structural_error():
    # at q = 0.001 the search objective 8^1000 overflows while climbing; the suite turns that warning into an error
    with pytest.raises(StructuralError, match="largest double"):
        sl.weak_norm(sl.VectorFamily.basis(sl.lp(2, 8), 8), 0.001)


def test_weak_norms_refuse_an_infinite_q():
    # the q-sum pow(sum |y|^inf, 1/inf) is 1, so at q = inf rows whose weak inf-norm is 3 read 2
    rows = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    l2 = sl.lp(2, 3)
    calls = [sl.weak_norm, sl.weak_norm_search, lambda fam, q: family_q_sum(fam, q, np.eye(1, 3)[0])]
    for space in (sl.lp(1, 3), sl.sup_slice(3), l2, sl.lp(1.5, 3)):
        for call in calls:
            with pytest.raises(DomainError, match=r"0 < q < inf, got inf"):
                call(sl.VectorFamily(space, rows), math.inf)
    with pytest.raises(DomainError, match=r"0 < q < inf, got inf"):
        sl.weak_norm_vertex_oracle(sl.VectorFamily(sl.lp(1, 3), rows), math.inf)
    with pytest.raises(DomainError, match=r"0 < q < inf, got inf"):
        sl.brute_force_weak_norm(sl.VectorFamily(l2, rows), math.inf)
    ident = sl.identity_witness(l2)
    with pytest.raises(DomainError, match=r"0 < q < inf, got inf"):
        sl.summing_quotient(ident, [sl.VectorFamily(l2, rows)], 2.0, math.inf)
    with pytest.raises(DomainError, match=r"0 < q < inf, got inf"):
        sl.maximize_quotient(ident, 2, 2.0, math.inf, random_starts=1, sweeps=1)


def test_every_weak_norm_is_the_q_sum_its_certificate_attains(rng, small_budget):
    # the value of every result, searched or exact, is replayed bit for bit by family_q_sum at its certificate
    for r, q, n in itertools.product((1.0, 1.5, 2.0, 3.0, math.inf), (0.7, 1.0, 1.5, 2.0, 3.0), range(1, 9)):
        fam = random_family(rng, sl.lp(r, int(rng.integers(1, 6))), n)
        for res in (sl.weak_norm(fam, q, small_budget), sl.weak_norm_search(fam, q, small_budget)):
            assert family_q_sum(fam, q, res.certificate.coords) == res.value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", [sl.lp(2, 3), sl.lp(1.5, 3), sl.sup_slice(3)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_forced_search_of_an_all_zero_family_is_zero_at_e1(space, n):
    # n < d, n = d and n > d: the spectral start has no top direction to take, so every start reads 0
    res = sl.weak_norm_search(sl.VectorFamily(space, np.zeros((n, 3))), 1.5)
    assert res.value == 0.0 and not res.exact
    assert res.certificate.coords.tolist() == [1.0, 0.0, 0.0]
