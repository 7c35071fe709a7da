"""Weak-norm fast paths, the search fallback, and their invariants."""

import numpy as np
import pytest

import summlab as sl
from summlab.errors import BudgetError, DomainError, StructuralError
from summlab.weak_norms import family_q_sum

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


def test_vertex_fast_path_matches_oracle(rng):
    for _ in range(25):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        fam = random_family(rng, sl.lp(1, d), n)
        res = sl.weak_norm(fam, q)
        assert res.exact
        assert res.value == pytest.approx(sl.weak_norm_vertex_oracle(fam, q), rel=1e-12)


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


def test_vertex_path_chunks_reach_every_coordinate(rng):
    # one vector on l_1^19: the sup is ||x||_1 at the sign vertex of x,
    # which q != 2 reaches only through the chunks' high coordinates; the
    # signs alternate so that both high coordinates need a -1
    x = np.abs(rng.standard_normal(19)) * (-1.0) ** np.arange(19)
    fam = sl.VectorFamily(sl.lp(1, 19), x[None, :])
    for q in (1.5, 2.0, 3.0):
        res = sl.weak_norm(fam, q)
        assert res.exact
        assert res.value == pytest.approx(np.abs(x).sum(), rel=1e-12)
        assert np.array_equal(res.certificate.coords, np.sign(x))


def test_vertex_oracle_budget_error():
    fam = sl.VectorFamily.basis(sl.lp(1, 21), 2)
    with pytest.raises(BudgetError):
        sl.weak_norm_vertex_oracle(fam, 2.0)


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
        if r1.exact:
            assert r1.value == r2.value  # canonical row order makes this bit-identical
        else:
            assert r2.value == pytest.approx(r1.value, rel=1e-9)


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
