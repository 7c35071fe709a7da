"""Map evaluation, power sums, operator norms."""

import itertools
import math
import struct

import numpy as np
import pytest

import summlab as sl
from summlab import maps
from summlab.errors import BudgetError, DomainError, StructuralError

from conftest import random_family


def _l2(n):
    return sl.lp(2, n)


def _vec(space, coords):
    return sl.Vector(space, coords)


def test_diagonal_eval_m1_is_identity_into_slice():
    t = sl.tensor_witness(1, 2)
    out = sl.eval_multilinear(t, [_vec(_l2(2), [3, 4])])
    np.testing.assert_array_equal(out.coords, [3, 4])
    assert out.norm() == 4.0  # sup norm of the slice


def test_diagonal_eval_m2_expansion():
    t = sl.tensor_witness(2, 2)
    out = sl.eval_multilinear(t, [_vec(_l2(2), [1, 0]), _vec(_l2(2), [0, 1])])
    np.testing.assert_array_equal(out.coords, [0, 1, 0, 0])
    assert out.norm() == 1.0


def test_zero_tensor_eval():
    space = _l2(3)
    t = sl.MultilinearMap((space, space), sl.lp(2, 2), sl.DenseTensor(np.zeros((3, 3, 2))))
    out = sl.eval_multilinear(t, [_vec(space, [1, 2, 3])] * 2)
    assert out.norm() == 0.0


def test_eval_shape_errors():
    t = sl.tensor_witness(2, 2)
    with pytest.raises(StructuralError):
        sl.eval_multilinear(t, [_vec(_l2(2), [1, 0])])
    with pytest.raises(StructuralError):
        sl.eval_multilinear(t, [_vec(_l2(3), [1, 0, 0]), _vec(_l2(2), [1, 0])])


def test_multilinearity_random_probes(rng):
    space = _l2(3)
    t = sl.MultilinearMap((space, space), sl.lp(2, 2), sl.DenseTensor(rng.standard_normal((3, 3, 2))))
    for _ in range(50):
        x, y, z = (rng.standard_normal(3) for _ in range(3))
        a = float(rng.uniform(-2, 2))
        lhs = sl.eval_multilinear(t, [_vec(space, x + a * y), _vec(space, z)]).coords
        rhs = (
            sl.eval_multilinear(t, [_vec(space, x), _vec(space, z)]).coords
            + a * sl.eval_multilinear(t, [_vec(space, y), _vec(space, z)]).coords
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_polynomial_trivials():
    # one-term witness: P(e1) = e1 when a_1 = 1
    dom = sl.lp(1, 2)
    body = sl.WitnessBody(np.array([1.0]), np.array([[1.0, 0.0]]), 0.5, targets=np.array([[1.0]]))
    poly = sl.HomogeneousPolynomial(2, dom, sl.lp(2, 1), body)
    out = sl.eval_polynomial(poly, _vec(dom, [1, 0]))
    np.testing.assert_allclose(out.coords, [1.0])

    # scalar square: P((t, s)) = t^2
    dom = _l2(2)
    body = sl.WitnessBody(np.array([1.0]), np.array([[1.0, 0.0]]), 0.5)
    poly = sl.HomogeneousPolynomial(2, dom, sl.real_line(), body)
    assert sl.eval_polynomial(poly, _vec(dom, [0.7, -0.3])).coords[0] == pytest.approx(0.49)
    # even degree: P(-x) = P(x)
    x = np.array([0.2, 1.4])
    assert sl.eval_polynomial(poly, _vec(dom, -x)).coords[0] == sl.eval_polynomial(poly, _vec(dom, x)).coords[0]


def test_real_even_outputs_nonnegative(rng):
    poly, _ = sl.real_even_witness(4, 0.3, _l2(5), 5)
    for _ in range(50):
        x = rng.standard_normal(5)
        assert sl.eval_polynomial(poly, _vec(_l2(5), x)).coords[0] >= 0.0


def test_polynomial_homogeneity_degree_m(rng):
    for m in (1, 2, 3):
        coeffs = rng.standard_normal((3,) * m + (2,))
        sym = np.zeros_like(coeffs)
        # symmetrize over the domain axes
        import itertools

        for perm in itertools.permutations(range(m)):
            sym += np.transpose(coeffs, perm + (m,))
        sym /= math.factorial(m)
        poly = sl.HomogeneousPolynomial(m, _l2(3), sl.lp(2, 2), sl.DenseTensor(sym))
        for _ in range(20):
            x = rng.standard_normal(3)
            lam = float(rng.uniform(0.3, 2.5))
            lhs = sl.eval_polynomial(poly, _vec(_l2(3), lam * x)).coords
            rhs = lam**m * sl.eval_polynomial(poly, _vec(_l2(3), x)).coords
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_polynomial_body_need_not_be_symmetric(rng):
    # P(x) = T(x, ..., x) is the same polynomial for T and for its symmetrization
    for m in (2, 3):
        coeffs = rng.standard_normal((3,) * m + (2,))
        sym = sum(np.transpose(coeffs, perm + (m,)) for perm in itertools.permutations(range(m))) / math.factorial(m)
        poly = sl.HomogeneousPolynomial(m, _l2(3), sl.lp(1.5, 2), sl.DenseTensor(coeffs))
        poly_sym = sl.HomogeneousPolynomial(m, _l2(3), sl.lp(1.5, 2), sl.DenseTensor(sym))
        for _ in range(10):
            x = _vec(_l2(3), rng.standard_normal(3))
            np.testing.assert_allclose(
                sl.eval_polynomial(poly, x).coords, sl.eval_polynomial(poly_sym, x).coords, rtol=1e-12, atol=1e-12
            )
        fam = random_family(rng, _l2(3), 5)
        assert sl.poly_power_sum(poly, fam, 1.5) == pytest.approx(sl.poly_power_sum(poly_sym, fam, 1.5), rel=1e-12)
        assert poly.fingerprint() == b"denseP" + struct.pack("<q", m) + coeffs.tobytes()
    with pytest.raises(StructuralError, match="does not match descriptors"):
        sl.HomogeneousPolynomial(2, _l2(3), sl.lp(2, 2), sl.DenseTensor(np.zeros((3, 2, 2))))


@pytest.mark.parametrize("field", ["a", "functionals", "targets"])
def test_witness_body_rejects_non_finite_entries(field):
    arrays = {"a": np.array([0.5, 0.5]), "functionals": np.eye(2), "targets": np.eye(2)}
    arrays[field] = arrays[field].copy()
    arrays[field].flat[-1] = math.nan
    with pytest.raises(StructuralError, match="must be finite"):
        sl.WitnessBody(arrays["a"], arrays["functionals"], 0.5, arrays["targets"])


def test_power_sum_root_beyond_the_float_range_is_a_structural_error():
    fams = [sl.VectorFamily.basis(_l2(8), 8)] * 2
    with pytest.raises(StructuralError, match="largest double"):
        sl.mixed_power_sum(sl.tensor_witness(2, 8), fams, 0.002)
    with pytest.raises(StructuralError, match="largest double"):
        sl.mixed_power_sum(sl.identity_witness(_l2(8)), fams[:1], 0.002)
    poly, anchors = sl.real_even_witness(2, 0.001, _l2(8), 8)
    with pytest.raises(StructuralError, match="largest double"):
        sl.poly_power_sum(poly, anchors, 0.001)


def test_overflowing_contraction_is_a_structural_error():
    # each output coordinate overflows, so its norm is inf or nan before any power is taken
    t = sl.MultilinearMap((_l2(3),), _l2(3), sl.DenseTensor(np.full((3, 3), 1e300)))
    fam = sl.VectorFamily(_l2(3), np.full((3, 3), 1e10))
    with pytest.raises(StructuralError, match="largest double"):
        sl.mixed_power_sum(t, [fam], 2.0)
    huge = sl.MultilinearMap((_l2(2),), _l2(2), sl.DenseTensor(np.full((2, 2), 1.7e308)))
    with pytest.raises(StructuralError, match="largest double"):
        sl.mixed_power_sum(huge, [sl.VectorFamily.basis(_l2(2), 2)], 2.0)
    # polynomials too, refused without a RuntimeWarning, which the suite makes an error
    dense = sl.HomogeneousPolynomial(2, _l2(3), sl.lp(2, 1), sl.DenseTensor(np.full((3, 3, 1), 1e300)))
    with pytest.raises(StructuralError, match="largest double"):
        sl.poly_power_sum(dense, sl.VectorFamily(_l2(3), np.full((3, 3), 1e10)), 2.0)
    witness, _ = sl.cotype_witness(2, 0.5, _l2(3), 3.0, 3)
    with pytest.raises(StructuralError, match="largest double"):
        sl.poly_power_sum(witness, sl.VectorFamily(_l2(3), np.full((3, 3), 1e200)), 0.5)


@pytest.mark.parametrize("p", [1e3, 1e300])
def test_power_sum_at_a_huge_p_tends_to_the_largest_norm(p):
    # every power ||y||^p with ||y|| > 1 overflows; the sum is taken over ||y|| / max ||y||
    fam = sl.VectorFamily(_l2(3), np.diag([3.0, 2.0, 3.0]))
    want = 3.0 * 2.0 ** (1.0 / p)  # two terms reach the largest norm 3
    assert sl.mixed_power_sum(sl.identity_witness(_l2(3)), [fam], p) == pytest.approx(want, rel=1e-12)
    outer = sl.tensor_witness(2, 3)
    assert sl.mixed_power_sum(outer, [fam, fam], p) == pytest.approx(9.0 * 4.0 ** (1.0 / p), rel=1e-12)


def test_mixed_power_sum_diagonal_basis():
    # the full m <= 3, n <= 16 grid stays within the 10^6 tuple envelope
    for m in (1, 2, 3):
        for n in (2, 3, 4, 5, 8, 11, 16):
            t = sl.tensor_witness(m, n)
            fams = [sl.VectorFamily.basis(_l2(n), n)] * m
            assert sl.mixed_power_sum(t, fams, 2.0) == pytest.approx(n ** (m / 2), rel=1e-12)


def test_mixed_power_sum_identity_basis():
    t = sl.identity_witness(_l2(9))
    fam = sl.VectorFamily.basis(_l2(9), 9)
    assert sl.mixed_power_sum(t, [fam], 2.0) == pytest.approx(3.0, rel=1e-12)


def test_mixed_power_sum_zero_map():
    space = _l2(2)
    t = sl.MultilinearMap((space,), space, sl.DenseTensor(np.zeros((2, 2))))
    assert sl.mixed_power_sum(t, [sl.VectorFamily.basis(space, 2)], 1.5) == 0.0


def test_mixed_power_sum_partition_independence(rng):
    # the compensated reduction must not depend on the chunking
    import summlab.maps as maps_mod

    space = _l2(3)
    t = sl.MultilinearMap((space, space), sl.lp(3, 2), sl.DenseTensor(rng.standard_normal((3, 3, 2))))
    fams = [random_family(rng, space, 7) for _ in range(2)]
    baseline = sl.mixed_power_sum(t, fams, 1.3)
    old = maps_mod._CHUNK_ELEMS
    try:
        for chunk in (1, 7, 64):
            maps_mod._CHUNK_ELEMS = chunk
            assert sl.mixed_power_sum(t, fams, 1.3) == baseline
    finally:
        maps_mod._CHUNK_ELEMS = old


@pytest.mark.parametrize("rows", [(2.0**53, 1.0, 1.0, 1.0), (2.0**53, 1.0, 1.0)])
def test_mixed_power_sum_is_one_correctly_rounded_sum(monkeypatch, rows):
    # rounding each chunk's sum first gives 2^53 + 2 for (2^53, 1 | 1, 1) instead of 2^53 + 4
    space = sl.lp(1, 1)
    t = sl.identity_witness(space)
    expected = math.fsum(rows)
    for chunk in (1, 2, 3, 7, maps._CHUNK_ELEMS):
        monkeypatch.setattr(maps, "_CHUNK_ELEMS", chunk)
        for order in itertools.permutations(rows):
            fam = sl.VectorFamily(space, np.array(order)[:, None])
            assert sl.mixed_power_sum(t, [fam], 1.0) == expected


def test_mixed_power_sum_arity_one_matches_reference(rng):
    # arity 1 is one matmul per chunk; compare with a plain NumPy reference
    import summlab.maps as maps_mod

    old = maps_mod._CHUNK_ELEMS
    try:
        for chunk in (old, 5):
            maps_mod._CHUNK_ELEMS = chunk
            for _ in range(30):
                dom = sl.lp(float(rng.choice([1.0, 1.5, 2.0, 3.0])), int(rng.integers(1, 9)))
                cod = sl.sup_slice(int(rng.integers(1, 6))) if rng.random() < 0.3 else sl.lp(1.5, int(rng.integers(1, 6)))
                coeffs = rng.standard_normal((dom.dimension, cod.dimension))
                t = sl.MultilinearMap((dom,), cod, sl.DenseTensor(coeffs))
                fam = random_family(rng, dom, int(rng.integers(1, 12)))
                p = float(rng.choice([1.0, 1.3, 2.0, 3.5]))
                outputs = np.abs(np.einsum("ka,ao->ko", fam.matrix, coeffs))
                norms = outputs.max(axis=1) if cod.is_sup else (outputs**1.5).sum(axis=1) ** (1 / 1.5)
                want = math.fsum((norms**p).tolist()) ** (1 / p)
                assert sl.mixed_power_sum(t, [fam], p) == pytest.approx(want, rel=1e-12)
    finally:
        maps_mod._CHUNK_ELEMS = old


def test_outer_product_body_matches_dense_oracle(rng):
    # the structured body against brute-force einsums over its dense n^(2m) copy
    n, k, p = 3, 4, 1.7
    fingerprints = set()
    for m in (1, 2, 3):
        dense = np.eye(n**m).reshape((n,) * m + (n**m,))
        dom_subs = ",".join("abc"[i] for i in range(m)) + "," + "abc"[:m] + "o"
        tup_subs = ",".join("uvw"[i] + "abc"[i] for i in range(m)) + "," + "abc"[:m] + "o->" + "uvw"[:m] + "o"
        for dom in (sl.lp(1, n), sl.lp(1.5, n), sl.lp(2, n), sl.sup_slice(n)):
            t = sl.diagonal_product_map(m, n, dom)
            fams = [random_family(rng, dom, k) for _ in range(m)]
            outputs = np.einsum(tup_subs, *(fam.matrix for fam in fams), dense)
            want = float((np.abs(outputs).max(axis=-1) ** p).sum()) ** (1 / p)
            assert sl.mixed_power_sum(t, fams, p) == pytest.approx(want, rel=1e-12)

            xs = [_vec(dom, fam.matrix[0]) for fam in fams]
            np.testing.assert_allclose(
                sl.eval_multilinear(t, xs).coords, np.einsum(dom_subs, *(x.coords for x in xs), dense), rtol=1e-12
            )

            res = sl.operator_norm(t)
            assert res.exact and res.value == 1.0
            assert sl.eval_multilinear(t, list(res.certificate)).norm() == 1.0

            with pytest.raises(BudgetError):
                sl.mixed_power_sum(t, fams, p, tuple_budget=k**m - 1)
            fingerprints.add(t.fingerprint())
    # every (m, domain) pair derives its own seeds; the l_2 form keeps the witness bytes
    assert len(fingerprints) == 12
    assert sl.diagonal_product_map(2, n, sl.lp(2, n)).fingerprint() == sl.tensor_witness(2, n).fingerprint()
    assert sl.tensor_witness(2, n).fingerprint() == b"diag" + struct.pack("<qq", 2, n)


def test_mixed_power_sum_errors(rng):
    t = sl.tensor_witness(2, 3)
    fams = [sl.VectorFamily.basis(_l2(3), 3)] * 2
    with pytest.raises(DomainError):
        sl.mixed_power_sum(t, fams, 0.0)
    with pytest.raises(BudgetError):
        sl.mixed_power_sum(t, fams, 2.0, tuple_budget=8)
    with pytest.raises(StructuralError):
        sl.mixed_power_sum(t, fams[:1], 2.0)
    bad = [sl.VectorFamily.basis(_l2(3), 3), sl.VectorFamily.basis(_l2(3), 2)]
    with pytest.raises(StructuralError):
        sl.mixed_power_sum(t, bad, 2.0)


def test_poly_power_sum_values():
    # equal coefficients at unit anchors: value^p = n^(1-p) >= 1
    n, p = 4, 1 / 3
    poly, anchors = sl.real_even_witness(2, p, _l2(n), n)
    val = sl.poly_power_sum(poly, anchors, p)
    assert val == pytest.approx((n ** (1 - p)) ** (1 / p), rel=1e-12)
    assert val**p >= 1.0 - 1e-12

    zero = sl.HomogeneousPolynomial(2, _l2(2), sl.lp(2, 1), sl.DenseTensor(np.zeros((2, 2, 1))))
    assert sl.poly_power_sum(zero, sl.VectorFamily.basis(_l2(2), 2), 0.7) == 0.0


def test_poly_power_sum_dominates_witness_floor(rng):
    # anchor evaluations dominate (sum_k |a_k| ||x_k||^(mp))^(1/p)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(0.2, 0.8))
        poly, anchors = sl.cotype_witness(2, p, _l2(n), 2.0, n)
        floor = (float((poly.body.a * anchors.norms() ** (2 * p)).sum())) ** (1 / p)
        assert sl.poly_power_sum(poly, anchors, p) >= floor * (1 - 1e-12)


def test_operator_norm_closed_forms():
    res = sl.operator_norm(sl.tensor_witness(3, 4))
    assert res.exact and res.value == 1.0

    res = sl.operator_norm(sl.identity_witness(_l2(5)))
    assert res.exact and res.value == pytest.approx(1.0, rel=1e-12)

    res = sl.operator_norm(sl.identity_witness(sl.lp(1, 5)))
    assert res.exact and res.value == 1.0

    res = sl.operator_norm(sl.identity_witness(sl.sup_slice(5)))
    assert res.exact and res.value == 1.0

    res = sl.operator_norm(sl.diagonal_product_map(2, 3, sl.lp(1, 3)))
    assert res.exact and res.value == 1.0


def test_operator_norm_l1_closed_form_matches_search(rng):
    space = sl.lp(1, 3)
    t = sl.MultilinearMap((space, space), sl.lp(2, 2), sl.DenseTensor(rng.standard_normal((3, 3, 2))))
    closed = sl.operator_norm(t)
    assert closed.exact
    # the searched lower bound must sit just below the exact closed form
    from summlab.maps import _search_multilinear_norm

    searched = _search_multilinear_norm(t, sl.DEFAULT_BUDGET)
    assert searched.value <= closed.value * (1 + 1e-9)
    assert searched.value >= 0.999 * closed.value


def test_operator_norm_search_on_hilbert_pair(rng):
    space = _l2(4)
    a = rng.standard_normal((4, 3))
    t = sl.MultilinearMap((space,), sl.lp(2, 3), sl.DenseTensor(a))
    res = sl.operator_norm(t)
    assert res.exact
    assert res.value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-12)
    # the certificate attains the value
    out = sl.eval_multilinear(t, list(res.certificate))
    assert out.norm() == pytest.approx(res.value, rel=1e-10)


@pytest.mark.parametrize("n, norm", [(4, 8.0), (16, 64.0)])
def test_linear_norm_on_a_sup_slice_is_exact(n, norm):
    # the Sylvester-Hadamard matrix from sup^n to l_1^n: max over signs s of ||H s||_1 = n^(3/2)
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    t = sl.MultilinearMap((sl.sup_slice(n),), sl.lp(1, n), sl.DenseTensor(h))
    res = sl.operator_norm(t)
    assert res.exact and res.value == norm
    assert res.certificate[0].norm() == 1.0
    assert sl.eval_multilinear(t, list(res.certificate)).norm() == norm


def test_functional_norm_is_the_dual_norm(rng):
    a = rng.standard_normal(4)
    t = sl.MultilinearMap((sl.lp(3, 4),), sl.real_line(), sl.DenseTensor(a[:, None]))
    res = sl.operator_norm(t)
    assert res.exact
    assert res.value == pytest.approx(float((np.abs(a) ** 1.5).sum() ** (1 / 1.5)), rel=1e-12)
    assert res.certificate[0].space == sl.lp(3, 4)
    assert res.certificate[0].norm() == pytest.approx(1.0, rel=1e-12)
    assert sl.eval_multilinear(t, list(res.certificate)).norm() == pytest.approx(res.value, rel=1e-12)


def test_operator_norm_search_vs_singular_value_oracle(rng):
    # bilinear forms on Hilbert domains: the true norm is the top singular value
    for _ in range(10):
        d1, d2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.standard_normal((d1, d2, 1))
        t = sl.MultilinearMap((_l2(d1), _l2(d2)), sl.lp(2, 1), sl.DenseTensor(a))
        est = sl.operator_norm(t)
        truth = np.linalg.svd(a[:, :, 0], compute_uv=False)[0]
        assert est.value <= truth * (1 + 1e-9)
        assert est.value >= truth * (1 - 1e-6)


def test_operator_norm_search_vs_eigenvalue_oracle(rng):
    # quadratic forms: the true norm is the largest absolute eigenvalue
    for _ in range(10):
        d = int(rng.integers(2, 6))
        raw = rng.standard_normal((d, d))
        sym = (raw + raw.T) / 2
        poly = sl.HomogeneousPolynomial(2, _l2(d), sl.lp(2, 1), sl.DenseTensor(sym[..., None]))
        est = sl.operator_norm(poly)
        truth = float(np.abs(np.linalg.eigvalsh(sym)).max())
        assert est.value <= truth * (1 + 1e-9)
        assert est.value >= truth * (1 - 1e-6)


def test_operator_norm_witness_caps(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        poly, _ = sl.cotype_witness(2, 0.5, _l2(n), 2.0, n)
        assert sl.operator_norm(poly).value <= 1 + 1e-9
        peven, _ = sl.real_even_witness(2, 0.4, _l2(n), n)
        assert sl.operator_norm(peven).value <= 1 + 1e-9


def test_operator_norm_certificates_feasible(rng):
    space = sl.lp(3, 3)
    t = sl.MultilinearMap((space, space), sl.lp(2, 2), sl.DenseTensor(rng.standard_normal((3, 3, 2))))
    res = sl.operator_norm(t)
    assert not res.exact
    for v in res.certificate:
        assert v.norm() <= 1 + 1e-9
    out = sl.eval_multilinear(t, list(res.certificate))
    assert out.norm() == pytest.approx(res.value, rel=1e-9)


def test_block_step_on_sup_domains_with_zero_slices(rng, small_budget):
    # on sup^d the block step's slot maximiser is sign(c), with 0 where c is 0;
    # the cube's sign vertices (at most 2^8 tuples here) give the exact norm
    from summlab.maps import _search_multilinear_norm

    for trial in range(24):
        m = 1 + trial % 2
        dims = [int(rng.integers(1, 5)) for _ in range(m)]
        codomain = sl.lp(float(rng.choice([1.0, 1.5, 2.0, 3.0])), int(rng.integers(1, 4)))
        a = rng.standard_normal((*dims, codomain.dimension))
        for axis, d in enumerate(dims):
            a[(slice(None),) * axis + (int(rng.integers(d)),)] = 0.0
        t = sl.MultilinearMap(tuple(sl.sup_slice(d) for d in dims), codomain, sl.DenseTensor(a))
        res = _search_multilinear_norm(t, small_budget)
        vertex_max = max(
            sl.eval_multilinear(t, [sl.Vector(sp, v) for sp, v in zip(t.domain, np.split(s, np.cumsum(dims)[:-1]))]).norm()
            for s in itertools.product((1.0, -1.0), repeat=sum(dims))
        )
        assert res.value <= vertex_max + 1e-12
        for v in res.certificate:
            assert v.norm() == pytest.approx(1.0, abs=1e-12)
        assert sl.eval_multilinear(t, list(res.certificate)).norm() == pytest.approx(res.value, rel=1e-12)


def test_dense_container_roundtrip(tmp_path, rng):
    arr = rng.standard_normal((2, 3, 2))
    from summlab.maps import array_to_dense_container, dense_container_to_array, load_dense_container
    import json

    for binary in (False, True):
        obj = array_to_dense_container(arr, binary=binary)
        np.testing.assert_array_equal(dense_container_to_array(obj), arr)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(array_to_dense_container(arr, binary=True)))
    np.testing.assert_array_equal(load_dense_container(path), arr)
    with pytest.raises(StructuralError):
        dense_container_to_array({"shape": [2, 2], "data": [1.0]})


def test_contract_plans_each_path_once_with_the_same_bits(rng, monkeypatch):
    # the cached path is the one optimize=True plans on every call, so the bits agree
    c2 = rng.standard_normal((3, 4, 2))
    c3 = rng.standard_normal((3, 4, 5, 2))
    a, b, c = rng.standard_normal((6, 3)), rng.standard_normal((6, 4)), rng.standard_normal((6, 5))
    u = rng.standard_normal((6, 2))
    cases = [
        (c2, [a, b], "uv", None),
        (c2, [a, b], "rr", None),
        (c2, [None, b], "rr", u),
        (c3, [a, b, c], "uvw", None),
        (c3, [a, b, c], "rrr", None),
        (c3, [a, None, c], "rrr", u),
        (c3, [a[:2], b, c], "uvw", None),
    ]
    maps._einsum_path.cache_clear()
    cached = [maps._contract(*case) for case in cases]
    again = [maps._contract(*case) for case in cases]
    assert maps._einsum_path.cache_info().hits == len(cases)
    monkeypatch.setattr(maps, "_einsum_path", lambda subscripts, shapes: True)
    for got, repeat, case in zip(cached, again, cases):
        want = maps._contract(*case)
        assert np.array_equal(got, want) and np.array_equal(repeat, want)
