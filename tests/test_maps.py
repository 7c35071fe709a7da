"""Map evaluation, power sums, operator norms."""

import itertools
import math
import struct

import numpy as np
import pytest

import summlab as sl
from summlab import maps
from summlab.errors import BudgetError, DomainError, StructuralError
from summlab.spaces import coord_norm

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
    # 64^2 tuples: the binned sum's path
    t = sl.MultilinearMap((_l2(3), _l2(3)), _l2(2), sl.DenseTensor(np.full((3, 3, 2), 1e300)))
    fam = sl.VectorFamily(_l2(3), np.full((64, 3), 1e10))
    with pytest.raises(StructuralError, match="largest double"):
        sl.mixed_power_sum(t, [fam, fam], 2.0)
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
    # 4,098 terms: the binned sum's path, two in three at the largest norm
    many = sl.VectorFamily(_l2(3), np.tile(np.diag([3.0, 2.0, 3.0]), (1366, 1)))
    want = 3.0 * 2732.0 ** (1.0 / p)
    assert sl.mixed_power_sum(sl.identity_witness(_l2(3)), [many], p) == pytest.approx(want, rel=1e-12)
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


def test_mixed_power_sum_partition_independence(rng, monkeypatch):
    # one exact sum, rounded once, at every chunk size: math.fsum over the same norms,
    # below the binned sum's cut-off (7^2 tuples) and above it (70^2)
    space = _l2(3)
    coefficients = rng.standard_normal((3, 3, 2))
    t = sl.MultilinearMap((space, space), sl.lp(3, 2), sl.DenseTensor(coefficients))
    for n in (7, 70):
        fams = [random_family(rng, space, n) for _ in range(2)]
        outputs = np.einsum("ua,vb,abo->ouv", fams[0].matrix, fams[1].matrix, coefficients)
        norms = coord_norm(t.codomain, outputs, axis=0).ravel()
        assert (norms.size >= maps._BINNED_MIN_TERMS) == (n == 70)
        want = math.fsum((norms**1.3).tolist()) ** (1 / 1.3)
        for chunk in (1, 7, 64, 1 << 14, 1 << 16):
            monkeypatch.setattr(maps, "_CHUNK_ELEMS", chunk)
            assert sl.mixed_power_sum(t, fams, 1.3) == want


def test_mixed_power_sum_chunking_at_benchmark_size(rng, monkeypatch):
    # the dense power-sum benchmark's size: one chunk, 2^16-entry chunks, and one row per chunk agree bit for bit
    space = _l2(16)
    t = sl.MultilinearMap((space, space), _l2(8), sl.DenseTensor(rng.standard_normal((16, 16, 8)) / 16.0))
    fams = [random_family(rng, space, 200) for _ in range(2)]
    values = []
    for chunk in (1 << 20, 1 << 16, 7):
        monkeypatch.setattr(maps, "_CHUNK_ELEMS", chunk)
        values.append(sl.mixed_power_sum(t, fams, 3.0))
    assert values[0] == values[1] == values[2]


@pytest.mark.parametrize(
    "shape, n, bitwise",
    [((16, 16, 8), 200, True), ((16, 16, 8), 100, True), ((6, 6, 4), 32, True), ((3, 3, 2), 64, True), ((5, 7, 3), 11, False)],
)
def test_arity_two_chunks_keep_einsum_bits(rng, monkeypatch, shape, n, bitwise):
    # an arity-2 chunk is two matmuls, its rows' partial sums xa[o, u, b] = sum_a x_ua c_abo and then
    # xa times the second family: the products of einsum's greedy path wherever that path contracts
    # the first family first, so the norms are einsum's bit for bit; at (5, 7, 3) the path contracts
    # the second family first, and the norms agree to rounding
    d1, d2, d_out = shape
    fams = [random_family(rng, _l2(d1), n), random_family(rng, _l2(d2), n)]
    coefficients = rng.standard_normal(shape) / d1
    rows = maps._CHUNK_ELEMS // (n * d_out)
    chunks = [
        np.einsum("ua,vb,abo->ouv", fams[0].matrix[lo : lo + rows], fams[1].matrix, coefficients, optimize="greedy")
        for lo in range(0, n, rows)
    ]
    monkeypatch.setattr(maps, "_root", lambda p, count, factors: np.concatenate(list(factors()[0])))
    for cod in (_l2(d_out), sl.lp(1.5, d_out), sl.sup_slice(d_out)):
        t = sl.MultilinearMap((_l2(d1), _l2(d2)), cod, sl.DenseTensor(coefficients))
        want = np.concatenate([coord_norm(cod, chunk, axis=0).ravel() for chunk in chunks])
        got = sl.mixed_power_sum(t, fams, 3.0)
        assert got.shape == (n * n,)
        if bitwise:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("rows",[(2.0**53, 1.0, 1.0, 1.0), (2.0**53, 1.0, 1.0), (2.0**53,) + (1.0,) * maps._BINNED_MIN_TERMS])
def test_mixed_power_sum_is_one_correctly_rounded_sum(monkeypatch, rows):
    # rounding each chunk's sum first gives 2^53 + 2 for (2^53, 1 | 1, 1) instead of 2^53 + 4,
    # and 2^53 for 2^53 followed by 2^12 ones instead of 2^53 + 2^12
    space = sl.lp(1, 1)
    t = sl.identity_witness(space)
    expected = math.fsum(rows)
    orders = itertools.permutations(rows) if len(rows) <= 4 else [rows, rows[::-1]]
    for order in orders:
        fam = sl.VectorFamily(space, np.array(order)[:, None])
        for chunk in (1, 2, 3, 7, maps._CHUNK_ELEMS):
            monkeypatch.setattr(maps, "_CHUNK_ELEMS", chunk)
            assert sl.mixed_power_sum(t, [fam], 1.0) == expected


def _spread_terms(rng, size):
    """Nonnegative doubles whose exponents spread over +/-700, with zeros and subnormals among them."""
    w = np.abs(rng.standard_normal(size)) * np.exp2(rng.integers(-700, 701, size).astype(float))
    w[rng.random(size) < 0.1] = 0.0
    subnormal = rng.random(size) < 0.1
    w[subnormal] = rng.random(subnormal.sum()) * 2.0**-1022
    return w


@pytest.mark.parametrize("size", [1, 100, maps._BINNED_MIN_TERMS - 1, maps._BINNED_MIN_TERMS, maps._BINNED_MIN_TERMS + 1, 50_000])
def test_binned_sum_equals_fsum(rng, size):
    # both paths of _power_total give the one correctly rounded sum, split into blocks or not
    for _ in range(5):
        w = _spread_terms(rng, size)
        expected = math.fsum(w.tolist())
        assert maps._binned_sum(w) / maps._BIN_UNIT == expected
        blocks = [b for b in np.array_split(w, [size // 3, size // 2]) if b.size]
        for count in (1, size, maps._BINNED_MIN_TERMS):  # below the cut-off: math.fsum; from it on: binned
            assert maps._power_total(iter(blocks), 1.0, count) == expected
    tiny = np.full(size, 2.0**-1074)  # the smallest subnormal, summed exactly
    assert maps._binned_sum(tiny) / maps._BIN_UNIT == math.fsum(tiny.tolist()) == size * 2.0**-1074


def test_power_total_of_a_non_finite_block():
    # what math.fsum gives: NaN for a NaN term, inf for a power beyond 2^960
    for count in (3, maps._BINNED_MIN_TERMS):
        assert math.isnan(maps._power_total([np.array([1.0, math.nan, 2.0])], 2.0, count))
        assert maps._power_total([np.array([1.0]), np.array([2.0**500])], 2.0, count) == math.inf
        assert maps._power_total([np.array([1.0, math.inf])], 2.0, count) == math.inf


@pytest.mark.parametrize("m", [2, 3])
def test_output_major_norms_match_row_major_norms(rng, monkeypatch, m):
    # a chunk lays the output axis out first, and a norm along it sums in order; along the last
    # axis numpy sums 8 entries or more pairwise, so those norms agree to rounding only
    blocks = []

    def recorded(space, block, axis):
        blocks.append(block)
        return coord_norm(space, block, axis=axis)

    monkeypatch.setattr(maps, "coord_norm", recorded)
    for cod_p in (1.0, 2.0, 3.0, math.inf):
        for d_out in range(1, 17):
            cod = sl.lp(cod_p, d_out)
            t = sl.MultilinearMap((_l2(3),) * m, cod, sl.DenseTensor(rng.standard_normal((3,) * m + (d_out,))))
            n = int(rng.integers(1, 6))
            blocks.clear()
            sl.mixed_power_sum(t, [random_family(rng, _l2(3), n) for _ in range(m)], 2.0)
            (block,) = blocks
            assert block.shape == (d_out, n**m) and block.flags.c_contiguous
            cols = coord_norm(cod, block, axis=0)
            rows = coord_norm(cod, np.ascontiguousarray(block.T), axis=-1)
            if d_out < 8 or cod.is_sup:
                assert rows.tobytes() == cols.tobytes()
            else:
                np.testing.assert_allclose(cols, rows, rtol=1e-15, atol=0.0)


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


def test_degree_seven_dense_polynomial(rng):
    # slot-order matmuls bound neither the degree nor the arity: the diagonal of the same
    # tensor through eval_multilinear's tensordot loop is the reference
    space, cod = _l2(2), sl.lp(1.5, 2)
    coefficients = rng.standard_normal((2,) * 7 + (2,))
    poly = sl.HomogeneousPolynomial(7, space, cod, sl.DenseTensor(coefficients))
    t = sl.MultilinearMap((space,) * 7, cod, sl.DenseTensor(coefficients))
    fam = random_family(rng, space, 6)
    want = [sl.eval_multilinear(t, [_vec(space, x)] * 7) for x in fam.matrix]
    for x, w in zip(fam.matrix, want):
        np.testing.assert_allclose(sl.eval_polynomial(poly, _vec(space, x)).coords, w.coords, rtol=1e-12, atol=1e-12)
    expected = math.fsum(w.norm() ** 2.5 for w in want) ** (1 / 2.5)
    assert sl.poly_power_sum(poly, fam, 2.5) == pytest.approx(expected, rel=1e-12)
    res = sl.operator_norm(poly)
    best_basis = max(sl.eval_polynomial(poly, _vec(space, e)).norm() for e in np.eye(2))
    assert not res.exact and res.value >= best_basis
    assert sl.eval_polynomial(poly, res.certificate[0]).norm() == pytest.approx(res.value, rel=1e-12)


def test_arity_seven_dense_map(rng, monkeypatch):
    dims = (2, 1, 2, 2, 1, 2, 2)
    domain = tuple(_l2(d) for d in dims)
    coefficients = rng.standard_normal(dims + (3,))
    t = sl.MultilinearMap(domain, _l2(3), sl.DenseTensor(coefficients))
    fams = [random_family(rng, s, 3) for s in domain]
    want = sl.brute_force_mixed_sum(t, fams, 3.0)
    got = sl.mixed_power_sum(t, fams, 3.0)
    assert got == pytest.approx(want, rel=1e-12)
    monkeypatch.setattr(maps, "_CHUNK_ELEMS", 7)  # one row per chunk: the same exact sum
    assert sl.mixed_power_sum(t, fams, 3.0) == got
    res = sl.operator_norm(t)
    basis_tuples = itertools.product(*(np.eye(d) for d in dims))
    best_basis = max(sl.eval_multilinear(t, [_vec(s, e) for s, e in zip(domain, es)]).norm() for es in basis_tuples)
    assert not res.exact and res.value >= best_basis
    # on l_2 domains and codomain the Hilbert-Schmidt norm of the coefficients bounds the operator norm
    assert res.value <= np.linalg.norm(coefficients) * (1 + 1e-12)
    assert sl.eval_multilinear(t, list(res.certificate)).norm() == pytest.approx(res.value, rel=1e-12)


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


_BASIS = sl.VectorFamily.basis(_l2(3), 3)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda x: sl.weak_norm(_BASIS, x), "q"),
        (lambda x: sl.weak_norm_search(_BASIS, x), "q"),
        (lambda x: sl.weak_norm_vertex_oracle(sl.VectorFamily.basis(sl.lp(1, 3), 3), x), "q"),
        (lambda x: sl.brute_force_weak_norm(_BASIS, x), "q"),
        (lambda x: sl.mixed_power_sum(sl.identity_witness(_l2(3)), [_BASIS], x), "p"),
        (lambda x: sl.brute_force_mixed_sum(sl.identity_witness(_l2(3)), [_BASIS], x), "p"),
        (lambda x: sl.poly_power_sum(sl.real_even_witness(2, 0.5, _l2(3), 3)[0], _BASIS, x), "p"),
        (lambda x: sl.WitnessBody(np.array([1.0]), np.array([[1.0, 0.0]]), x), "p"),
        (lambda x: sl.identity_cap_check(x, 2), "p"),
        (sl.dual_exponent, "p"),
    ],
    ids=[
        "weak-norm",
        "weak-norm-search",
        "vertex-oracle",
        "sampled-weak-norm",
        "mixed-power-sum",
        "brute-force-sum",
        "poly-power-sum",
        "witness-body",
        "cap-check",
        "dual-exponent",
    ],
)
@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
def test_exponent_guards_name_the_exponent(call, name, value):
    # NaN fails every comparison, so a guard written q <= 0 let it through to a search or a root
    with pytest.raises(DomainError, match=rf"\b{name}\b.*got {value}\b"):
        call(value)
