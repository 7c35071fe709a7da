"""Bounded multilinear maps and homogeneous polynomials.

One dense body, a coefficient tensor of shape d_1 x ... x d_m x d_out,
serves both kinds of map: a degree-m polynomial is the diagonal
P(x) = T(x, ..., x) of any tensor T of shape (d,)*m x d_out.  The other
multilinear body is the structured outer-product map into a sup slice,

    T(x^(1), ..., x^(m)) = ( x^(1)_{j_1} ... x^(m)_{j_m} )_{j_1..j_m},

stored in O(1) on any m domain spaces of dimension n.  Its operator
norm is exactly 1 because ||(x) x^(i)||_inf = prod ||x^(i)||_inf <=
prod ||x^(i)||.  The other polynomial body is the structured witness
form

    P(x) = sum_j |a_j|^(1/p) phi_j(x)^m y_j

with vector targets y_j into a cotype-r codomain, or scalar valued
(every y_j = 1, m even), which is the same form at r = 1.  The
coefficient normalization sum |a_j|^(r/p) = 1 is enforced at
construction.

Every dense contraction takes the slots in one order, the slot order,
each slot by one matmul, so dense maps and polynomials of any order are
accepted.  A batch of rows (a polynomial's arguments, a search's
starts) contracts the tensor with row r of every slot's matrix.

The mixed power sum of the outer-product map is a closed form: the sum
over tuples factorises into a product of per-slot sums.  Dense bodies
enumerate all n^m argument tuples, at most the tuple budget, in chunks
of the leading index, each of about 2^16 output entries, so a chunk's
temporaries stay in cache.  A chunk is one chain in slot order: its rows
of the first family times the tensor, each middle family broadcast over
the tuples so far, then the last family with the output axis laid out
first, so each tuple's norm is a reduction along that long, contiguous
axis.  At arity 1 the one matmul keeps the output axis last.  Every term
goes into one exact sum, rounded once: below 2^12 terms ``math.fsum``
over a list, from there on a binned sum of the terms' mantissas by
exponent, which runs at array speed.  So the result depends neither on
the chunking nor on the row order; near the edge of the float range the
norms are divided by the largest.  A linear map's operator norm is a
weak norm.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError, StructuralError
from .search import DEFAULT_BUDGET, SearchBudget, derive_seed, gradient_step, multistart_ascent, quasi_random_directions
from .spaces import (
    SpaceDescriptor,
    Vector,
    coord_norm,
    dual,
    frozen_array,
    lp,
    norming_rows,
    sup_slice,
    unit_rows,
)
from .weak_norms import VectorFamily, weak_norm

DEFAULT_TUPLE_BUDGET = 10**8
_CHUNK_ELEMS = 1 << 16  # output entries per dense chunk; see the module docstring
_BINNED_MIN_TERMS = 1 << 12  # from this many terms on the binned sum beats math.fsum; both are exact
_BIN_TERMS = 1 << 26  # a bin's float sums of mantissa halves stay exact below this many terms
_BIN_UNIT = 1 << 1126  # a binned sum counts in units of 2^-1126: 2^-1074 is 2^52 of them
_SMALL = math.ldexp(1.0, 53 - 1022)  # 2^53 times the smallest normal double: underflow moves a larger sum < 1 ulp


# ---------------------------------------------------------------------------
# bodies and map types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Dense coefficient array of shape d_1 x ... x d_m x d_out."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        a = frozen_array(self.coefficients, "tensor entries")
        if a.ndim < 2:
            raise StructuralError("dense tensor needs at least one domain axis plus the output axis")
        object.__setattr__(self, "coefficients", a)


def _check_shape(body: DenseTensor, want: tuple[int, ...]) -> None:
    if body.coefficients.shape != want:
        raise StructuralError(f"tensor shape {body.coefficients.shape} does not match descriptors {want}")


@dataclass(frozen=True, eq=False)
class DiagonalC0:
    """Outer-product map of order m on any domains of dimension n, valued in sup^(n^m); norm 1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise StructuralError("diagonal map needs n >= 1")


@dataclass(frozen=True, eq=False)
class MultilinearMap:
    domain: tuple[SpaceDescriptor, ...]
    codomain: SpaceDescriptor
    body: DenseTensor | DiagonalC0

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        m = len(self.domain)
        if m < 1:
            raise StructuralError("multilinear map needs arity >= 1")
        if isinstance(self.body, DenseTensor):
            _check_shape(self.body, tuple(s.dimension for s in self.domain) + (self.codomain.dimension,))
        else:
            n = self.body.n
            if any(s.dimension != n for s in self.domain):
                raise StructuralError(f"diagonal body requires every domain space to have dimension {n}")
            if self.codomain != sup_slice(n**m):
                raise StructuralError("diagonal body requires a sup-slice codomain of dimension n^m")

    @property
    def arity(self) -> int:
        return len(self.domain)

    def fingerprint(self) -> bytes:
        if isinstance(self.body, DiagonalC0):
            fp = b"diag" + struct.pack("<qq", self.arity, self.body.n)
            # the l_2 form keeps its original bytes (and so its derived seeds)
            if any(s != lp(2.0, self.body.n) for s in self.domain):
                fp += repr(self.domain).encode()
            return fp
        return b"denseT" + repr(self.body.coefficients.shape).encode() + self.body.coefficients.tobytes()


@dataclass(frozen=True, eq=False)
class WitnessBody:
    """P(x) = sum_j |a_j|^(1/p) phi_j(x)^m y_j; ``targets=None`` means scalar valued (every y_j = 1)."""

    a: np.ndarray
    functionals: np.ndarray
    p: float
    targets: np.ndarray | None = None
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        av = frozen_array(self.a, "witness coefficients")
        fv = frozen_array(self.functionals, "witness functionals")
        if av.ndim != 1 or np.any(av < 0):
            raise StructuralError("witness coefficients must be a flat nonnegative array")
        if fv.ndim != 2 or fv.shape[0] != av.shape[0]:
            raise StructuralError("witness functionals must be one row per coefficient")
        if not self.p > 0:  # written so that NaN fails it
            raise DomainError(f"witness exponent p must be positive, got {self.p}")
        arrays = {"a": av, "functionals": fv, "weights": frozen_array(av ** (1.0 / self.p), "witness weights")}
        if self.targets is not None:
            tv = frozen_array(self.targets, "witness targets")
            if tv.ndim != 2 or tv.shape[0] != av.shape[0]:
                raise StructuralError("witness targets must be one row per coefficient")
            arrays["targets"] = tv
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class HomogeneousPolynomial:
    degree: int
    domain: SpaceDescriptor
    codomain: SpaceDescriptor
    body: DenseTensor | WitnessBody

    def __post_init__(self) -> None:
        m = self.degree
        if m < 1:
            raise StructuralError("polynomial degree must be >= 1")
        d = self.domain.dimension
        if isinstance(self.body, DenseTensor):
            _check_shape(self.body, (d,) * m + (self.codomain.dimension,))
            return
        if self.body.functionals.shape[1] != d:
            raise StructuralError("witness functionals do not match the domain dimension")
        if np.any(coord_norm(dual(self.domain), self.body.functionals, axis=1) > 1.0 + 1e-12):
            raise StructuralError("witness functionals must lie in the dual unit ball")
        if self.body.targets is None:
            if m % 2 != 0:
                raise StructuralError("scalar even witness requires even degree")
            if self.codomain.dimension != 1:
                raise StructuralError("scalar even witness requires a 1-dimensional codomain")
            r = 1.0  # the scalar witness is the cotype witness at r = 1
        else:
            if self.body.targets.shape[1] != self.codomain.dimension:
                raise StructuralError("witness targets do not match the codomain dimension")
            r = self.codomain.cotype
            if not np.isfinite(r):
                raise StructuralError("cotype witness needs a codomain with finite cotype")
        total = float((self.body.a ** (r / self.body.p)).sum())
        if abs(total - 1.0) > 1e-12:
            raise StructuralError(f"coefficient normalization sum a^(r/p) = {total} at r = {r}, expected 1")

    def fingerprint(self) -> bytes:
        if isinstance(self.body, DenseTensor):
            return b"denseP" + struct.pack("<q", self.degree) + self.body.coefficients.tobytes()
        targets = self.body.targets
        tag = b"even" if targets is None else b"cot"
        parts = [tag, struct.pack("<qd", self.degree, self.body.p), self.body.a.tobytes(), self.body.functionals.tobytes()]
        if targets is not None:
            parts.append(targets.tobytes())
        return b"".join(parts)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _batch_contract(coefficients: np.ndarray, mats, u: np.ndarray | None = None) -> np.ndarray:
    """The coefficient tensor contracted with row r of each slot's (r, d_i) matrix, r over the batch.

    The slots are contracted in slot order: the first by one matmul, each
    later one by one batched matmul.  A ``None`` slot stays free: its axis
    is moved next to the output axis first.  The result is
    (r, [d_free,] d_out), or (r, [d_free]) when ``u`` (r x d_out)
    contracts the output axis, which sets r when every slot is free.
    """
    m = len(mats)
    free = [i for i, x in enumerate(mats) if x is None]
    y = np.moveaxis(coefficients, free, range(m - len(free), m))
    tail = y.shape[m - len(free) :]
    xs = [x for x in mats if x is not None]
    if xs:
        y = xs[0] @ y.reshape(xs[0].shape[1], -1)
    for x in xs[1:]:
        y = (x[:, None, :] @ y.reshape(len(x), x.shape[1], -1))[:, 0]
    y = y.reshape(-1, *tail)
    if u is None:
        return y
    return (y.reshape(len(y), -1, u.shape[1]) @ u[:, :, None]).reshape(len(u), *tail[:-1])


def eval_multilinear(t: MultilinearMap, args) -> Vector:
    """Pointwise evaluation T(x^(1), ..., x^(m))."""
    args = list(args)
    if len(args) != t.arity:
        raise StructuralError(f"map of arity {t.arity} called with {len(args)} arguments")
    for x, s in zip(args, t.domain):
        if x.space != s:
            raise StructuralError(f"argument in {x.space} does not match domain slot {s}")
    if isinstance(t.body, DiagonalC0):
        out = args[0].coords
        for x in args[1:]:
            out = np.multiply.outer(out, x.coords)
        return Vector(t.codomain, out.ravel())
    out = t.body.coefficients
    for x in args:
        out = np.tensordot(x.coords, out, axes=(0, 0))
    return Vector(t.codomain, out)


def eval_polynomial(p: HomogeneousPolynomial, x: Vector) -> Vector:
    """Pointwise evaluation P(x): :func:`_poly_outputs` on one row."""
    if x.space != p.domain:
        raise StructuralError(f"argument in {x.space} does not match domain {p.domain}")
    return Vector(p.codomain, _poly_outputs(p, x.coords[None, :])[0])


def _poly_outputs(p: HomogeneousPolynomial, rows: np.ndarray) -> np.ndarray:
    """P applied to every row of an (k, d) matrix -> (k, d_out)."""
    body = p.body
    if isinstance(body, DenseTensor):
        return _batch_contract(body.coefficients, [rows] * p.degree)
    g = rows @ body.functionals.T
    terms = body.weights * g**p.degree
    if body.targets is None:
        return terms.sum(axis=1, keepdims=True)
    return terms @ body.targets


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------


def _check_families(t: MultilinearMap, families) -> int:
    families = list(families)
    if len(families) != t.arity:
        raise StructuralError(f"map of arity {t.arity} given {len(families)} families")
    for fam, s in zip(families, t.domain):
        if fam.space != s:
            raise StructuralError(f"family in {fam.space} does not match domain slot {s}")
    lengths = {fam.n for fam in families}
    if len(lengths) != 1:
        raise StructuralError(f"families must share one length, got {sorted(lengths)}")
    return lengths.pop()


def _binned_sum(w: np.ndarray) -> int:
    """The exact sum of a finite float array's fewer than ``_BIN_TERMS`` entries, in units of 1 / ``_BIN_UNIT``.

    An entry is M 2^(e - 53) with e from ``frexp`` and M an integer below
    2^53, so it is M 2^i units with i = e + 1073 >= 0.  The entries are
    binned by i, and each bin sums M's high 27 bits and its low 26 bits
    (as a fraction of 2^26) apart: below 2^26 entries both float sums are
    exact.  The bins then fold into one integer.
    """
    high, exp = np.frexp(w)
    high *= 134217728.0  # 2^27: now M / 2^26, with 26 fraction bits
    whole = np.floor(high)
    high -= whole
    exp += 1073
    hi, lo = np.bincount(exp, weights=whole), np.bincount(exp, weights=high)
    bins = np.flatnonzero(hi + lo)
    total = 0
    for i, h, f in zip(bins.tolist(), hi[bins].tolist(), lo[bins].tolist()):
        total += ((int(h) << 26) + int(f * 67108864.0)) << i
    return total


def _power_total(blocks: Iterable[np.ndarray], p: float, count: int) -> float:
    """The correctly rounded sum of v^p over the ``count`` entries v of the nonnegative arrays ``blocks`` yields.

    A block whose largest entry is NaN gives NaN, and one whose largest
    power reaches 2^960 gives inf; then the remaining blocks are not
    read.  Below that no power overflows, and a sum of up to 2^63 of
    them stays finite.  Below ``_BINNED_MIN_TERMS`` the powers go into
    one ``math.fsum``, which is faster there.  From there on each block
    is binned exactly and the integer total divided once, which rounds
    it correctly, subnormals included.
    """
    binned = count >= _BINNED_MIN_TERMS
    terms: list[float] = []
    exact = 0
    for v in blocks:
        top = float(v[v.argmax()])  # argmax stops at the first NaN
        if not top <= 1.0 and not p * math.log2(top) < 960.0:
            return top if math.isnan(top) else math.inf
        w = v**p
        if binned:
            exact += sum(_binned_sum(w[lo : lo + _BIN_TERMS]) for lo in range(0, w.size, _BIN_TERMS))
        else:
            terms += w.tolist()
    return exact / _BIN_UNIT if binned else math.fsum(terms)


def _root(p: float, count: int, factors: Callable[[], list[Iterable[np.ndarray]]]) -> float:
    """The p-th root of a power sum; a root beyond the float range raises StructuralError.

    The power sum is the product, over the factors in ``factors()``, of the
    sum of v^p over the ``count`` entries v of the arrays a factor yields.
    A product that is not finite or below ``_SMALL`` is summed again, each
    factor over its v / top with top its largest v, so that no term
    exceeds 1 however large p is, and its root is scaled back by the
    tops.  A norm that is not finite, from a contraction that overflowed,
    makes the root not finite.
    """
    total = math.prod(_power_total(blocks, p, count) for blocks in factors())
    e, unit = 0, 1.0
    if not _SMALL <= total < math.inf:
        total = 1.0
        for blocks, again in zip(factors(), factors()):  # one pass for the top, one for the sum
            top = max(float(v[v.argmax()]) for v in blocks) or 1.0  # an all-zero factor sums to 0 either way
            total *= _power_total((v / top for v in again), p, count)
            frac, exp = math.frexp(top)
            unit, shift = math.frexp(unit * frac)
            e += exp + shift
    try:
        root = math.ldexp(total ** (1.0 / p) * unit, e)
    except OverflowError:
        root = math.inf
    if not math.isfinite(root):
        raise StructuralError(f"power sum to the power 1/p = {1.0 / p:g} exceeds the largest double")
    return root


def mixed_power_sum(
    t: MultilinearMap,
    families,
    p: float,
    *,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> float:
    """( sum over all n^m tuples of ||T(x_{k_1}, ..., x_{k_m})||^p )^(1/p).

    Outer-product maps use the closed form
    sum_tuples prod_i a_{i,k_i}^p = prod_i sum_k a_{i,k}^p with
    a_{i,k} = ||x^(i)_k||_inf, each slot reduced with exact summation.
    Dense maps are enumerated chunk by chunk on the leading index, and
    all n^m terms go into one exact sum, rounded once, so neither the
    chunking nor the row order changes a bit of the value.
    """
    if not p > 0:  # written so that NaN fails it
        raise DomainError(f"power sum requires p > 0, got {p}")
    families = list(families)
    n = _check_families(t, families)
    m = t.arity
    # the first test keeps float(n) ** m finite: an n^m near the float range exceeds any budget
    if m * math.log2(n) > 1023 or float(n) ** m > tuple_budget:
        raise BudgetError(f"{n}^{m} tuples exceed the budget of {tuple_budget}")

    if isinstance(t.body, DiagonalC0):
        norms = [np.abs(fam.matrix).max(axis=1) for fam in families]  # taken once, read by both passes of _root
        return _root(p, n, lambda: [[v] for v in norms])

    mats = [fam.matrix for fam in families]
    c = t.body.coefficients
    d_out = t.codomain.dimension
    block_rows = max(1, _CHUNK_ELEMS // max(1, n ** (m - 1) * d_out))

    def chunk_norms():
        for lo in range(0, n, block_rows):
            # slot order: the chunk's rows of the first family, each middle family broadcast
            # over the tuples so far, then the last family with the output axis laid out first
            y = mats[0][lo : lo + block_rows] @ c.reshape(c.shape[0], -1)
            if m == 1:
                yield coord_norm(t.codomain, y, axis=-1)
                continue
            for x in mats[1:-1]:
                y = (x @ y.reshape(len(y), x.shape[1], -1)).reshape(len(y) * n, -1)
            last = mats[-1]
            block = y.reshape(len(y), last.shape[1], d_out).transpose(2, 0, 1).reshape(-1, last.shape[1]) @ last.T
            yield coord_norm(t.codomain, block.reshape(d_out, -1), axis=0)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing contraction leaves a root _root refuses
        return _root(p, n**m, lambda: [chunk_norms()])


def poly_power_sum(
    p_map: HomogeneousPolynomial,
    family: VectorFamily,
    p: float,
    *,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> float:
    """( sum_k ||P(x_k)||^p )^(1/p) over the n family members."""
    if not p > 0:  # written so that NaN fails it
        raise DomainError(f"power sum requires p > 0, got {p}")
    if family.space != p_map.domain:
        raise StructuralError(f"family in {family.space} does not match domain {p_map.domain}")
    if family.n > tuple_budget:
        raise BudgetError(f"{family.n} terms exceed the budget of {tuple_budget}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing polynomial leaves a root _root refuses
        norms = np.atleast_1d(coord_norm(p_map.codomain, _poly_outputs(p_map, family.matrix), axis=-1))
        return _root(p, family.n, lambda: [[norms]])


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OperatorNormResult:
    """Operator-norm estimate with the maximizing input(s) found.

    exact=True only on closed-form paths; searched values are certified
    lower bounds of the true supremum.
    """

    value: float
    certificate: tuple[Vector, ...]
    exact: bool


def _sphere_starts(space: SpaceDescriptor, count: int, seed: int, offset: int = 0) -> np.ndarray:
    d = space.dimension
    rows = np.zeros((count, d))
    n_basis = min(count, d)
    for r in range(n_basis):
        rows[r, (r + offset) % d] = 1.0
    if count > n_basis:
        rows[n_basis:] = quasi_random_directions(count - n_basis, d, seed)
    return unit_rows(space, rows)


def _search_multilinear_norm(t: MultilinearMap, budget: SearchBudget) -> OperatorNormResult:
    """Block ascent: each slot in turn maximises its contraction c against the output's norming rows.

    The maximiser over the unit ball of slot space E is ``norming_rows(dual(E), c)``.
    """
    seed = derive_seed(budget.seed, "operator_norm", t.fingerprint())
    m = t.arity
    cuts = np.cumsum([s.dimension for s in t.domain])[:-1]
    starts = np.hstack(
        [_sphere_starts(s, budget.restarts, derive_seed(seed, f"slot{i}"), offset=i) for i, s in enumerate(t.domain)]
    )

    def objective(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = _batch_contract(t.body.coefficients, np.hsplit(rows, cuts))
        return coord_norm(t.codomain, y, axis=1), y

    def propose(rows: np.ndarray, y: np.ndarray, step: np.ndarray) -> np.ndarray:
        xs = np.hsplit(rows, cuts)
        u = norming_rows(t.codomain, y)
        for i, s in enumerate(t.domain):
            c = _batch_contract(t.body.coefficients, [None if j == i else xs[j] for j in range(m)], u)
            xs[i] = norming_rows(dual(s), c)
        return np.hstack(xs)

    value, row = multistart_ascent(starts, objective, propose, budget)
    return OperatorNormResult(value, tuple(Vector(s, x) for s, x in zip(t.domain, np.hsplit(row, cuts))), exact=False)


def _batch_poly_gradients(p: HomogeneousPolynomial, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    body = p.body
    m = p.degree
    if isinstance(body, DenseTensor):
        grad = np.zeros_like(x)
        for slot in range(m):
            grad += _batch_contract(body.coefficients, [None if i == slot else x for i in range(m)], u)
        return grad
    g = x @ body.functionals.T
    tau = u[:, :1] if body.targets is None else u @ body.targets.T
    coef = body.weights * m * g ** (m - 1) * tau
    return coef @ body.functionals


def _search_polynomial_norm(p: HomogeneousPolynomial, budget: SearchBudget) -> OperatorNormResult:
    """Normalised gradient ascent of ||P(x)|| on the unit sphere of the domain."""
    seed = derive_seed(budget.seed, "operator_norm", p.fingerprint())

    def objective(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = _poly_outputs(p, rows)
        return coord_norm(p.codomain, y, axis=1), y

    def propose(x: np.ndarray, y: np.ndarray, step: np.ndarray) -> np.ndarray:
        return gradient_step(p.domain, x, _batch_poly_gradients(p, x, norming_rows(p.codomain, y)), step)

    value, row = multistart_ascent(_sphere_starts(p.domain, budget.restarts, seed), objective, propose, budget)
    return OperatorNormResult(value, (Vector(p.domain, row),), exact=False)


def operator_norm(obj, budget: SearchBudget = DEFAULT_BUDGET) -> OperatorNormResult:
    """Operator norm: exact where a closed form exists, else a searched lower bound.

    Closed forms: the outer-product map on any domains (norm exactly 1,
    attained at a tuple of first basis vectors);
    dense maps whose domains are all l_1 (the sup over products of l_1
    balls is attained at basis tuples); and linear maps into sup-norm
    spaces (max dual norm of an output-coordinate functional).  Any other
    linear map A: E -> l_q^k has the weak l_q norm of the rows of A^T in
    E* as its norm, exact on the fast paths of ``weak_norm``.
    """
    if isinstance(obj, HomogeneousPolynomial):
        return _search_polynomial_norm(obj, budget)
    if not isinstance(obj, MultilinearMap):
        raise StructuralError(f"cannot take the operator norm of {type(obj).__name__}")
    t = obj
    if isinstance(t.body, DiagonalC0):
        cert = tuple(Vector(s, np.eye(1, s.dimension)[0]) for s in t.domain)
        return OperatorNormResult(1.0, cert, exact=True)
    a = t.body.coefficients
    if all(s.exponent == 1.0 for s in t.domain):
        entry_norms = coord_norm(t.codomain, a, axis=-1)  # one axis per domain slot, since a has an output axis
        idx = np.unravel_index(int(np.argmax(entry_norms)), entry_norms.shape)
        cert = tuple(Vector(s, np.eye(1, s.dimension, i)[0]) for s, i in zip(t.domain, idx))
        return OperatorNormResult(float(entry_norms[idx]), cert, exact=True)
    if t.arity == 1:
        dom = t.domain[0]
        if t.codomain.is_sup:
            colnorms = np.atleast_1d(coord_norm(dual(dom), a.T, axis=1))
            o = int(np.argmax(colnorms))
            cert = (Vector(dom, norming_rows(dual(dom), a.T[o : o + 1])[0]),)
            return OperatorNormResult(float(colnorms[o]), cert, exact=True)
        res = weak_norm(VectorFamily(dual(dom), a.T), t.codomain.exponent, budget)
        return OperatorNormResult(res.value, (Vector(dom, res.certificate.coords),), res.exact)
    return _search_multilinear_norm(t, budget)


# ---------------------------------------------------------------------------
# dense tensor containers
# ---------------------------------------------------------------------------


def dense_container_to_array(obj: dict) -> np.ndarray:
    """Decode {shape, row-major float64 payload} (list or base64) to an array."""
    try:
        shape = tuple(int(s) for s in obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"bad dense container: {exc}") from exc
    if "data_b64" in obj:
        raw = base64.b64decode(obj["data_b64"])
        flat = np.frombuffer(raw, dtype="<f8")
    elif "data" in obj:
        flat = np.asarray(obj["data"], dtype=float)
    else:
        raise StructuralError("dense container needs 'data' or 'data_b64'")
    if flat.size != int(np.prod(shape)):
        raise StructuralError(f"payload of {flat.size} values does not fill shape {shape}")
    return flat.reshape(shape)


def array_to_dense_container(arr: np.ndarray, binary: bool = False) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    if binary:
        return {"shape": list(a.shape), "data_b64": base64.b64encode(a.tobytes()).decode("ascii")}
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def load_dense_container(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return dense_container_to_array(json.load(fh))
