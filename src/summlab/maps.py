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

The mixed power sum of the outer-product map is a closed form: the sum
over tuples factorises into a product of per-slot sums.  Dense bodies
enumerate all n^m argument tuples in chunks of the leading index, and
all terms go into one correctly rounded sum, so the result depends
neither on the chunking nor on the row order; near the edge of the
float range the norms are divided by the largest.  A linear map's
operator norm is a weak norm.
"""

from __future__ import annotations

import base64
import functools
import itertools
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
_CHUNK_ELEMS = 1 << 20
_DOM_LETTERS = "abcdef"
_TUP_LETTERS = "uvwxyz"
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
        if self.p <= 0:
            raise DomainError(f"witness exponent must be positive, got {self.p}")
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


@functools.lru_cache(maxsize=256)
def _einsum_path(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> list:
    """The contraction path ``np.einsum(..., optimize=True)`` plans for operands of these shapes.

    Planning costs about as much as a small contraction, so each
    subscripts-and-shapes pair is planned once.
    """
    return np.einsum_path(subscripts, *(np.broadcast_to(0.0, s) for s in shapes), optimize="greedy")[0]


def _contract(coefficients: np.ndarray, mats, letters: str, u: np.ndarray | None = None) -> np.ndarray:
    """einsum of a coefficient tensor with one (k_i, d_i) matrix per domain axis i.

    ``letters[i]`` names matrix i's row index: one shared letter gives a batch,
    distinct letters every tuple.  A ``None`` matrix leaves its axis free;
    ``u`` (batch x d_out) contracts the output axis.
    """
    dom = _DOM_LETTERS[: len(mats)]
    kept = [i for i, mat in enumerate(mats) if mat is not None]
    subs = [letters[i] + dom[i] for i in kept] + [dom + "o"]
    operands = [mats[i] for i in kept] + [coefficients]
    free = "".join(dom[i] for i in range(len(mats)) if mats[i] is None)
    if u is None:
        out = "".join(dict.fromkeys(letters[i] for i in kept)) + free + "o"
    else:
        subs.append(letters[0] + "o")
        operands.append(u)
        out = letters[0] + free
    subscripts = ",".join(subs) + "->" + out
    return np.einsum(subscripts, *operands, optimize=_einsum_path(subscripts, tuple(op.shape for op in operands)))


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
        return _contract(body.coefficients, [rows] * p.degree, "k" * p.degree)
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


def _powers(v: np.ndarray, p: float) -> list[float]:
    """v^p of a nonnegative array as a list, or [inf] once the largest power reaches 2^960.

    Below that, no power overflows and a sum of up to 2^63 of them stays finite.
    """
    top = float(v[v.argmax()])
    return [math.inf] if top > 1.0 and p * math.log2(top) >= 960.0 else (v**p).tolist()


def _root(total: float, p: float, factors: Callable[[], list[Iterable[np.ndarray]]]) -> float:
    """total^(1/p) of a power sum; a root beyond the float range raises StructuralError.

    The power sum is the product, over the factors in ``factors()``, of the
    sum of v^p over the entries v of the arrays a factor yields.  A total
    that is not finite or below ``_SMALL`` is summed again, each factor
    over its v / top with top its largest v, so that no term exceeds 1
    however large p is, and its root is scaled back by the tops.  A norm
    that is not finite, from a contraction that overflowed, makes the
    root not finite.
    """
    e, unit = 0, 1.0
    if not _SMALL <= total < math.inf:
        total = 1.0
        for blocks, again in zip(factors(), factors()):  # one pass for the top, one for the sum
            top = max(float(v[v.argmax()]) for v in blocks) or 1.0  # an all-zero factor sums to 0 either way
            total *= math.fsum(itertools.chain.from_iterable(((v / top) ** p).tolist() for v in again))
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
    all n^m terms go into one correctly rounded (Shewchuk) sum, so
    neither the chunking nor the row order changes a bit of the value.
    """
    if p <= 0:
        raise DomainError(f"power sum requires p > 0, got {p}")
    families = list(families)
    n = _check_families(t, families)
    m = t.arity
    # the first test keeps float(n) ** m finite: an n^m near the float range exceeds any budget
    if m * math.log2(n) > 1023 or float(n) ** m > tuple_budget:
        raise BudgetError(f"{n}^{m} tuples exceed the budget of {tuple_budget}")

    if isinstance(t.body, DiagonalC0):
        total = 1.0
        for fam in families:
            total *= math.fsum(_powers(np.abs(fam.matrix).max(axis=1), p))
        return _root(total, p, lambda: [[np.abs(fam.matrix).max(axis=1)] for fam in families])

    mats = [fam.matrix for fam in families]
    block_rows = max(1, _CHUNK_ELEMS // max(1, n ** (m - 1) * t.codomain.dimension))

    def chunk_norms():
        for lo in range(0, n, block_rows):
            if m == 1:  # one matmul
                block = mats[0][lo : lo + block_rows] @ t.body.coefficients
            else:
                block = _contract(t.body.coefficients, [mats[0][lo : lo + block_rows], *mats[1:]], _TUP_LETTERS[:m])
            yield coord_norm(t.codomain, block, axis=-1).ravel()

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing contraction leaves a root _root refuses
        total = math.fsum(itertools.chain.from_iterable(_powers(v, p) for v in chunk_norms()))
        return _root(total, p, lambda: [chunk_norms()])


def poly_power_sum(
    p_map: HomogeneousPolynomial,
    family: VectorFamily,
    p: float,
    *,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> float:
    """( sum_k ||P(x_k)||^p )^(1/p) over the n family members."""
    if p <= 0:
        raise DomainError(f"power sum requires p > 0, got {p}")
    if family.space != p_map.domain:
        raise StructuralError(f"family in {family.space} does not match domain {p_map.domain}")
    if family.n > tuple_budget:
        raise BudgetError(f"{family.n} terms exceed the budget of {tuple_budget}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing polynomial leaves a root _root refuses
        norms = np.atleast_1d(coord_norm(p_map.codomain, _poly_outputs(p_map, family.matrix), axis=-1))
        return _root(math.fsum(_powers(norms, p)), p, lambda: [[norms]])


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
        y = _contract(t.body.coefficients, np.hsplit(rows, cuts), "r" * m)
        return coord_norm(t.codomain, y, axis=1), y

    def propose(rows: np.ndarray, y: np.ndarray, step: np.ndarray) -> np.ndarray:
        xs = np.hsplit(rows, cuts)
        u = norming_rows(t.codomain, y)
        for i, s in enumerate(t.domain):
            c = _contract(t.body.coefficients, [None if j == i else xs[j] for j in range(m)], "r" * m, u)
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
            grad += _contract(body.coefficients, [None if i == slot else x for i in range(m)], "r" * m, u)
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
