"""Weak l_q norms of vector families.

For a family x_1, ..., x_n in a space E and q > 0, the weak norm is

    sup over phi in the unit ball of E* of ( sum_k |<phi, x_k>|^q )^(1/q),

equivalently the operator norm of the n x d coordinate matrix from the
dual E* = ``dual(E)`` into l_q^n.  Every result carries its certificate,
a unit vector of the dual space at which the sum is attained.  Every
path works on the family's sorted rows times a power of two that brings
the largest |entry| into [1, 2), and scales the value back at the end,
so no power of an entry under- or overflows at any scale: the weak
norm is 1-homogeneous and the certificate does not depend on scale.
Exact fast paths cover the cases where the sup
has a certified finite witness set (Hilbert domain at q = 2 via the top
singular value; cube dual balls via vertex enumeration; l_1 dual balls
via +/- basis extreme points; single-vector families).  On the cube at
q = 2 each vertex value is the quadratic form s^T G s of the Gram matrix
G of the sorted rows.  It splits into two half-width sign tables and one
cross-term gemm, so each of the 2^(d-1) vertices costs two additions.
Since max s^T G s >= trace G >= |G_ij|, rounding can cost the chosen
vertex about d^2 eps of relative value; the reported value is recomputed
from the sorted rows at that vertex.  Everything else
falls back to a multistart search from norming, spectral and seeded
Gaussian start directions.  For q >= 1 the objective is convex, and
each row climbs by Boyd's power iteration: the next row is the linear
argmax over the dual ball of the current (sub)gradient, so the value
never falls and a row that stops improving sits at a fixed point.
For q < 1, the only non-convex case, rows take normalised gradient
steps back onto the dual sphere.  The result is a certified lower bound
and is labeled exact=False.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError, DomainError, StructuralError
from .search import (
    DEFAULT_BUDGET,
    SearchBudget,
    canonical_rows,
    derive_seed,
    gradient_step,
    multistart_ascent,
    quasi_random_directions,
)
from .spaces import (
    Family,
    SpaceDescriptor,
    Vector,
    coord_norm,
    dual,
    norming_functional,
    norming_rows,
    unit_rows,
)

_VERTEX_MAX_DIM = 20
_VERTEX_CHUNK_BITS = 16  # the q != 2 vertex path scores 2^16 sign vertices per gemm


@dataclass(frozen=True, eq=False)
class VectorFamily:
    """An ordered list of n vectors in one space, stored as an (n, d) matrix."""

    space: SpaceDescriptor
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1:
            raise StructuralError(f"family matrix must be (n, d) with n >= 1, got shape {m.shape}")
        if m.shape[1] != self.space.dimension:
            raise StructuralError(
                f"family vectors have {m.shape[1]} coordinates but the space has dimension {self.space.dimension}"
            )
        if not np.isfinite(m).all():
            raise StructuralError("family entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_vectors(cls, vectors) -> "VectorFamily":
        vectors = list(vectors)
        if not vectors:
            raise StructuralError("family must be nonempty")
        space = vectors[0].space
        for v in vectors:
            if v.space != space:
                raise StructuralError("all family vectors must share one space")
        return cls(space, np.vstack([v.coords for v in vectors]))

    @classmethod
    def basis(cls, space: SpaceDescriptor, n: int) -> "VectorFamily":
        """The first n canonical basis vectors, cycling when n exceeds dim."""
        if n < 1:
            raise StructuralError("family length must be >= 1")
        rows = np.zeros((n, space.dimension))
        for k in range(n):
            rows[k, k % space.dimension] = 1.0
        return cls(space, rows)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def norms(self) -> np.ndarray:
        """Norms of the member vectors."""
        return np.atleast_1d(coord_norm(self.space, self.matrix, axis=1))

    def scaled(self, lam: float) -> "VectorFamily":
        return VectorFamily(self.space, lam * self.matrix)

    def permuted(self, order) -> "VectorFamily":
        return VectorFamily(self.space, self.matrix[np.asarray(order, dtype=int)])


@dataclass(frozen=True, eq=False)
class WeakNormResult:
    """Weak-norm value with its certificate, a unit vector of the dual space.

    exact=True only on closed-form paths; search results are lower
    bounds and must be treated as such downstream.
    """

    value: float
    certificate: Vector
    exact: bool


def _rescaled(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """(matrix * 2^-e, e) with the largest |entry| brought into [1, 2); e = 0 for a zero matrix."""
    a = np.abs(matrix)
    amax = float(a.flat[a.argmax()])
    e = math.frexp(amax)[1] - 1 if amax > 0.0 else 0
    return (np.ldexp(matrix, -e) if e else matrix), e


def _q_sum(x: np.ndarray, q: float, phi: np.ndarray) -> float:
    return float((np.abs(x @ phi) ** q).sum() ** (1.0 / q))


def family_q_sum(family: VectorFamily, q: float, phi: np.ndarray) -> float:
    """( sum_k |<phi, x_k>|^q )^(1/q) for raw functional coordinates phi."""
    x, e = _rescaled(family.matrix)
    return math.ldexp(_q_sum(x, q, np.asarray(phi, dtype=float)), e)


def _finish(
    space: SpaceDescriptor, x: np.ndarray, e: int, q: float, value: float, phi: np.ndarray, exact: bool
) -> WeakNormResult:
    """The result for the family with rows x * 2^e, from its value and certificate on the rows x."""
    cert = Vector(dual(space), phi)
    if cert.norm() > 1.0 + 1e-9:
        raise StructuralError("weak-norm certificate escaped the dual unit ball")
    if not math.isfinite(value):
        raise StructuralError(f"weak norm is not finite ({value})")
    if abs(_q_sum(x, q, phi) - value) > 1e-9 * max(1.0, value):
        raise StructuralError("weak-norm certificate does not reproduce the reported value")
    try:
        return WeakNormResult(math.ldexp(value, e), cert, exact)
    except OverflowError:
        raise StructuralError("weak norm exceeds the largest double") from None


def _svd_path(x: np.ndarray) -> tuple[float, np.ndarray]:
    _, svals, vh = np.linalg.svd(x, full_matrices=False)
    phi = vh[0]
    if phi[int(np.argmax(np.abs(phi)))] < 0:
        phi = -phi
    return float(svals[0]), phi


@functools.lru_cache(maxsize=None)
def _vertex_table(d: int) -> np.ndarray:
    """Read-only (2^(d-1), d) table of the cube's sign vertices with s_0 = +1.

    Row i is vertex number i: column j + 1 is +1 exactly when bit j of i
    is set.
    """
    bits = (np.arange(1 << (d - 1))[:, None] >> np.arange(d - 1)[None, :]) & 1
    table = np.hstack((np.ones((bits.shape[0], 1)), 2.0 * bits - 1.0))
    table.setflags(write=False)
    return table


def _vertex_path(xc: np.ndarray, q: float) -> tuple[float, np.ndarray]:
    # The objective is convex in phi for q >= 1 and the dual ball of l_1
    # is the cube, so the sup sits at a sign vertex; the objective is
    # even in phi, so the first coordinate can be pinned to +1.  Ties go
    # to the lowest vertex number.
    if q == 2.0:
        sign = _gram_vertex(xc)
        return _q_sum(xc, q, sign), sign
    d = xc.shape[1]
    w = min(d, _VERTEX_CHUNK_BITS + 1)
    low = _vertex_table(w)
    best = -np.inf
    best_sign = None
    for hi in range(1 << (d - w)):
        # Vertices hi * 2^(w-1) onwards: the low table, then hi's bits as constant columns.
        signs = low
        if w < d:
            signs = np.empty((low.shape[0], d))
            signs[:, :w] = low
            signs[:, w:] = 2.0 * ((hi >> np.arange(d - w)) & 1) - 1.0
        vals = (np.abs(signs @ xc.T) ** q).sum(axis=1)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            best_sign = signs[j].copy()
    return best ** (1.0 / q), best_sign


def _gram_vertex(xc: np.ndarray) -> np.ndarray:
    """First sign vertex s (s_0 = +1) maximising s^T G s, G = xc^T xc.

    Split s = (l, h) with l = s[:b] (holding s_0) and h = s[b:].  Then
    s^T G s = l^T G_ll l + h^T G_hh h + 2 h^T G_hl l, so every vertex
    value is an entry of one 2^(d-b) x 2^(b-1) table (h by row, l by
    column), whose row-major order is vertex order.
    """
    d = xc.shape[1]
    b = (d + 1) // 2
    g = xc.T @ xc
    low = _vertex_table(b)
    high = _vertex_table(d - b + 1)[:, 1:]
    table = (high @ (2.0 * g[b:, :b])) @ low.T
    table += ((high @ g[b:, b:]) * high).sum(axis=1)[:, None]
    table += ((low @ g[:b, :b]) * low).sum(axis=1)
    ih, il = divmod(int(np.argmax(table)), table.shape[1])
    return np.concatenate((low[il], high[ih]))


def _column_path(xc: np.ndarray, q: float) -> tuple[float, np.ndarray]:
    # Dual ball of a sup slice is the l_1 ball whose extreme points are
    # +/- e_i; for q >= 1 the convex objective peaks at one of them.
    colvals = (np.abs(xc) ** q).sum(axis=0)
    i0 = int(np.argmax(colvals))
    phi = np.zeros(xc.shape[1])
    phi[i0] = 1.0
    return float(colvals[i0] ** (1.0 / q)), phi


def _single_vector_path(space: SpaceDescriptor, x: np.ndarray) -> tuple[float, np.ndarray]:
    v = Vector(space, x[0])
    return v.norm(), norming_functional(space, v).coords


def _norming_map(space: SpaceDescriptor) -> Callable[[np.ndarray], np.ndarray]:
    """``norming_rows(space, ·)``, specialised once per search.

    Row g goes to the unit vector phi of dual(space) that maximises
    <phi, g>: g / ||g||_2 on l_2, sign(g) on l_1, and
    sign(g) |g|^(p-1) / ||g||_p^(p-1) on l_p.  A batch with a zero row
    (whose image is e_1) goes to ``norming_rows`` itself.  Row sums are
    products with a ones vector: a reduction along short rows costs more
    than the matrix-vector product.
    """
    if space.is_sup:
        return functools.partial(norming_rows, space)
    p = space.exponent
    ones = np.ones(space.dimension)
    if p == 1.0:

        def step(g: np.ndarray) -> np.ndarray:
            s = np.sign(g)
            return s if s.any(axis=1).all() else norming_rows(space, g)

    elif p == 2.0:

        def step(g: np.ndarray) -> np.ndarray:
            nrm = np.sqrt(np.square(g) @ ones)
            return g / nrm[:, None] if nrm.all() else norming_rows(space, g)

    else:

        def step(g: np.ndarray) -> np.ndarray:
            a = np.abs(g)
            a1 = a ** (p - 1.0)
            total = (a1 * a) @ ones
            if not total.all():
                return norming_rows(space, g)
            return np.copysign(a1 / (total ** ((p - 1.0) / p))[:, None], g)

    return step


def _search(
    space: SpaceDescriptor, xc: np.ndarray, x: np.ndarray, q: float, budget: SearchBudget
) -> tuple[float, np.ndarray]:
    """Multistart ascent for the weak norm of the canonical rows xc, run on their rescaled copy x.

    The seed comes from xc, so it does not change with the rescaling.
    """
    ball = dual(space)
    norming = _norming_map(space)
    seed = derive_seed(budget.seed, "weak_norm", repr(space), float(q), xc)

    members = norming(x[x.any(axis=1)])
    _, _, vh = np.linalg.svd(x, full_matrices=False)
    fill = max(0, budget.restarts - members.shape[0] - 1)
    others = unit_rows(ball, np.vstack((vh[:1], quasi_random_directions(fill, space.dimension, seed))))

    # With y = <phi, x_k>, a row's data are the weights w = sign(y) |y|^(q-1),
    # so its gradient is w @ x up to a factor, and its value is
    # (sum |y|^(q-1) |y|)^(1/q).  A zero pairing gets weight 0: the
    # subgradient sign(0) = 0 at q = 1, the a.e. gradient for q < 1.
    if q > 1.0:
        power = lambda a: a ** (q - 1.0)  # noqa: E731
    else:
        power = lambda a: np.power(a, q - 1.0, out=np.zeros_like(a), where=a > 0.0)  # noqa: E731

    ones = np.ones(x.shape[0])

    def objective(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = phis @ x.T
        a = np.abs(y)
        w = power(a)
        return ((w * a) @ ones) ** (1.0 / q), np.copysign(w, y)

    if q >= 1.0:

        def propose(phis: np.ndarray, w: np.ndarray, step: np.ndarray) -> np.ndarray:
            return norming(w @ x)  # Boyd's step: the linear argmax of the (sub)gradient

    else:

        def propose(phis: np.ndarray, w: np.ndarray, step: np.ndarray) -> np.ndarray:
            return gradient_step(ball, phis, w @ x, step)

    return multistart_ascent(np.vstack((members, others)), objective, propose, budget)


def weak_norm_search(family: VectorFamily, q: float, budget: SearchBudget = DEFAULT_BUDGET) -> WeakNormResult:
    """Multistart ascent over the dual unit ball (lower bound).

    Restarts seed from the norming functionals of every family member
    (which guarantees the result is at least max_k ||x_k||), one
    spectral start, and seeded Gaussian directions (the seed is derived
    from the canonical rows, so it is permutation-invariant).  Each
    restart climbs in :func:`~summlab.search.multistart_ascent`.  For
    q >= 1 a step is Boyd's power iteration: the row moves to
    ``norming_rows(space, g)``, the linear argmax of the (sub)gradient g
    over the dual ball, which never lowers the convex objective.  For
    q < 1 a step is a normalised gradient step projected back onto the
    dual sphere.  The search runs on the canonical rows, so a permuted
    family gets the bit-identical result.
    """
    if q <= 0.0:
        raise DomainError(f"weak norm requires q > 0, got {q}")
    xc = canonical_rows(family.matrix)
    x, e = _rescaled(xc)
    return _finish(family.space, x, e, q, *_search(family.space, xc, x, q, budget), exact=False)


def weak_norm(family: VectorFamily, q: float, budget: SearchBudget = DEFAULT_BUDGET) -> WeakNormResult:
    """Weak l_q norm of a family: exact on fast paths, else a search lower bound."""
    if q <= 0.0:
        raise DomainError(f"weak norm requires q > 0, got {q}")
    space = family.space
    xc = canonical_rows(family.matrix)
    x, e = _rescaled(xc)
    if not x.any():
        value, phi = 0.0, np.eye(1, space.dimension)[0]
    elif space.family is Family.SEQUENCE_LP and space.exponent == 2.0 and q == 2.0:
        value, phi = _svd_path(x)
    elif (
        space.family is Family.SEQUENCE_LP
        and space.exponent == 1.0
        and q >= 1.0
        and space.dimension <= _VERTEX_MAX_DIM
    ):
        value, phi = _vertex_path(x, q)
    elif family.n == 1:
        value, phi = _single_vector_path(space, x)
    elif space.is_sup and q >= 1.0:
        value, phi = _column_path(x, q)
    else:
        return _finish(space, x, e, q, *_search(space, xc, x, q, budget), exact=False)
    return _finish(space, x, e, q, value, phi, exact=True)


def weak_norm_vertex_oracle(family: VectorFamily, q: float) -> float:
    """Exhaustive max over all 2^d sign vectors; test oracle for l_1 families."""
    space = family.space
    if space.family is not Family.SEQUENCE_LP or space.exponent != 1.0:
        raise StructuralError("vertex oracle only applies to l_1 families")
    d = space.dimension
    if d > _VERTEX_MAX_DIM:
        raise BudgetError(f"vertex oracle enumerates 2^d vertices; d = {d} exceeds {_VERTEX_MAX_DIM}")
    if q <= 0.0:
        raise DomainError(f"weak norm requires q > 0, got {q}")
    x = family.matrix
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=d):
        val = float((np.abs(x @ np.asarray(signs)) ** q).sum())
        if val > best:
            best = val
    return best ** (1.0 / q)
