"""Weak l_q norms of vector families.

For a family x_1, ..., x_n in a space E and finite q > 0, the weak norm is

    sup over phi in the unit ball of E* of ( sum_k |<phi, x_k>|^q )^(1/q),

equivalently the operator norm of the n x d coordinate matrix from the
dual E* = ``dual(E)`` into l_q^n.  Every result carries its certificate,
a unit vector of the dual space, and its value is the q-sum that the
certificate attains, computed in ``_finish`` on every path, searched or
exact, so ``family_q_sum`` at the certificate reproduces it bit for bit.
Every path works on the family's sorted rows times a power of two that
brings the largest |entry| into [1, 2), and scales the value back at
the end, so no power of an entry under- or overflows at any scale: the
weak norm is 1-homogeneous and the certificate does not depend on scale.
A large q still overflows the power of a pairing above 1, and the weak
norm is then refused as not finite: at q = 1e20 any such pairing, at
q = 1000 the pairing 3 of three copies of (1, 1, 1) in l_1^3.
Exact fast paths cover the cases where the sup
has a certified finite witness set (Hilbert domain at q = 2 via the top
right singular vector, as ``_svd_path`` describes; cube dual balls
via vertex enumeration; l_1 dual balls via +/- basis extreme points;
single-vector families via the vector's norming functional).  On the cube at
q = 2 each vertex value is the quadratic form s^T G s of the Gram matrix
G of the sorted rows.  It splits into two half-width sign tables and one
cross-term gemm, so each of the 2^(d-1) vertices costs two additions.
Since max s^T G s >= trace G >= |G_ij|, rounding can cost the chosen
vertex about d^2 eps of relative value.  At q != 2 a vertex splits into
its first min(d, 11) signs and the rest: one gemm scores the low sign
patterns against the rows and one the high patterns, and each high row
is added to the low scores in one reused buffer of 2^10 x n doubles
that stays in cache.  Powers there are products and square roots at
q in {1, 1.5, 3, 4} and ``np.power`` otherwise.  On the Hilbert path
the value is the top singular value to rounding and never above it.
Everything else falls back to a multistart search from norming,
spectral (``_svd_path``'s direction) and seeded Gaussian start
directions.  For q >= 1 the objective is convex, and
each row climbs by Boyd's power iteration: the next row is the linear
argmax over the dual ball of the current (sub)gradient, so the value
never falls and a row that stops improving sits at a fixed point.
For q < 1, the only non-convex case, rows take normalised gradient
steps back onto the dual sphere.  The result, the q-sum at the best
row, is a certified lower bound and is labeled exact=False.
"""

from __future__ import annotations

import functools
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
    SpaceDescriptor,
    Vector,
    coord_norm,
    dual,
    frozen_array,
    norming_rows,
    unit_rows,
)

_VERTEX_MAX_DIM = 20
_VERTEX_BLOCK_BITS = 11  # the q != 2 vertex path scores 2^10 low sign patterns per block
_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class VectorFamily:
    """An ordered list of n vectors in one space, stored as an (n, d) matrix."""

    space: SpaceDescriptor
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = frozen_array(self.matrix, "family entries")
        if m.ndim != 2 or m.shape[0] < 1:
            raise StructuralError(f"family matrix must be (n, d) with n >= 1, got shape {m.shape}")
        if m.shape[1] != self.space.dimension:
            raise StructuralError(
                f"family vectors have {m.shape[1]} coordinates but the space has dimension {self.space.dimension}"
            )
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
    return math.pow(np.add.reduce(np.abs(x @ phi) ** q), 1.0 / q)


def _prepared(family: VectorFamily, q: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(xc, x, e): the family's canonical rows xc and their rescaled copy x = xc * 2^-e, for a finite q > 0."""
    if not 0.0 < q < math.inf:  # written so that NaN fails it
        raise DomainError(f"weak norm requires 0 < q < inf, got {q}")
    xc = canonical_rows(family.matrix)
    return (xc, *_rescaled(xc))


def family_q_sum(family: VectorFamily, q: float, phi: np.ndarray) -> float:
    """( sum_k |<phi, x_k>|^q )^(1/q) for raw functional coordinates phi.

    It is summed over the sorted, rescaled rows, as ``weak_norm`` sums
    it, so at a result's certificate it reproduces the result's value
    bit for bit, searched or exact.
    """
    _, x, e = _prepared(family, q)
    return math.ldexp(_q_sum(x, q, np.asarray(phi, dtype=float)), e)


def _finish(
    space: SpaceDescriptor, x: np.ndarray, e: int, q: float, phi: np.ndarray, exact: bool, unit: bool = False
) -> WeakNormResult:
    """The result for the family with rows x * 2^e at the certificate phi on the rows x: its q-sum there.

    ``unit`` marks a certificate of dual norm 1 by construction, a sign
    vector or a basis vector, whose norm is not taken again.
    """
    cert = Vector(dual(space), phi)
    if not unit and cert.norm() > 1.0 + 1e-9:
        raise StructuralError("weak-norm certificate escaped the dual unit ball")
    try:
        value = _q_sum(x, q, phi)
        if not math.isfinite(value):
            raise StructuralError(f"weak norm is not finite ({value})")
        return WeakNormResult(math.ldexp(value, e), cert, exact)
    except OverflowError:
        raise StructuralError("weak norm exceeds the largest double") from None


def _top_eigenvector(g: np.ndarray) -> np.ndarray:
    """A unit top eigenvector of the k x k Gram matrix g, as ``_svd_path`` describes; g is shifted in place."""
    k = g.shape[0]
    lam = float(np.linalg.eigvalsh(g)[-1])
    start = g[:, k - 1 - int(np.argmax(g.diagonal()[::-1]))].copy()
    sigma = lam * (1.0 + 4.0 * k * _EPS)
    g.flat[:: k + 1] -= sigma  # the shift does not move eigenvectors, so the fallback takes g as it is
    try:
        u = np.linalg.solve(g, start)
    except np.linalg.LinAlgError:  # sigma is an exact eigenvalue of the rounded g
        return np.linalg.eigh(g)[1][:, -1]
    u /= math.sqrt(u @ u)
    # u^T g u = sigma + u^T (g - sigma I) u, whose second term is small
    if sigma + u @ (g @ u) >= lam * (1.0 - 4.0 * k * _EPS):
        return u
    return np.linalg.eigh(g)[1][:, -1]


def _svd_path(x: np.ndarray) -> np.ndarray:
    """Top right singular vector of x, from the top eigenvector of the smaller Gram matrix G (k x k).

    lam = ``eigvalsh(G)[-1]`` is the top eigenvalue to rounding, and
    lam >= 1 because the rows are rescaled so that their largest |entry|
    is at least 1.  One solve of (G - sigma I) u = G[:, j], with sigma =
    lam (1 + 4 k eps) just above lam, multiplies the start's component
    in the top eigenspace by 1 / (sigma - lam) and one along an
    eigenvalue mu by 1 / (sigma - mu), so the first outgrows the second
    by about (lam - mu) / (4 k eps lam), and u is a top eigenvector to
    rounding unless mu lies within a few k eps of lam.  The start column
    j is the last with the largest diagonal entry: of tied top
    directions a basis family gets its last most repeated basis vector.
    u is kept if its Rayleigh quotient u^T G u reaches
    lam (1 - 4 k eps).  A start with no component in the top
    eigenspace, such as a block-diagonal G whose largest diagonal entry
    lies in a lower block, fails that check, and one ``eigh`` gives the
    eigenvector instead.
    Either way the value the caller reports, the q-sum at the unit
    certificate, is the top singular value to rounding: within about
    2 k eps below it, and never above it by more than rounding.  The sign
    makes the largest |entry| positive.
    """
    n, d = x.shape
    if n >= d:
        phi = _top_eigenvector(x.T @ x)
    else:  # phi = x^T u / ||x^T u|| for the top eigenvector u of x x^T
        phi = x.T @ _top_eigenvector(x @ x.T)
        phi /= math.sqrt(phi @ phi)
    return -phi if phi[int(np.argmax(np.abs(phi)))] < 0 else phi


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


def _powered(a: np.ndarray, q: float, tmp: np.ndarray | None = None) -> np.ndarray:
    """a ** q in place for a >= 0, by products and sqrt at q in {1, 1.5, 3, 4}; tmp is optional scratch of a's shape."""
    if q == 1.5:
        a *= np.sqrt(a, out=tmp)
    elif q == 3.0:
        a *= np.multiply(a, a, out=tmp)
    elif q == 4.0:
        np.square(a, out=a)
        np.square(a, out=a)
    elif q != 1.0:
        np.power(a, q, out=a)
    return a


def _vertex_path(xc: np.ndarray, q: float) -> np.ndarray:
    # The objective is convex in phi for q >= 1 and the dual ball of l_1
    # is the cube, so the sup sits at a sign vertex; the objective is
    # even in phi, so the first coordinate can be pinned to +1.  Ties go
    # to the lowest vertex number.
    if q == 2.0:
        return _gram_vertex(xc)
    # A vertex splits as s = (l, h), l = s[:b] holding s_0, so <s, x_k> is
    # low_l . x_k[:b] + high_h . x_k[b:].  Each high row h adds its part to
    # the low parts in one reused cache-sized buffer; h outside and l inside
    # is vertex order, so the first strict maximum is the lowest vertex.
    d = xc.shape[1]
    b = min(d, _VERTEX_BLOCK_BITS)
    low = _vertex_table(b)
    lowpart = low @ xc[:, :b].T
    ones = np.ones(xc.shape[0])
    if b == d:
        return low[int(np.argmax(_powered(np.abs(lowpart, out=lowpart), q) @ ones))]
    buf, tmp = np.empty_like(lowpart), np.empty_like(lowpart)
    high = _vertex_table(d - b + 1)[:, 1:]
    best, ih, il = -np.inf, 0, 0
    for h, highpart in enumerate(high @ xc[:, b:].T):
        np.add(lowpart, highpart, out=buf)
        vals = _powered(np.abs(buf, out=buf), q, tmp) @ ones
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, ih, il = vals[j], h, j
    return np.concatenate((low[il], high[ih]))


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


def _column_path(xc: np.ndarray, q: float) -> np.ndarray:
    # Dual ball of a sup slice is the l_1 ball whose extreme points are
    # +/- e_i; for q >= 1 the convex objective peaks at one of them.
    colvals = np.ones(xc.shape[0]) @ _powered(np.abs(xc), q)
    phi = np.zeros(xc.shape[1])
    phi[int(np.argmax(colvals))] = 1.0
    return phi


def _norming_map(space: SpaceDescriptor) -> Callable[[np.ndarray], np.ndarray]:
    """``norming_rows(space, ·)``, specialised once per search.

    Row g goes to the unit vector phi of dual(space) that maximises
    <phi, g>: g / ||g||_2 on l_2 and sign(g) |g|^(p-1) / ||g||_p^(p-1)
    on l_p, 1 < p < inf.  A batch with a zero row (whose image is e_1)
    goes to ``norming_rows`` itself.  Row sums are products with a ones
    vector: a reduction along short rows costs more than the
    matrix-vector product.  On l_1 and sup slices, ``norming_rows`` is
    the step.
    """
    p = space.exponent
    if p == 1.0 or space.is_sup:
        return functools.partial(norming_rows, space)
    ones = np.ones(space.dimension)
    if p == 2.0:

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
    space: SpaceDescriptor, xc: np.ndarray, x: np.ndarray, e: int, q: float, budget: SearchBudget
) -> WeakNormResult:
    """Multistart ascent for the weak norm of the canonical rows xc = x * 2^e, run on their rescaled copy x.

    The seed comes from xc, so it does not change with the rescaling.
    """
    ball = dual(space)
    norming = _norming_map(space)
    seed = derive_seed(budget.seed, "weak_norm", repr(space), float(q), xc)

    members = norming(x[x.any(axis=1)])
    # the Hilbert path's direction; an all-zero family, whose every value is 0, starts at e_1
    spectral = _svd_path(x) if members.size else np.eye(1, space.dimension)[0]
    fill = max(0, budget.restarts - members.shape[0] - 1)
    others = unit_rows(ball, np.vstack((spectral, quasi_random_directions(fill, space.dimension, seed))))

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

    starts = np.vstack((members, others))
    with np.errstate(over="ignore", invalid="ignore"):  # a value beyond the float range is inf or nan; _finish refuses it
        _, phi = multistart_ascent(starts, objective, propose, budget)
        return _finish(space, x, e, q, phi, exact=False)


def weak_norm_search(family: VectorFamily, q: float, budget: SearchBudget = DEFAULT_BUDGET) -> WeakNormResult:
    """Multistart ascent over the dual unit ball (lower bound).

    Restarts seed from the norming functionals of every family member
    (which guarantees the result is at least max_k ||x_k||), one
    spectral start (the Hilbert path's ``_svd_path`` direction), and
    seeded Gaussian directions (the seed is derived
    from the canonical rows, so it is permutation-invariant).  Each
    restart climbs in :func:`~summlab.search.multistart_ascent`.  For
    q >= 1 a step is Boyd's power iteration: the row moves to
    ``norming_rows(space, g)``, the linear argmax of the (sub)gradient g
    over the dual ball, which never lowers the convex objective.  For
    q < 1 a step is a normalised gradient step projected back onto the
    dual sphere.  The search runs on the canonical rows, so a permuted
    family gets the bit-identical result, and its value is the q-sum at
    the best row, as on every exact path.
    """
    return _search(family.space, *_prepared(family, q), q, budget)


def weak_norm(family: VectorFamily, q: float, budget: SearchBudget = DEFAULT_BUDGET) -> WeakNormResult:
    """Weak l_q norm of a family: exact on fast paths, else a search lower bound."""
    space = family.space
    xc, x, e = _prepared(family, q)
    # unit: phi is a basis or sign vector
    if not x.any():
        phi, unit = np.eye(1, space.dimension)[0], True
    elif space.exponent == 2.0 and q == 2.0:
        phi, unit = _svd_path(x), False
    elif space.exponent == 1.0 and q >= 1.0 and space.dimension <= _VERTEX_MAX_DIM:
        phi, unit = _vertex_path(x, q), True
    elif family.n == 1:  # the one vector's norming functional
        phi, unit = norming_rows(space, x)[0], False
    elif space.is_sup and q >= 1.0:
        phi, unit = _column_path(x, q), True
    else:
        return _search(space, xc, x, e, q, budget)
    return _finish(space, x, e, q, phi, exact=True, unit=unit)


def weak_norm_vertex_oracle(family: VectorFamily, q: float) -> float:
    """Exhaustive max over all 2^d sign vectors; test oracle for l_1 families.

    Sign vector i has s_j = -1 exactly when bit j of i is set; they are
    scored 2^16 at a time with plain powers, on the rescaled family.
    """
    space = family.space
    if space.exponent != 1.0:
        raise StructuralError("vertex oracle only applies to l_1 families")
    d = space.dimension
    if d > _VERTEX_MAX_DIM:
        raise BudgetError(f"vertex oracle enumerates 2^d vertices; d = {d} exceeds {_VERTEX_MAX_DIM}")
    if not 0.0 < q < math.inf:  # written so that NaN fails it
        raise DomainError(f"weak norm requires 0 < q < inf, got {q}")
    x, e = _rescaled(family.matrix)
    best = 0.0
    for start in range(0, 1 << d, 1 << 16):
        index = np.arange(start, min(start + (1 << 16), 1 << d))
        signs = 1.0 - 2.0 * ((index[:, None] >> np.arange(d)) & 1)
        best = max(best, float((np.abs(signs @ x.T) ** q).sum(axis=1).max()))
    return math.ldexp(best ** (1.0 / q), e)
