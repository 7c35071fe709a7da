"""Weak l_q norms of vector families.

For a family x_1, ..., x_n in a space E and q > 0, the weak norm is

    sup over phi in the dual unit ball of ( sum_k |phi(x_k)|^q )^(1/q),

equivalently the operator norm of the n x d coordinate matrix from the
dual of E into l_q^n.  Exact fast paths cover the cases where the sup
has a certified finite witness set (Hilbert domain at q = 2 via the top
singular value; cube dual balls via vertex enumeration; l_1 dual balls
via +/- basis extreme points; single-vector families).  Everything else
falls back to multistart projected gradient ascent from norming,
spectral and seeded Gaussian start directions, whose result is a
certified lower bound and is labeled exact=False.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    Functional,
    SpaceDescriptor,
    Vector,
    coord_norm,
    dual_exponent_of,
    lp,
    norming_functional,
    norming_rows,
    unit_rows,
)

_VERTEX_MAX_DIM = 20
_VERTEX_CHUNK = 1 << 16


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
        if not np.all(np.isfinite(m)):
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
    """Weak-norm value with the maximizing functional found.

    exact=True only on closed-form paths; search results are lower
    bounds and must be treated as such downstream.
    """

    value: float
    certificate: Functional
    exact: bool


def family_q_sum(family: VectorFamily, q: float, phi: np.ndarray) -> float:
    """( sum_k |<phi, x_k>|^q )^(1/q) for raw functional coordinates phi."""
    y = np.abs(family.matrix @ np.asarray(phi, dtype=float))
    return float((y**q).sum() ** (1.0 / q))


def _finish(family: VectorFamily, q: float, value: float, phi: np.ndarray, exact: bool) -> WeakNormResult:
    cert = Functional(family.space, phi)
    if cert.dual_norm() > 1.0 + 1e-9:
        raise StructuralError("weak-norm certificate escaped the dual unit ball")
    check = family_q_sum(family, q, phi)
    if abs(check - value) > 1e-9 * max(1.0, abs(value)):
        raise StructuralError("weak-norm certificate does not reproduce the reported value")
    return WeakNormResult(float(value), cert, exact)


def _unit_dual_certificate(space: SpaceDescriptor) -> np.ndarray:
    phi = np.zeros(space.dimension)
    phi[0] = 1.0
    return phi


def _svd_path(family: VectorFamily, q: float) -> WeakNormResult:
    xc = canonical_rows(family.matrix)
    _, svals, vh = np.linalg.svd(xc, full_matrices=False)
    phi = vh[0]
    if phi[int(np.argmax(np.abs(phi)))] < 0:
        phi = -phi
    return _finish(family, q, float(svals[0]), phi, exact=True)


def _vertex_path(family: VectorFamily, q: float) -> WeakNormResult:
    # The objective is convex in phi for q >= 1 and the dual ball of l_1
    # is the cube, so the sup sits at a sign vertex; the objective is
    # even in phi, so the first coordinate can be pinned to +1.
    xc = canonical_rows(family.matrix)
    d = xc.shape[1]
    nverts = 1 << (d - 1)
    best = -np.inf
    best_sign = None
    shifts = np.arange(d - 1, dtype=np.uint64)
    for lo in range(0, nverts, _VERTEX_CHUNK):
        idx = np.arange(lo, min(lo + _VERTEX_CHUNK, nverts), dtype=np.uint64)
        signs = np.empty((idx.shape[0], d))
        signs[:, 0] = 1.0
        if d > 1:
            bits = (idx[:, None] >> shifts[None, :]) & np.uint64(1)
            signs[:, 1:] = 2.0 * bits.astype(float) - 1.0
        vals = (np.abs(signs @ xc.T) ** q).sum(axis=1)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            best_sign = signs[j].copy()
    return _finish(family, q, best ** (1.0 / q), best_sign, exact=True)


def _column_path(family: VectorFamily, q: float) -> WeakNormResult:
    # Dual ball of a sup slice is the l_1 ball whose extreme points are
    # +/- e_i; for q >= 1 the convex objective peaks at one of them.
    xc = canonical_rows(family.matrix)
    colvals = (np.abs(xc) ** q).sum(axis=0)
    i0 = int(np.argmax(colvals))
    phi = np.zeros(family.space.dimension)
    phi[i0] = 1.0
    return _finish(family, q, float(colvals[i0] ** (1.0 / q)), phi, exact=True)


def _single_vector_path(family: VectorFamily, q: float) -> WeakNormResult:
    v = Vector(family.space, family.matrix[0])
    phi = norming_functional(family.space, v)
    return _finish(family, q, v.norm(), phi.coords, exact=True)


def weak_norm_search(family: VectorFamily, q: float, budget: SearchBudget = DEFAULT_BUDGET) -> WeakNormResult:
    """Multistart projected ascent over the dual unit ball (lower bound).

    Restarts seed from the norming functionals of every family member
    (which guarantees the result is at least max_k ||x_k||), one
    spectral start, and seeded Gaussian directions (the seed is derived
    from the canonical rows, so it is permutation-invariant); each
    restart then climbs by normalised (sub)gradient steps in
    :func:`~summlab.search.multistart_ascent`.
    """
    if q <= 0.0:
        raise DomainError(f"weak norm requires q > 0, got {q}")
    space = family.space
    dual = lp(dual_exponent_of(space), space.dimension)
    x = family.matrix
    seed = derive_seed(budget.seed, "weak_norm", repr(space), float(q), canonical_rows(x))

    starts = [norming_rows(space, x[np.any(x, axis=1)])]
    _, _, vh = np.linalg.svd(canonical_rows(x), full_matrices=False)
    starts.append(vh[:1])
    fill = max(0, budget.restarts - starts[0].shape[0] - 1)
    if fill:
        starts.append(quasi_random_directions(fill, space.dimension, seed))

    def objective(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = phis @ x.T
        return (np.abs(y) ** q).sum(axis=1) ** (1.0 / q), y

    def propose(phis: np.ndarray, y: np.ndarray, step: np.ndarray) -> np.ndarray:
        # Gradient of the smooth objective for q > 1, subgradient for q = 1,
        # almost-everywhere gradient for q < 1 (zero pairings contribute 0).
        a = np.abs(y)
        with np.errstate(divide="ignore"):
            w = np.where(a > 0.0, a ** (q - 1.0), 0.0) * np.sign(y)
        return gradient_step(dual, phis, w @ x, step)

    value, phi = multistart_ascent(unit_rows(dual, np.vstack(starts)), objective, propose, budget)
    return _finish(family, q, value, phi, exact=False)


def weak_norm(family: VectorFamily, q: float, budget: SearchBudget = DEFAULT_BUDGET) -> WeakNormResult:
    """Weak l_q norm of a family: exact on fast paths, else a search lower bound."""
    if q <= 0.0:
        raise DomainError(f"weak norm requires q > 0, got {q}")
    space = family.space
    if not np.any(family.matrix):
        return _finish(family, q, 0.0, _unit_dual_certificate(space), exact=True)
    if space.family is Family.SEQUENCE_LP and space.exponent == 2.0 and q == 2.0:
        return _svd_path(family, q)
    if (
        space.family is Family.SEQUENCE_LP
        and space.exponent == 1.0
        and q >= 1.0
        and space.dimension <= _VERTEX_MAX_DIM
    ):
        return _vertex_path(family, q)
    if family.n == 1:
        return _single_vector_path(family, q)
    if space.is_sup and q >= 1.0:
        return _column_path(family, q)
    return weak_norm_search(family, q, budget)


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
