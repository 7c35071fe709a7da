"""Finite-dimensional normed sequence spaces.

A space is either a sequence space l_p^d (1 <= p <= inf) or a "sup
slice": a finite section of the sup-norm sequence spaces, i.e. l_inf^d
under a separate family tag.  Sup slices are how this package models
finite sections of c_0 and C(K): every construction here only ever
populates finitely many coordinates, so nothing is lost at desk scale.

Cotype is tabulated metadata, never computed: max(2, p) for l_p with
p < inf, and inf for sup slices and p = inf.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DomainError, StructuralError

INF = math.inf


class Family(enum.Enum):
    """Norm family of a space."""

    SEQUENCE_LP = "lp"
    SUP_SLICE = "sup"


def _tabulated_cotype(family: Family, exponent: float) -> float:
    if family is Family.SUP_SLICE or exponent == INF:
        return INF
    return max(2.0, float(exponent))


@dataclass(frozen=True)
class SpaceDescriptor:
    """A finite-dimensional normed space (family, exponent, dimension).

    The exponent is ignored (and normalized to inf) for sup slices.
    ``cotype`` is read-only metadata set from the tabulated values at
    construction time.
    """

    family: Family
    exponent: float
    dimension: int
    cotype: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise StructuralError(f"dimension must be a positive integer, got {self.dimension}")
        object.__setattr__(self, "dimension", int(self.dimension))
        if self.family is Family.SUP_SLICE:
            object.__setattr__(self, "exponent", INF)
        else:
            p = float(self.exponent)
            if not (p >= 1.0):
                raise DomainError(f"sequence-space exponent must satisfy p >= 1, got {p}")
            object.__setattr__(self, "exponent", p)
        object.__setattr__(self, "cotype", _tabulated_cotype(self.family, self.exponent))

    @property
    def is_sup(self) -> bool:
        """True when the norm is the max-modulus norm."""
        return self.family is Family.SUP_SLICE or self.exponent == INF

    def __repr__(self) -> str:  # compact, used in provenance records
        if self.family is Family.SUP_SLICE:
            return f"sup^{self.dimension}"
        p = "inf" if self.exponent == INF else f"{self.exponent:g}"
        return f"l{p}^{self.dimension}"


def lp(p: float, dim: int) -> SpaceDescriptor:
    """Sequence space l_p^dim."""
    return SpaceDescriptor(Family.SEQUENCE_LP, p, dim)


def sup_slice(dim: int) -> SpaceDescriptor:
    """Finite sup-norm slice of dimension ``dim`` (a section of c_0 / C(K))."""
    return SpaceDescriptor(Family.SUP_SLICE, INF, dim)


def real_line() -> SpaceDescriptor:
    """The scalars R as a 1-dimensional space (all p-norms coincide)."""
    return SpaceDescriptor(Family.SEQUENCE_LP, 2.0, 1)


def dual_exponent(p: float) -> float:
    """Conjugate exponent p* with 1/p + 1/p* = 1; dual of 1 is inf and back."""
    if p == INF:
        return 1.0
    p = float(p)
    if p < 1.0:
        raise DomainError(f"conjugacy is undefined for p < 1 (got {p})")
    if p == 1.0:
        return INF
    return p / (p - 1.0)


def dual_exponent_of(space: SpaceDescriptor) -> float:
    """Exponent of the dual space (sup slices have l_1 duals)."""
    if space.is_sup:
        return 1.0
    return dual_exponent(space.exponent)


def _scaled_power_norm(a: np.ndarray, p: float, axis: int) -> np.ndarray | float:
    if a.ndim == 1:  # as a one-row matrix: scalar ** rounds differently from array **
        return _scaled_power_norm(a[None, :], p, -1)[0]
    # rescale by the max modulus so powers never underflow to a false zero
    amax = a.max(axis=axis, keepdims=True)
    scaled = a / np.where(amax > 0.0, amax, 1.0)
    if p == 2.0:
        body = np.sqrt((scaled * scaled).sum(axis=axis))
    else:
        body = (scaled**p).sum(axis=axis) ** (1.0 / p)
    return body * np.squeeze(amax, axis=axis)


def coord_norm(space: SpaceDescriptor, coords: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Norm of coordinate array(s) under the space's norm, along ``axis``."""
    a = np.abs(np.asarray(coords, dtype=float))
    if space.is_sup:
        return a.max(axis=axis)
    p = space.exponent
    if p == 1.0:
        return a.sum(axis=axis)
    return _scaled_power_norm(a, p, axis)


def dual_coord_norm(space: SpaceDescriptor, coords: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Norm of functional coordinates in the dual of ``space``."""
    a = np.abs(np.asarray(coords, dtype=float))
    q = dual_exponent_of(space)
    if q == INF:
        return a.max(axis=axis)
    if q == 1.0:
        return a.sum(axis=axis)
    return _scaled_power_norm(a, q, axis)


def _as_coords(coords, dim: int) -> np.ndarray:
    a = np.asarray(coords, dtype=float)
    if a.ndim != 1 or a.shape[0] != dim:
        raise StructuralError(f"expected {dim} coordinates, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise StructuralError("coordinates must be finite")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Vector:
    """A point of a space, stored as its coordinate array."""

    space: SpaceDescriptor
    coords: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _as_coords(self.coords, self.space.dimension))

    def norm(self) -> float:
        return float(coord_norm(self.space, self.coords))


@dataclass(frozen=True, eq=False)
class Functional:
    """A functional on ``space``, i.e. an element of the dual space.

    ``space`` is the predual; the coordinate array is measured in the
    dual norm.
    """

    space: SpaceDescriptor
    coords: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _as_coords(self.coords, self.space.dimension))

    def dual_norm(self) -> float:
        return float(dual_coord_norm(self.space, self.coords))

    def __call__(self, v: Vector) -> float:
        if v.space != self.space:
            raise StructuralError(f"functional on {self.space} applied to vector in {v.space}")
        return float(np.dot(self.coords, v.coords))


def norm(space: SpaceDescriptor, v: Vector) -> float:
    """Norm of ``v`` in ``space``; exactly zero iff v = 0."""
    if v.space != space:
        raise StructuralError(f"vector lives in {v.space}, not {space}")
    return v.norm()


def norming_functional(space: SpaceDescriptor, v: Vector) -> Functional:
    """A unit functional phi with phi(v) = ||v||.

    For l_p with 1 < p < inf the functional is the Hoelder-equality
    functional sign(v_i) |v_i|^(p-1) / ||v||^(p-1); for l_1 it is the
    sign pattern on the support; for sup-norm spaces it is +/- e_i0 at a
    maximizing coordinate, ties broken toward the lowest index.
    """
    if v.space != space:
        raise StructuralError(f"vector lives in {v.space}, not {space}")
    if v.norm() == 0.0:
        raise DegenerateInputError("zero vector has no norming functional")
    return Functional(space, norming_rows(space, v.coords[None, :])[0])


def norming_rows(space: SpaceDescriptor, rows: np.ndarray) -> np.ndarray:
    """Row-wise coordinates of :func:`norming_functional`; zero rows get e_1."""
    rows = np.array(rows, dtype=float)
    rows[~np.any(rows, axis=1), 0] = 1.0  # e_1 is its own norming functional in every space
    if space.is_sup:
        return _signed_peak_rows(rows)
    if space.exponent == 1.0:
        return np.sign(rows)
    return np.sign(rows) * (np.abs(rows) / coord_norm(space, rows, axis=1)[:, None]) ** (space.exponent - 1.0)


def unit_rows(space: SpaceDescriptor, rows: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm in ``space``; zero rows become e_1."""
    rows = np.array(rows, dtype=float)
    rows[~np.any(rows, axis=1), 0] = 1.0
    return rows / coord_norm(space, rows, axis=1)[:, None]


def _signed_peak_rows(rows: np.ndarray) -> np.ndarray:
    """+/- e_i at each row's largest |coordinate| (first maximizer), signed like it."""
    out = np.zeros_like(rows)
    at = (np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1))
    out[at] = np.where(rows[at] >= 0, 1.0, -1.0)
    return out


def linear_argmax(space: SpaceDescriptor, c: np.ndarray) -> np.ndarray:
    """Unit-norm coordinates x maximizing <c, x> over the unit ball of ``space``.

    Works row-wise along the last axis of ``c``.  The maximum value is
    the dual norm of ``c``.  Ties for sup-norm duals (l_1-ball argmax)
    break toward the lowest index.  For c = 0 returns e_1.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (space.dimension,):
        raise StructuralError(f"expected {space.dimension} coefficients, got shape {c.shape}")
    rows = c.reshape(-1, space.dimension)
    if space.is_sup:
        x = np.sign(rows)
        x[x == 0.0] = 1.0
    elif space.exponent == 1.0:
        x = _signed_peak_rows(rows)
    else:
        top = np.abs(rows).max(axis=1, keepdims=True)
        x = np.sign(rows) * (np.abs(rows) / np.where(top > 0.0, top, 1.0)) ** (dual_exponent(space.exponent) - 1.0)
        norms = coord_norm(space, x, axis=1)
        x = x / np.where(norms > 0.0, norms, 1.0)[:, None]
    dead = ~np.any(rows, axis=1)
    x[dead] = 0.0
    x[dead, 0] = 1.0
    return x.reshape(c.shape)


def space_to_json(space: SpaceDescriptor) -> dict:
    """JSON object {"family": "lp"|"sup", "p": number|"inf", "dim": int}."""
    p = "inf" if space.exponent == INF else space.exponent
    return {"family": space.family.value, "p": p, "dim": space.dimension}


def space_from_json(obj: dict) -> SpaceDescriptor:
    """Inverse of :func:`space_to_json`; "p" may be omitted for sup slices."""
    try:
        family = Family(obj["family"])
    except (KeyError, ValueError) as exc:
        raise StructuralError(f"bad space object {obj!r}") from exc
    if "dim" not in obj:
        raise StructuralError(f"space object missing 'dim': {obj!r}")
    dim = obj["dim"]
    if family is Family.SUP_SLICE:
        return sup_slice(dim)
    p = obj.get("p", None)
    if p is None:
        raise StructuralError(f"lp space object missing 'p': {obj!r}")
    return lp(INF if p == "inf" else float(p), dim)
