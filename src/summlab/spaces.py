"""Finite-dimensional normed sequence spaces.

A space is either a sequence space l_p^d (1 <= p <= inf) or a "sup
slice": a finite section of the sup-norm sequence spaces, i.e. l_inf^d
under a separate family tag.  Sup slices are how this package models
finite sections of c_0 and C(K): every construction here only ever
populates finitely many coordinates, so nothing is lost at desk scale.

The dual of a space is a space (:func:`dual`), so a functional on E is
a :class:`Vector` of dual(E), measured with the same norm code.

Cotype is tabulated metadata, never computed: max(2, p) for l_p with
p < inf, and inf for sup slices and p = inf.
"""

from __future__ import annotations

import enum
import functools
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


@functools.lru_cache(maxsize=None)
def dual(space: SpaceDescriptor) -> SpaceDescriptor:
    """The dual space: l_p* for l_p, and l_1 for sup slices."""
    return lp(1.0 if space.is_sup else dual_exponent(space.exponent), space.dimension)


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


@dataclass(frozen=True, eq=False)
class Vector:
    """A point of a space, stored as its coordinate array.

    A functional on E is a Vector of ``dual(E)``.
    """

    space: SpaceDescriptor
    coords: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.coords, dtype=float)
        if a.shape != (self.space.dimension,):
            raise StructuralError(f"expected {self.space.dimension} coordinates, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise StructuralError("coordinates must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "coords", a)

    def norm(self) -> float:
        return float(coord_norm(self.space, self.coords))


def norming_functional(space: SpaceDescriptor, v: Vector) -> Vector:
    """A unit vector phi of ``dual(space)`` with <phi, v> = ||v||.

    For l_p with 1 < p < inf the functional is the Hoelder-equality
    functional sign(v_i) |v_i|^(p-1) / ||v||^(p-1); for l_1 it is the
    sign pattern on the support; for sup-norm spaces it is +/- e_i0 at a
    maximizing coordinate, ties broken toward the lowest index.
    """
    if v.space != space:
        raise StructuralError(f"vector lives in {v.space}, not {space}")
    if v.norm() == 0.0:
        raise DegenerateInputError("zero vector has no norming functional")
    return Vector(dual(space), norming_rows(space, v.coords[None, :])[0])


def norming_rows(space: SpaceDescriptor, rows: np.ndarray) -> np.ndarray:
    """Row-wise coordinates of :func:`norming_functional`; zero rows get e_1.

    ``norming_rows(dual(E), c)`` is the linear argmax over the unit ball
    of E: each of its rows x has ||x||_E = 1 and <c, x> = ||c||_E*.
    """
    rows = np.array(rows, dtype=float)
    rows[~np.any(rows, axis=1), 0] = 1.0  # e_1 is its own norming functional in every space
    if space.is_sup:
        return _signed_peak_rows(rows)
    if space.exponent == 1.0:
        return np.sign(rows)
    return np.sign(rows) * (np.abs(rows) / coord_norm(space, rows, axis=1)[:, None]) ** (space.exponent - 1.0)


def unit_rows(space: SpaceDescriptor, rows: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm in ``space``; zero rows become e_1."""
    rows = np.asarray(rows, dtype=float)
    nrm = coord_norm(space, rows, axis=1)
    if not nrm.all():  # a norm is 0 only on a zero row
        rows = rows.copy()
        rows[nrm == 0.0, 0] = 1.0
        nrm = coord_norm(space, rows, axis=1)
    return rows / nrm[:, None]


def _signed_peak_rows(rows: np.ndarray) -> np.ndarray:
    """+/- e_i at each row's largest |coordinate| (first maximizer), signed like it."""
    out = np.zeros_like(rows)
    at = (np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1))
    out[at] = np.where(rows[at] >= 0, 1.0, -1.0)
    return out


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
