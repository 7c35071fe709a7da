"""Constructors for the extremal witness families.

Each constructor produces a map or polynomial together with the exact
coefficient normalization its lower-bound argument needs, and verifies
at construction time that the declared constraint holds, that the
anchor functionals norm their anchors, and that the anchor evaluations
dominate |a_k|^(1/p) ||x_k||^m.  The polynomial witnesses also prove
their norm cap from the construction.  With w_j = |a_j|^(1/p) and
c_j = w_j ||phi_j||_*^m, |w_j phi_j(x)^m| <= c_j on the unit ball, so
P = sum_j w_j phi_j^m y_j has norm at most sum_j c_j for a scalar body,
and at most ||c||_r when the targets y_j are the canonical basis of
l_r^n (disjoint supports), as every witness here builds them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, StructuralError
from .maps import (
    DenseTensor,
    DiagonalC0,
    HomogeneousPolynomial,
    MultilinearMap,
    WitnessBody,
    _poly_outputs,
    operator_norm,  # unused here since the cap is proved; benchmarks/tracing.py wraps this name
)
from .spaces import SpaceDescriptor, coord_norm, dual, lp, norming_rows, real_line, sup_slice
from .weak_norms import VectorFamily


def _resolve_anchors(space_in: SpaceDescriptor, n: int, anchors) -> VectorFamily:
    if isinstance(anchors, VectorFamily):
        if anchors.space != space_in or anchors.n != n:
            raise StructuralError("custom anchors must be n vectors of the domain space")
        if np.any(np.atleast_1d(coord_norm(space_in, anchors.matrix, axis=1)) == 0.0):
            raise StructuralError("anchors must be nonzero")
        return anchors
    if anchors != "basis":
        raise StructuralError(f"unknown anchor strategy {anchors!r}")
    if space_in.dimension < n:
        raise StructuralError(
            f"basis anchors need dimension >= n, got dim {space_in.dimension} < n = {n}"
        )
    return VectorFamily.basis(space_in, n)


def _anchor_functionals(space_in: SpaceDescriptor, anchors: VectorFamily) -> np.ndarray:
    phis = norming_rows(space_in, anchors.matrix)
    norms = anchors.norms()
    if np.any(np.abs((phis * anchors.matrix).sum(axis=1) - norms) > 1e-12 * np.maximum(1.0, norms)):
        raise StructuralError("anchor functional does not norm its anchor")
    return phis


def _norm_bound(poly: HomogeneousPolynomial) -> float:
    """The module docstring's bound on ||P||: sum_j c_j (scalar body) or ||c||_r (canonical-basis targets)."""
    body = poly.body
    c = body.weights * np.atleast_1d(coord_norm(dual(poly.domain), body.functionals, axis=1)) ** poly.degree
    return float(c.sum()) if body.targets is None else float(coord_norm(poly.codomain, c))


def _verify_witness(poly: HomogeneousPolynomial, anchors: VectorFamily, cap: float) -> None:
    """Prove ||P|| <= cap with ``_norm_bound`` (scalar body or canonical-basis targets); check the anchor floor."""
    bound = _norm_bound(poly)
    if bound > cap + 1e-9:
        raise StructuralError(f"witness norm bound {bound} is above the cap {cap}")
    outputs = _poly_outputs(poly, anchors.matrix)
    out_norms = np.atleast_1d(coord_norm(poly.codomain, outputs, axis=-1))
    anchor_norms = anchors.norms()
    floor = poly.body.weights * anchor_norms**poly.degree
    if np.any(out_norms < floor - 1e-10):
        raise StructuralError("witness anchor evaluation fell below |a_k|^(1/p) ||x_k||^m")


def tensor_witness(m: int, n: int) -> MultilinearMap:
    """The diagonal outer-product map of order m on l_2^n, operator norm 1, held in O(1) memory."""
    if m < 1 or n < 1:
        raise DomainError("tensor witness needs m >= 1 and n >= 1")
    return diagonal_product_map(m, n, lp(2.0, n))


def _equal_coefficient_witness(
    m: int,
    p: float,
    space_in: SpaceDescriptor,
    codomain: SpaceDescriptor,
    targets: np.ndarray | None,
    r: float,
    n: int,
    anchors,
) -> tuple[HomogeneousPolynomial, VectorFamily]:
    """sum_j a_j^(1/p) phi_j(x)^m y_j with a_j = n^(-p/r), so that sum a^(r/p) = 1; scalar when targets is None."""
    anchors = _resolve_anchors(space_in, n, anchors)
    body = WitnessBody(np.full(n, float(n) ** (-p / r)), _anchor_functionals(space_in, anchors), p, targets)
    poly = HomogeneousPolynomial(m, space_in, codomain, body)
    _verify_witness(poly, anchors, 1.0)
    return poly, anchors


def cotype_witness(
    m: int,
    p: float,
    space_in: SpaceDescriptor,
    target_r: float,
    n: int,
    anchors="basis",
) -> tuple[HomogeneousPolynomial, VectorFamily]:
    """Witness polynomial into l_r^n with equal coefficients a_j = n^(-p/r).

    Targets are the canonical basis of l_r^n, which realizes the
    two-sided factoring estimate with both constants equal to 1.
    Requires p < r (the coefficient duality argument needs it) and
    r >= 2 so that the codomain's tabulated cotype equals r.
    """
    if n < 1 or m < 1:
        raise DomainError("witness needs m >= 1 and n >= 1")
    if target_r < 2.0:
        raise DomainError(f"target space needs r >= 2, got {target_r}")
    if not (0.0 < p < target_r):
        raise DomainError(f"witness requires 0 < p < r, got p = {p}, r = {target_r}")
    return _equal_coefficient_witness(m, p, space_in, lp(target_r, n), np.eye(n), target_r, n, anchors)


def real_even_witness(
    m: int,
    p: float,
    space_in: SpaceDescriptor,
    n: int,
    anchors="basis",
) -> tuple[HomogeneousPolynomial, VectorFamily]:
    """Scalar witness of even degree with equal coefficients a_j = n^(-p).

    The cotype witness at r = 1 with scalar targets.  Requires m even
    and 0 < p < 1; the polynomial is pointwise nonnegative and has
    operator norm at most 1.
    """
    if m < 1 or m % 2 != 0:
        raise DomainError(f"scalar even witness needs even degree, got {m}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"scalar even witness requires 0 < p < 1, got {p}")
    if n < 1:
        raise DomainError("witness needs n >= 1")
    return _equal_coefficient_witness(m, p, space_in, real_line(), None, 1.0, n, anchors)


def identity_witness(space: SpaceDescriptor) -> MultilinearMap:
    """The identity on ``space`` as an arity-1 dense map."""
    d = space.dimension
    return MultilinearMap((space,), space, DenseTensor(np.eye(d)))


def diagonal_product_map(m: int, n: int, domain_space: SpaceDescriptor) -> MultilinearMap:
    """Structured outer-product map on m copies of an n-dimensional domain space.

    Same coordinates as the diagonal witness but with an arbitrary
    domain norm, held as a ``DiagonalC0`` body in O(1) memory.  Its
    operator norm is exactly 1 on every domain, which makes it the
    natural order-m instance for soundness checks on exact weak-norm
    paths.
    """
    if domain_space.dimension != n:
        raise StructuralError("domain space dimension must equal n")
    if m < 1 or n < 1:
        raise DomainError("needs m >= 1 and n >= 1")
    return MultilinearMap(tuple(domain_space for _ in range(m)), sup_slice(n**m), DiagonalC0(n))
