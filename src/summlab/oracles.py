"""Independent brute-force oracles and classical growth checks.

The oracles are deliberately boring: serial loops, naive accumulation,
no fast paths.  The sampling oracle for weak norms draws seeded
Gaussian directions, the same kind of start the weak-norm search uses.
When an optimized path disagrees with an oracle beyond tolerance, the
optimized path is wrong, not the oracle.  The growth and cap checks are
not oracles: they run the optimized family search of ``maximize_quotient``
and compare its quotients with closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .index_lab import (
    DEFAULT_CAP_SLACK,
    MIN_DISTINCT_N,
    WEAK2_GROWTH_CONSTANT,
    estimate_index,
    exact_cap_violations,
    maximize_quotient,
    power_cap,
    summing_quotient,
    upper_bound_mult,
    weak2_growth_exponent,
)
from .maps import MultilinearMap, eval_multilinear
from .search import DEFAULT_BUDGET, SearchBudget
from .spaces import Vector, coord_norm, dual, lp
from .weak_norms import VectorFamily, _rescaled
from .witnesses import identity_witness

_BRUTE_TUPLE_CAP = 10**5
_SAMPLER_DIM_CAP = 6
_SAMPLER_RESOLUTION_CAP = 10**7
HILBERT_CHECK_MAX_D = 32
CAP_CHECK_MAX_D = 16


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    details: dict


def brute_force_mixed_sum(t: MultilinearMap, families, p: float) -> float:
    """Reference mixed power sum: one serial loop, naive accumulation."""
    if not p > 0:  # written so that NaN fails it
        raise DomainError(f"power sum requires p > 0, got {p}")
    families = list(families)
    n = families[0].n
    m = t.arity
    if float(n) ** m > _BRUTE_TUPLE_CAP:
        raise BudgetError(f"{n}^{m} tuples exceed the oracle cap of {_BRUTE_TUPLE_CAP}")
    total = 0.0
    for combo in itertools.product(range(n), repeat=m):
        args = [Vector(fam.space, fam.matrix[k]) for fam, k in zip(families, combo)]
        total += eval_multilinear(t, args).norm() ** p
    return total ** (1.0 / p)


def brute_force_weak_norm(family: VectorFamily, q: float, resolution: int = 10**6, seed: int = 0) -> float:
    """Dense random sampling of the dual unit sphere from seeded Gaussian directions (lower bound).

    Powers are taken on the family times the power of two that brings
    its largest |entry| into [1, 2), and the value is scaled back.
    """
    if not q > 0:  # written so that NaN fails it
        raise DomainError(f"weak norm requires q > 0, got {q}")
    d = family.space.dimension
    if d > _SAMPLER_DIM_CAP:
        raise BudgetError(f"sampling oracle is limited to dimension {_SAMPLER_DIM_CAP}, got {d}")
    if resolution > _SAMPLER_RESOLUTION_CAP:
        raise BudgetError(f"resolution {resolution} exceeds {_SAMPLER_RESOLUTION_CAP}")
    x, e = _rescaled(family.matrix)
    if d == 1:
        return math.ldexp(float((np.abs(x[:, 0]) ** q).sum() ** (1.0 / q)), e)
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = resolution
    while remaining > 0:
        count = min(remaining, 1 << 16)
        g = rng.standard_normal((count, d))
        norms = np.atleast_1d(coord_norm(dual(family.space), g, axis=1)).astype(float)
        norms[norms == 0.0] = 1.0
        phis = g / norms[:, None]
        vals = (np.abs(phis @ x.T) ** q).sum(axis=1)
        best = max(best, float(vals.max()))
        remaining -= count
    return math.ldexp(best ** (1.0 / q), e)


def hilbert_identity_check(d: int, budget: SearchBudget = DEFAULT_BUDGET) -> CheckReport:
    """The 2-summing quotient of the identity on l_2^d at n = d equals sqrt(d).

    The basis family attains sqrt(d) exactly and no searched family may
    exceed it by more than an absolute 1e-6.
    """
    if not (1 <= d <= HILBERT_CHECK_MAX_D):
        raise DomainError(f"check is sized for 1 <= d <= {HILBERT_CHECK_MAX_D}, got {d}")
    space = lp(2.0, d)
    ident = identity_witness(space)
    expected = math.sqrt(d)
    basis = summing_quotient(ident, [VectorFamily.basis(space, d)], 2.0, 2.0, budget)
    best = maximize_quotient(ident, d, 2.0, 2.0, budget=budget)
    basis_exact = abs(basis.quotient - expected) <= 1e-12 * expected
    in_window = expected - 1e-9 <= best.quotient <= expected + 1e-6
    return CheckReport(
        "hilbert_identity",
        bool(basis_exact and in_window),
        {
            "d": d,
            "expected": expected,
            "basis_quotient": basis.quotient,
            "best_quotient": best.quotient,
            "best_strategy": best.family_descriptor.strategy,
        },
    )


def identity_growth_check(q: float, n_grid, budget: SearchBudget = DEFAULT_BUDGET) -> CheckReport:
    """Identity on l_2^n at (q, 2): quotients >= n^(1/q)/(2e), slope = 1/q +- 0.01."""
    exponent = weak2_growth_exponent(q)
    n_grid = [int(n) for n in n_grid]
    samples = []
    floors_ok = True
    rows = []
    for n in n_grid:
        ident = identity_witness(lp(2.0, n))
        best = maximize_quotient(ident, n, q, 2.0, budget=budget)
        floor = WEAK2_GROWTH_CONSTANT * n**exponent
        floors_ok = floors_ok and best.quotient >= floor
        rows.append({"n": n, "quotient": best.quotient, "floor": floor})
        samples.append(best)
    details: dict = {"q": q, "rows": rows, "expected_slope": exponent}
    if len(set(n_grid)) >= MIN_DISTINCT_N:
        est = estimate_index(samples)
        details["slope"] = est.slope
        details["residual"] = est.residual
        slope_ok = abs(est.slope - exponent) <= 0.01
    else:
        slope_ok = True
    return CheckReport("identity_growth", bool(floors_ok and slope_ok), details)


def identity_cap_check(p: float, d: int, budget: SearchBudget = DEFAULT_BUDGET) -> CheckReport:
    """Every exact-path identity quotient at (p, p), n = d, obeys d^max(1/p, 1/2), the order-1 upper bound.

    Runs the family search on l_2^d and (when the vertex path applies)
    l_1^d; only quotients whose weak norms came from exact paths enter
    the assertion.  The basis family on l_2^d is additionally asserted
    through its closed-form denominator d^(1/p - 1/2) for p <= 2 (the
    uniform functional maximizes the q-sum on the Euclidean sphere by
    the power-mean comparison) and 1 for p >= 2.
    """
    if not p > 0:  # written so that NaN fails it
        raise DomainError(f"cap check requires p > 0, got {p}")
    if d > CAP_CHECK_MAX_D:
        raise DomainError(f"cap check is sized for d <= {CAP_CHECK_MAX_D}, got {d}")
    cap = power_cap(d, upper_bound_mult(1, p, p), DEFAULT_CAP_SLACK)
    spaces = [lp(2.0, d), lp(1.0, d)]
    total = 0
    exact = 0
    violations = []
    for space in spaces:
        ident = identity_witness(space)
        _, trace = maximize_quotient(ident, d, p, p, budget=budget, return_trace=True)
        total += len(trace)
        exact += sum(not s.family_descriptor.conservative for s in trace)
        violations += [{"space": repr(space), "quotient": s.quotient} for s in exact_cap_violations(trace, cap)]
    basis_denominator = power_cap(d, 1.0 / p - 0.5) if p <= 2.0 else 1.0
    basis_quotient = power_cap(d, 1.0 / p) / basis_denominator
    basis_ok = basis_quotient <= cap
    return CheckReport(
        "identity_cap",
        bool(not violations and basis_ok),
        {
            "p": p,
            "d": d,
            "cap": cap,
            "quotients_seen": total,
            "exact_path_quotients": exact,
            "violations": violations,
            "basis_quotient_closed_form": basis_quotient,
        },
    )
