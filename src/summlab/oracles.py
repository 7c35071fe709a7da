"""Independent brute-force oracles and classical growth checks.

The oracles are deliberately boring: serial loops, naive accumulation,
no fast paths.  The sampling oracle for weak norms draws seeded
Gaussian directions, the same kind of start the weak-norm search uses.
When an optimized path disagrees with an oracle beyond tolerance, the
optimized path is wrong, not the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .index_lab import WEAK2_GROWTH_CONSTANT, estimate_index, maximize_quotient, summing_quotient
from .maps import MultilinearMap, eval_multilinear
from .search import DEFAULT_BUDGET, SearchBudget
from .spaces import Vector, dual_coord_norm, lp
from .weak_norms import VectorFamily
from .witnesses import identity_witness

_BRUTE_TUPLE_CAP = 10**5
_SAMPLER_DIM_CAP = 6
_SAMPLER_RESOLUTION_CAP = 10**7


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    details: dict


def brute_force_mixed_sum(t: MultilinearMap, families, p: float) -> float:
    """Reference mixed power sum: one serial loop, naive accumulation."""
    if p <= 0:
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
    """Dense random sampling of the dual unit sphere from seeded Gaussian directions (lower bound)."""
    if q <= 0:
        raise DomainError(f"weak norm requires q > 0, got {q}")
    d = family.space.dimension
    if d > _SAMPLER_DIM_CAP:
        raise BudgetError(f"sampling oracle is limited to dimension {_SAMPLER_DIM_CAP}, got {d}")
    if resolution > _SAMPLER_RESOLUTION_CAP:
        raise BudgetError(f"resolution {resolution} exceeds {_SAMPLER_RESOLUTION_CAP}")
    x = family.matrix
    if d == 1:
        return float((np.abs(x[:, 0]) ** q).sum() ** (1.0 / q))
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = resolution
    while remaining > 0:
        count = min(remaining, 1 << 16)
        g = rng.standard_normal((count, d))
        norms = np.atleast_1d(dual_coord_norm(family.space, g, axis=1)).astype(float)
        norms[norms == 0.0] = 1.0
        phis = g / norms[:, None]
        vals = (np.abs(phis @ x.T) ** q).sum(axis=1)
        best = max(best, float(vals.max()))
        remaining -= count
    return best ** (1.0 / q)


def hilbert_identity_check(d: int, budget: SearchBudget = DEFAULT_BUDGET) -> CheckReport:
    """The 2-summing quotient of the identity on l_2^d at n = d equals sqrt(d).

    The basis family attains sqrt(d) exactly and no searched family may
    exceed it beyond 1e-6 relative slack.
    """
    if not (1 <= d <= 32):
        raise DomainError(f"check is sized for 1 <= d <= 32, got {d}")
    space = lp(2.0, d)
    ident = identity_witness(space)
    expected = math.sqrt(d)
    basis = summing_quotient(ident, [VectorFamily.basis(space, d)], 2.0, 2.0, budget)
    best = maximize_quotient(ident, d, 2.0, 2.0, budget=budget, random_starts=2, sweeps=8)
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
    if q <= 2.0:
        raise DomainError(f"growth check requires q > 2, got {q}")
    n_grid = [int(n) for n in n_grid]
    samples = []
    floors_ok = True
    rows = []
    for n in n_grid:
        ident = identity_witness(lp(2.0, n))
        best = maximize_quotient(ident, n, q, 2.0, budget=budget, random_starts=2, sweeps=8)
        floor = WEAK2_GROWTH_CONSTANT * n ** (1.0 / q)
        floors_ok = floors_ok and best.quotient >= floor
        rows.append({"n": n, "quotient": best.quotient, "floor": floor})
        samples.append(best)
    details: dict = {"q": q, "rows": rows, "expected_slope": 1.0 / q}
    if len(set(n_grid)) >= 3:
        est = estimate_index(samples)
        details["slope"] = est.slope
        details["residual"] = est.residual
        slope_ok = abs(est.slope - 1.0 / q) <= 0.01
    else:
        slope_ok = True
    return CheckReport("identity_growth", bool(floors_ok and slope_ok), details)


def identity_cap_check(p: float, d: int, budget: SearchBudget = DEFAULT_BUDGET) -> CheckReport:
    """Every exact-path identity quotient at (p, p), n = d, obeys d^max(1/p, 1/2).

    Runs the family search on l_2^d and (when the vertex path applies)
    l_1^d; only quotients whose weak norms came from exact paths enter
    the assertion.  The basis family on l_2^d is additionally asserted
    through its closed-form denominator d^(1/p - 1/2) for p <= 2 (the
    uniform functional maximizes the q-sum on the Euclidean sphere by
    the power-mean comparison) and 1 for p >= 2.
    """
    if p <= 0:
        raise DomainError(f"requires p > 0, got {p}")
    if d > 16:
        raise DomainError(f"cap check is sized for d <= 16, got {d}")
    cap = float(d) ** max(1.0 / p, 0.5) * (1.0 + 1e-6)
    spaces = [lp(2.0, d), lp(1.0, d)]
    total = 0
    exact = 0
    violations = []
    for space in spaces:
        ident = identity_witness(space)
        _, trace = maximize_quotient(
            ident, d, p, p, budget=budget, random_starts=2, sweeps=8, return_trace=True
        )
        for sample in trace:
            total += 1
            if sample.family_descriptor.conservative:
                continue
            exact += 1
            if sample.quotient > cap:
                violations.append({"space": repr(space), "quotient": sample.quotient})
    basis_denominator = d ** (1.0 / p - 0.5) if p <= 2.0 else 1.0
    basis_quotient = d ** (1.0 / p) / basis_denominator
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
