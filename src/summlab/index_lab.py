"""Summing quotients, quotient maximization, exponent regression, bounds.

The central observable is the summing quotient of a map T at family
length n:

    ( sum over tuples ||T(x_{k_1}, ..., x_{k_m})||^p )^(1/p)
    ----------------------------------------------------------
            prod_i  weak-q norm of the i-th family

(for polynomials the denominator is the weak norm raised to the
degree).  Growth of the best quotient in n is what the piecewise bound
tables cap from above and the witness constructions push from below;
the regressed log-log slope is reported as an empirical growth
exponent, never as a converged index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, DomainError, StructuralError, ValidityError
from .maps import (
    DEFAULT_TUPLE_BUDGET,
    HomogeneousPolynomial,
    MultilinearMap,
    mixed_power_sum,
    poly_power_sum,
)
from .search import DEFAULT_BUDGET, SearchBudget, derive_seed
from .spaces import coord_norm, unit_rows
from .weak_norms import VectorFamily, WeakNormResult, weak_norm

# ---------------------------------------------------------------------------
# samples and regression
# ---------------------------------------------------------------------------


# the family search's effort, and the relative slack of every n^e cap
DEFAULT_RANDOM_STARTS = 2
DEFAULT_SWEEPS = 8
DEFAULT_CAP_SLACK = 1e-6


@dataclass(frozen=True, eq=False)
class Provenance:
    """How a quotient sample was produced.

    ``conservative`` is True when any weak norm in the denominator came
    from search (a lower bound), in which case the quotient may
    overestimate; :func:`exact_cap_violations` therefore lets only
    non-conservative samples fail a cap.
    """

    strategy: str
    weak_norm_exact: tuple[bool, ...]
    certificates: tuple[np.ndarray, ...] = ()

    @property
    def conservative(self) -> bool:
        return not all(self.weak_norm_exact)


@dataclass(frozen=True, eq=False)
class QuotientSample:
    n: int
    quotient: float
    family_descriptor: Provenance

    def __post_init__(self) -> None:
        if not math.isfinite(self.quotient) or self.quotient < 0:
            raise StructuralError(f"quotient must be finite and >= 0, got {self.quotient}")


@dataclass(frozen=True)
class IndexEstimate:
    """Least-squares slope of log(quotient) against log(n).

    ``residual`` is the max absolute log-residual of the fit; it is
    part of the estimate and is never hidden.
    """

    slope: float
    intercept: float
    residual: float
    grid: tuple[int, ...]


def _quotient_sample(n: int, numerator: Callable[[], float], results, power: int, strategy: str) -> QuotientSample:
    """numerator() over (the product of the weak norms)^power; an all-zero family is refused before the numerator runs."""
    denom = 1.0
    for res in results:
        if res.value == 0.0:
            raise DegenerateInputError("weak norm of an all-zero family: quotient undefined")
        denom *= res.value
    prov = Provenance(strategy, tuple(res.exact for res in results), tuple(res.certificate.coords for res in results))
    value = numerator()
    try:
        return QuotientSample(n, value / denom**power, prov)
    except (OverflowError, ZeroDivisionError):  # denom**power left the float range
        raise StructuralError(f"denominator {denom!r}^{power} is beyond the float range") from None


def summing_quotient(
    t: MultilinearMap,
    families,
    p: float,
    q: float,
    budget: SearchBudget = DEFAULT_BUDGET,
    *,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    threads: int = 1,
    strategy: str = "direct",
    _weak_results: list[WeakNormResult] | None = None,
) -> QuotientSample:
    """Mixed power sum over the product of the families' weak-q norms; ``threads`` is accepted, unused."""
    families = list(families)
    if _weak_results is None:
        _weak_results = [weak_norm(fam, q, budget) for fam in families]
    return _quotient_sample(
        families[0].n, lambda: mixed_power_sum(t, families, p, tuple_budget=tuple_budget), _weak_results, 1, strategy
    )


def polynomial_quotient(
    p_map: HomogeneousPolynomial,
    family: VectorFamily,
    p: float,
    q: float,
    budget: SearchBudget = DEFAULT_BUDGET,
    *,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    strategy: str = "direct",
    _weak_result: WeakNormResult | None = None,
) -> QuotientSample:
    """Power sum of P over the family divided by (weak-q norm)^degree."""
    res = _weak_result if _weak_result is not None else weak_norm(family, q, budget)
    return _quotient_sample(
        family.n, lambda: poly_power_sum(p_map, family, p, tuple_budget=tuple_budget), [res], p_map.degree, strategy
    )


def maximize_quotient(
    map_obj,
    n: int,
    p: float,
    q: float,
    *,
    budget: SearchBudget = DEFAULT_BUDGET,
    anchor_families: VectorFamily | None = None,
    random_starts: int = DEFAULT_RANDOM_STARTS,
    sweeps: int = DEFAULT_SWEEPS,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    threads: int = 1,
    return_trace: bool = False,
):
    """Best quotient over the basis family, the anchor family, and refined random families.

    They run in that order, the anchor family (one family in every slot)
    only when given, and ties resolve toward the earlier one; each
    random start perturbs one vector at a time, keeps the move if the
    quotient rises, and halves the step once a full sweep fails.  Not
    deterministic under a fixed budget seed alone: the weak-norm cache
    below is keyed on ``id(fam)`` without keeping ``fam`` alive, so a
    reused id can return another family's weak norm and the trace
    depends on heap layout (ROADMAP defect D1).  ``threads`` is accepted
    and unused.
    """
    if n < 1:
        raise DomainError("family length must be >= 1")
    is_poly = isinstance(map_obj, HomogeneousPolynomial)
    if not is_poly and not isinstance(map_obj, MultilinearMap):
        raise StructuralError(f"cannot maximize quotients of {type(map_obj).__name__}")
    domains = [map_obj.domain] if is_poly else list(map_obj.domain)

    weak_cache: dict[int, WeakNormResult] = {}

    def weak_of(fam: VectorFamily) -> WeakNormResult:
        res = weak_cache.get(id(fam))
        if res is None:
            res = weak_norm(fam, q, budget)
            weak_cache[id(fam)] = res
        return res

    def evaluate(fams, label: str) -> QuotientSample:
        results = [weak_of(f) for f in fams]
        if is_poly:
            return polynomial_quotient(
                map_obj, fams[0], p, q, budget, tuple_budget=tuple_budget, strategy=label, _weak_result=results[0]
            )
        return summing_quotient(
            map_obj, fams, p, q, budget, tuple_budget=tuple_budget, strategy=label, _weak_results=results
        )

    best = evaluate([VectorFamily.basis(s, n) for s in domains], "basis")
    trace: list[QuotientSample] = [best]

    def consider(sample: QuotientSample) -> None:
        nonlocal best
        trace.append(sample)
        if sample.quotient > best.quotient:
            best = sample

    if anchor_families is not None:
        if any(anchor_families.space != space for space in domains) or anchor_families.n != n:
            raise StructuralError("the anchor family must match every domain and the length n")
        consider(evaluate([anchor_families] * len(domains), "anchor"))

    rng = np.random.default_rng(derive_seed(budget.seed, "maximize_quotient", map_obj.fingerprint(), n, float(p), float(q)))
    for start in range(random_starts):
        fams = []
        for space in domains:
            fams.append(VectorFamily(space, unit_rows(space, rng.standard_normal((n, space.dimension)))))
        label = f"random[{start}]"
        current = evaluate(fams, label)
        consider(current)
        sigma = 0.5
        for _ in range(sweeps):
            improved = False
            for slot, space in enumerate(domains):
                for k in range(n):
                    mat = fams[slot].matrix.copy()
                    row = mat[k] + sigma * rng.standard_normal(space.dimension)
                    nr = float(coord_norm(space, row))
                    if nr == 0.0:
                        continue
                    mat[k] = row / nr
                    trial = list(fams)
                    trial[slot] = VectorFamily(space, mat)
                    sample = evaluate(trial, label + "+ascent")
                    consider(sample)
                    if sample.quotient > current.quotient:
                        fams = trial
                        current = sample
                        improved = True
            if not improved:
                sigma *= 0.5
                if sigma < 1e-3:
                    break
    return (best, trace) if return_trace else best


def exact_cap_violations(trace, cap: float) -> list[QuotientSample]:
    """The samples of ``trace`` above ``cap`` whose weak norms all came from exact paths, in trace order.

    A conservative sample's quotient may overstate the true one, so it
    is never returned.
    """
    return [s for s in trace if not s.family_descriptor.conservative and s.quotient > cap]


def power_cap(n: float, exponent: float, slack: float = 0.0) -> float:
    """n^exponent * (1 + slack), or inf where that is beyond the float range: such a cap bounds nothing."""
    try:
        return float(n) ** float(exponent) * (1.0 + slack)
    except OverflowError:
        return math.inf


def estimate_index(samples) -> IndexEstimate:
    """OLS of log(quotient) on log(n); needs >= 3 samples at distinct n."""
    samples = list(samples)
    ns = [s.n for s in samples]
    if len(set(ns)) < 3:
        raise StructuralError("regression needs at least 3 samples at distinct n")
    for s in samples:
        if s.quotient <= 0:
            raise DomainError("regression needs strictly positive quotients")
    order = np.argsort(ns)
    x = np.log([float(ns[i]) for i in order])
    y = np.log([samples[i].quotient for i in order])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.abs(y - (slope * x + intercept)).max())
    return IndexEstimate(float(slope), float(intercept), residual, tuple(int(ns[i]) for i in order))


# ---------------------------------------------------------------------------
# closed-form bound tables
# ---------------------------------------------------------------------------


def _check_mpq(m: int, p: float, q: float) -> None:
    if m < 1 or int(m) != m:
        raise DomainError(f"order m must be a positive integer, got {m}")
    if p <= 0 or q <= 0:
        raise DomainError(f"exponents must be positive, got p = {p}, q = {q}")


# (branch label, value function); the function raises where the bound makes no claim
_Selection = tuple[str, Callable[[], float]]


def _mult_upper(m: int, p: float, q: float) -> _Selection:
    if q <= 2.0:
        return "q<=2: m/p", lambda: mult_upper_branch(m, p, q, "low_q")
    if p >= q:
        return "q>=2, p>=q: mq/(2p)", lambda: mult_upper_branch(m, p, q, "p_ge_q")
    return "q>=2, p<q: m(qp-2p+2q)/(2qp)", lambda: mult_upper_branch(m, p, q, "p_lt_q")


def upper_bound_mult(m: int, p: float, q: float) -> float:
    """Universal upper bound on the order-m growth exponent at (p, q).

    Piecewise: m/p for q <= 2; mq/(2p) for q >= 2 and p >= q;
    m(qp - 2p + 2q)/(2qp) for q >= 2 and p < q.  Continuous at p = q
    and at q = 2.
    """
    return _mult_upper(m, p, q)[1]()


def mult_upper_branch(m: int, p: float, q: float, which: str) -> float:
    """Raw branch formulas of :func:`upper_bound_mult` (for seam checks)."""
    _check_mpq(m, p, q)
    if which == "low_q":
        return m / p
    if which == "p_ge_q":
        return m * q / p / 2.0  # not / (2.0 * p), which is inf, and the value 0, for p >= 2^1023
    if which == "p_lt_q":
        return m * (q * p - 2.0 * p + 2.0 * q) / (2.0 * q * p)
    raise StructuralError(f"unknown branch {which!r}")


def upper_bound_pol(m: int, p: float, q: float) -> float:
    """Polynomial upper bound, claimed only for p < q/m.

    1/p for q <= 2 and 1/p + m(q - 2)/(2q) for q >= 2.
    """
    _check_mpq(m, p, q)
    if p >= q / m:
        raise ValidityError(f"polynomial upper bound is only claimed for p < q/m (p = {p}, q/m = {q / m})")
    if q <= 2.0:
        return 1.0 / p
    return 1.0 / p + m * (q - 2.0) / (2.0 * q)


def cotype_seam_points(m: int, q: float, r: float) -> tuple[float, float]:
    """The two breakpoints rq/(mr + q) and 2r/(mr + 2)."""
    return r * q / (m * r + q), 2.0 * r / (m * r + 2.0)


def pol_cotype_branch_value(branch: str, m: int, p: float, q: float, r: float) -> float:
    """Raw branch formulas of the cotype lower bound (for seam checks)."""
    if branch in ("a", "c"):
        return m / 2.0
    if branch == "b":
        return (m * p + 2.0) / (2.0 * p) - (m * r + q) / (r * q)
    if branch == "d":
        return (r - p) / (p * r)
    raise StructuralError(f"unknown branch {branch!r}")


_COTYPE_LABELS = {
    "a": "(a) m/2",
    "b": "(b) (mp+2)/(2p) - (mr+q)/(rq)",
    "c": "(c) m/2",
    "d": "(d) (r-p)/(pr)",
}
_REAL_EVEN_LABELS = {
    "a": "(a) m/2",
    "b": "(b) (mp+2)/(2p) - (m+q)/q",
    "c": "(c) m/2",
    "d": "(d) (1-p)/p",
}


def _pol_lower(m: int, p: float, q: float, r: float | None) -> _Selection:
    """The cotype lower-bound table at r; ``r = None`` is the scalar even-degree table, the same table at r = 1."""
    r_table = 1.0 if r is None else r
    try:
        p_low, p_high = cotype_seam_points(m, q, r_table)
    except ZeroDivisionError:  # only off the domain, which the value function reports
        p_low = p_high = math.nan
    if q >= 2.0:
        branch = "c" if p <= p_high else "d"
    else:
        branch = "a" if p <= p_low else "b"

    def value() -> float:
        _check_mpq(m, p, q)
        if r is None:
            if m % 2 != 0:
                raise DomainError(f"even degree required, got m = {m}")
        elif r < 2.0:
            raise DomainError(f"cotype parameter must satisfy r >= 2, got {r}")
        elif p >= r:
            raise DomainError(f"requires p < r, got p = {p}, r = {r}")
        if q < 1.0:
            raise ValidityError(f"no claim for q < 1 (q = {q})")
        if branch == "b" and p > p_high:
            raise ValidityError(f"no claim for q < 2 and p > 2r/(mr+2) = {p_high} (p = {p}, r = {r_table})")
        if branch == "d" and p >= r_table:
            raise ValidityError(f"no claim for q >= 2 and p >= r (p = {p}, r = {r_table})")
        return pol_cotype_branch_value(branch, m, p, q, r_table)

    return (_REAL_EVEN_LABELS if r is None else _COTYPE_LABELS)[branch], value


def lower_bound_pol_cotype(m: int, p: float, q: float, r: float) -> float:
    """Lower bound on the polynomial growth exponent into a cotype-r target.

    Branches: (a) q in [1,2], p <= rq/(mr+q): m/2; (b) q in [1,2],
    rq/(mr+q) <= p <= 2r/(mr+2): (mp+2)/(2p) - (mr+q)/(rq); (c) q >= 2,
    p <= 2r/(mr+2): m/2; (d) q >= 2, 2r/(mr+2) < p < r: (r-p)/(pr).
    Adjacent branches agree at the breakpoints.
    """
    return _pol_lower(m, p, q, float(r))[1]()  # float: r = None would select the scalar table


def lower_bound_pol_real_even(m: int, p: float, q: float) -> float:
    """Lower bound on the scalar-valued even-degree growth exponent.

    The cotype table at r = 1: (a) q in [1,2], p <= q/(m+q): m/2;
    (b) q in [1,2], q/(m+q) <= p <= 2/(m+2): (mp+2)/(2p) - (m+q)/q;
    (c) q >= 2, p <= 2/(m+2): m/2; (d) q >= 2, 2/(m+2) < p < 1: (1-p)/p.
    """
    return _pol_lower(m, p, q, None)[1]()


def seam_continuity_gaps(m: int, q: float, r: float | None = None) -> dict[str, float]:
    """Absolute gaps between adjacent branch values at every applicable seam."""
    tables = ([("cotype", r)] if r is not None else []) + ([("real_even", 1.0)] if m % 2 == 0 else [])
    gaps: dict[str, float] = {}
    for name, r_table in tables:
        p_low, p_high = cotype_seam_points(m, q, r_table)

        def gap(left: str, right: str, at: float) -> float:
            return abs(pol_cotype_branch_value(left, m, at, q, r_table) - pol_cotype_branch_value(right, m, at, q, r_table))

        if 1.0 <= q <= 2.0:
            gaps[f"{name}_low"] = gap("a", "b", p_low)
        if q >= 2.0:
            gaps[f"{name}_high"] = gap("c", "d", p_high)
        if q == 2.0:
            gaps[f"{name}_q2"] = gap("b", "d", p_high)
    return gaps


# ---------------------------------------------------------------------------
# exact cases, index shifting, classical growth exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactIndex:
    """A tabulated exact growth exponent with its validity range."""

    case: str
    value: float
    p_range: tuple[float, float] | None
    note: str


EXACT_CASES = ("l2_to_c0", "l1_to_l2", "sup_to_cotype")


def exact_index(case_id: str, *, m: int | None = None, p: float | None = None, r: float | None = None) -> ExactIndex:
    """Tabulated exact growth exponents.

    l2_to_c0: the order-m diagonal family at (2, 2) gives exactly m/2.
    l1_to_l2: degree-m polynomials at (p, 1) give 1/p - (m+1)/2 for
    2/(2m+1) <= p < 2/(m+1).  sup_to_cotype: linear maps from sup-norm
    spaces into a cotype-r target at (p, 2) give 1/p - 1/r for
    2r/(r+2) < p < r.
    """
    if case_id == "l2_to_c0":
        if m is None or m < 1:
            raise DomainError("l2_to_c0 needs the order m >= 1")
        return ExactIndex(case_id, m / 2.0, None, "holds at (p, q) = (2, 2) for every order m")
    if case_id == "l1_to_l2":
        if m is None or m < 1 or p is None:
            raise DomainError("l1_to_l2 needs the degree m >= 1 and p")
        lo, hi = 2.0 / (2.0 * m + 1.0), 2.0 / (m + 1.0)
        if not (lo <= p < hi):
            raise ValidityError(f"l1_to_l2 is exact only for {lo} <= p < {hi}, got p = {p}")
        return ExactIndex(case_id, 1.0 / p - (m + 1.0) / 2.0, (lo, hi), "q = 1; left end closed, right end open")
    if case_id == "sup_to_cotype":
        if p is None or r is None:
            raise DomainError("sup_to_cotype needs p and the target cotype r")
        if r < 2.0:
            raise DomainError(f"target cotype must satisfy r >= 2, got {r}")
        lo, hi = 2.0 * r / (r + 2.0), r
        if not (lo < p < hi):
            raise ValidityError(f"sup_to_cotype is exact only for {lo} < p < {hi}, got p = {p}")
        return ExactIndex(case_id, 1.0 / p - 1.0 / r, (lo, hi), "q = 2, m = 1; both ends open")
    raise ValidityError(f"unknown exact case {case_id!r}; known: {EXACT_CASES}")


def index_shift(p_target: float, p_known: float, eta_known: float) -> float:
    """Hoelder-padded exponent at a smaller power: eta + 1/p_target - 1/p_known."""
    if not (0.0 < p_target < p_known):
        raise DomainError(f"requires 0 < p_target < p_known, got {p_target} and {p_known}")
    return eta_known + 1.0 / p_target - 1.0 / p_known


def interpolation_growth_exponent(s: float, d: float) -> float:
    """Lower growth exponent (2d + s(d-2)) / (2sd) for 1 <= d <= s <= 2.

    Equals 1/2 along the diagonal s = d, matching the Hilbert identity
    growth at s = d = 2.
    """
    if not (1.0 <= d <= s <= 2.0):
        raise DomainError(f"requires 1 <= d <= s <= 2, got s = {s}, d = {d}")
    return (2.0 * d + s * (d - 2.0)) / (2.0 * s * d)


WEAK2_GROWTH_CONSTANT = 1.0 / (2.0 * math.e)


def weak2_growth_exponent(q: float) -> float:
    """Growth exponent 1/q of the (q, 2) identity quotient, for q > 2.

    The accompanying universal constant 1/(2e) is reported alongside as
    WEAK2_GROWTH_CONSTANT but never asserted in growth tests.
    """
    if q <= 2.0:
        raise DomainError(f"requires q > 2, got {q}")
    return 1.0 / q


# ---------------------------------------------------------------------------
# assembled bound table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    kind: str
    m: int
    p: float
    q: float
    r: float | None
    branch: str
    value: float | None
    valid: bool
    note: str = ""


def bound_table(m: int, p: float, q: float, r: float | None = None) -> list[BoundEntry]:
    """Every applicable bound at (m, p, q[, r]), with validity flags."""
    entries: list[BoundEntry] = []

    def attempt(kind: str, branch: str, fn, note: str = "") -> None:
        try:
            value = fn()
        except (ValidityError, DomainError) as exc:
            entries.append(BoundEntry(kind, m, p, q, r, branch, None, False, str(exc)))
            return
        entries.append(BoundEntry(kind, m, p, q, r, branch, float(value), True, note))

    attempt("mult_upper", *_mult_upper(m, p, q))
    attempt("pol_upper", "1/p" if q <= 2 else "1/p + m(q-2)/(2q)", lambda: upper_bound_pol(m, p, q))
    if r is not None:
        attempt("pol_lower_cotype", *_pol_lower(m, p, q, r))
    attempt("pol_lower_real_even", *_pol_lower(m, p, q, None))
    if p == 2.0 and q == 2.0:
        attempt("exact", "l2_to_c0: m/2", lambda: exact_index("l2_to_c0", m=m).value)
    if q == 1.0:
        attempt("exact", "l1_to_l2: 1/p - (m+1)/2", lambda: exact_index("l1_to_l2", m=m, p=p).value)
    if q == 2.0 and m == 1 and r is not None:
        attempt("exact", "sup_to_cotype: 1/p - 1/r", lambda: exact_index("sup_to_cotype", p=p, r=r).value)
    return entries
