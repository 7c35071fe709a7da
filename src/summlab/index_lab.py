"""Summing quotients, quotient maximization, exponent regression, bounds.

The central observable is the summing quotient of a map T at family
length n:

    ( sum over tuples ||T(x_{k_1}, ..., x_{k_m})||^p )^(1/p)
    ----------------------------------------------------------
            prod_i  weak-q norm of the i-th family

(for polynomials the denominator is the weak norm raised to the
degree).  Growth of the best quotient in n is what the closed-form
bounds cap from above and the witness constructions push from below;
the regressed log-log slope is reported as an empirical growth
exponent, never as a converged index.

The bounds form one table, BOUNDS.  A row is listed at some (m, p, q, r),
claims a value at some of them (its value function raises ValidityError
or DomainError elsewhere) and needs some facts of a map, its hypotheses:
bound_refs cites for a map only the rows whose needs the map meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateInputError, DomainError, StructuralError, ValidityError
from .maps import (
    DEFAULT_TUPLE_BUDGET,
    HomogeneousPolynomial,
    MultilinearMap,
    WitnessBody,
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


@dataclass(frozen=True, eq=False, slots=True)
class Provenance:
    """How a quotient sample was produced.

    ``conservative`` is True when any weak norm in the denominator came
    from search (a lower bound), in which case the quotient may
    overestimate; :func:`exact_cap_violations` therefore lets only
    non-conservative samples fail a cap.  It and :class:`QuotientSample`
    are slotted because a trace keeps one of each per evaluated quotient.
    """

    strategy: str
    weak_norm_exact: tuple[bool, ...]
    certificates: tuple[np.ndarray, ...] = ()

    @property
    def conservative(self) -> bool:
        return not all(self.weak_norm_exact)


@dataclass(frozen=True, eq=False, slots=True)
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
        ascent = label + "+ascent"  # one string shared by every trial of this start
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
                    sample = evaluate(trial, ascent)
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


# estimate_index fits a slope only through at least this many distinct n
MIN_DISTINCT_N = 3


def estimate_index(samples) -> IndexEstimate:
    """OLS of log(quotient) on log(n); needs samples at ``MIN_DISTINCT_N`` or more distinct n."""
    samples = list(samples)
    ns = [s.n for s in samples]
    if len(set(ns)) < MIN_DISTINCT_N:
        raise StructuralError(f"regression needs at least {MIN_DISTINCT_N} samples at distinct n")
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
# closed-form bound formulas
# ---------------------------------------------------------------------------


def _check_mpq(m: int, p: float, q: float) -> None:
    if m is None or not (m >= 1 and m % 1 == 0):  # each guard is written so that NaN fails it
        raise DomainError(f"order m must be a positive integer, got {m}")
    if p is None or not (p > 0 and q > 0):
        raise DomainError(f"exponents must be positive, got p = {p}, q = {q}")


def upper_bound_mult(m: int, p: float, q: float) -> float:
    """Universal upper bound on the order-m growth exponent at (p, q).

    Piecewise: m/p for q <= 2; mq/(2p) for q >= 2 and p >= q;
    m(qp - 2p + 2q)/(2qp) for q >= 2 and p < q.  Continuous at p = q
    and at q = 2.
    """
    return BOUNDS["mult_upper"].at(m, p, q, None)[1]()


def mult_upper_branch(m: int, p: float, q: float, which: str) -> float:
    """Raw branch formulas of :func:`upper_bound_mult` (for seam checks)."""
    _check_mpq(m, p, q)
    if which == "low_q":
        return m / p
    if which == "p_ge_q":
        return m * q / p / 2.0  # not / (2.0 * p), which is inf, and the value 0, for p >= 2^1023
    if which == "p_lt_q":
        den = 2.0 * q * p
        value = m * (q * p - 2.0 * p + 2.0 * q) / den if 0.0 < den < math.inf else math.inf
        # where q * p over- or underflows: the same bound as m(1/2 - 1/q + 1/p), which stays finite
        return value if math.isfinite(value) else m * (0.5 - 1.0 / q + 1.0 / p)
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
    value = 1.0 / p + m * (q - 2.0) / (2.0 * q)
    # where m(q - 2) and 2q overflow: the same bound as 1/p + m(1/2 - 1/q), which stays finite
    return value if math.isfinite(value) else 1.0 / p + m * (0.5 - 1.0 / q)


def cotype_seam_points(m: int, q: float, r: float) -> tuple[float, float]:
    """The two breakpoints rq/(mr + q) and 2r/(mr + 2).

    Where a product or sum in them overflows they are q/(m + q/r) and
    2/(m + 2/r), the same points, which stay finite.
    """
    if max(m * r + q, r * q, 2.0 * r, m * r + 2.0) < math.inf:
        return r * q / (m * r + q), 2.0 * r / (m * r + 2.0)
    return q / (m + q / r), 2.0 / (m + 2.0 / r)


def pol_cotype_branch_value(branch: str, m: int, p: float, q: float, r: float) -> float:
    """Raw branch formulas of the cotype lower bound (for seam checks)."""
    if branch in ("a", "c"):
        return m / 2.0
    if branch == "b":
        value = (m * p + 2.0) / (2.0 * p) - (m * r + q) / (r * q)
        # where m r + q or r q overflows: the same value as m/2 + 1/p - m/q - 1/r, which stays finite
        return value if math.isfinite(value) else m / 2.0 + 1.0 / p - m / q - 1.0 / r
    if branch == "d":
        # where p r overflows: the same value as 1/p - 1/r
        return (r - p) / (p * r) if p * r < math.inf else 1.0 / p - 1.0 / r
    raise StructuralError(f"unknown branch {branch!r}")


def _pol_lower_at(m: int, p: float, q: float, r: float | None, labels: tuple[str, ...]):
    """A lower-bound row's (label of p's branch, of ``labels`` for a-d; value function); r = None: the table at r = 1."""
    try:
        p_low, p_high = cotype_seam_points(m, q, 1.0 if r is None else r)
    except ZeroDivisionError:  # only off the domain, which the value function reports
        p_low = p_high = math.nan
    branch = ("c" if p <= p_high else "d") if q >= 2.0 else ("a" if p <= p_low else "b")
    return labels["abcd".index(branch)], partial(_pol_lower, branch, m, p, q, r)


def _pol_lower(branch: str, m: int, p: float, q: float, r: float | None) -> float:
    _check_mpq(m, p, q)
    if r is None:
        if m % 2 != 0:
            raise DomainError(f"even degree required, got m = {m}")
    elif not r >= 2.0:
        raise DomainError(f"cotype parameter must satisfy r >= 2, got {r}")
    elif not p < r:
        raise DomainError(f"requires p < r, got p = {p}, r = {r}")
    if q < 1.0:
        raise ValidityError(f"no claim for q < 1 (q = {q})")
    r_table = 1.0 if r is None else r
    p_high = cotype_seam_points(m, q, r_table)[1]
    if branch == "b" and p > p_high:
        raise ValidityError(f"no claim for q < 2 and p > 2r/(mr+2) = {p_high} (p = {p}, r = {r_table})")
    if branch == "d" and p >= r_table:
        raise ValidityError(f"no claim for q >= 2 and p >= r (p = {p}, r = {r_table})")
    return pol_cotype_branch_value(branch, m, p, q, r_table)


def lower_bound_pol_cotype(m: int, p: float, q: float, r: float) -> float:
    """Lower bound on the polynomial growth exponent into a cotype-r target.

    Branches: (a) q in [1,2], p <= rq/(mr+q): m/2; (b) q in [1,2],
    rq/(mr+q) <= p <= 2r/(mr+2): (mp+2)/(2p) - (mr+q)/(rq); (c) q >= 2,
    p <= 2r/(mr+2): m/2; (d) q >= 2, 2r/(mr+2) < p < r: (r-p)/(pr).
    Adjacent branches agree at the breakpoints.
    """
    return BOUNDS["pol_lower_cotype"].at(m, p, q, float(r))[1]()  # float: r = None would list no row


def lower_bound_pol_real_even(m: int, p: float, q: float) -> float:
    """Lower bound on the scalar-valued even-degree growth exponent.

    The cotype table at r = 1: (a) q in [1,2], p <= q/(m+q): m/2;
    (b) q in [1,2], q/(m+q) <= p <= 2/(m+2): (mp+2)/(2p) - (m+q)/q;
    (c) q >= 2, p <= 2/(m+2): m/2; (d) q >= 2, 2/(m+2) < p < 1: (1-p)/p.
    """
    return BOUNDS["pol_lower_real_even"].at(m, p, q, None)[1]()


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
    spaces into a target of finite cotype r at (p, 2) give 1/p - 1/r
    for 2r/(r+2) < p < r.
    """
    if case_id == "l2_to_c0":
        _check_mpq(m, 2.0, 2.0)
        return ExactIndex(case_id, m / 2.0, None, "holds at (p, q) = (2, 2) for every order m")
    if case_id == "l1_to_l2":
        _check_mpq(m, p, 1.0)
        lo, hi = 2.0 / (2.0 * m + 1.0), 2.0 / (m + 1.0)
        if not (lo <= p < hi):
            raise ValidityError(f"l1_to_l2 is exact only for {lo} <= p < {hi}, got p = {p}")
        return ExactIndex(case_id, 1.0 / p - (m + 1.0) / 2.0, (lo, hi), "q = 1; left end closed, right end open")
    if case_id == "sup_to_cotype":
        if p is None or r is None:
            raise DomainError("sup_to_cotype needs p and the target cotype r")
        if not 2.0 <= r < math.inf:  # written so that NaN fails it
            raise DomainError(f"target cotype must be a finite r >= 2, got {r}")
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
    if not q > 2.0:  # written so that NaN fails it
        raise DomainError(f"requires q > 2, got {q}")
    return 1.0 / q


# ---------------------------------------------------------------------------
# the bound table
# ---------------------------------------------------------------------------


class Bound(NamedTuple):
    """A row of BOUNDS: its entries' kind, the facts it needs, and at(m, p, q, r): None or (branch label, value function)."""

    kind: str
    needs: frozenset
    at: Callable


BOUNDS = {
    "mult_upper": Bound("mult_upper", frozenset(), lambda m, p, q, r: (
        ("q<=2: m/p", partial(mult_upper_branch, m, p, q, "low_q")) if q <= 2.0
        else ("q>=2, p>=q: mq/(2p)", partial(mult_upper_branch, m, p, q, "p_ge_q")) if p >= q
        else ("q>=2, p<q: m(qp-2p+2q)/(2qp)", partial(mult_upper_branch, m, p, q, "p_lt_q")))),
    "pol_upper": Bound("pol_upper", frozenset({"polynomial"}), lambda m, p, q, r: (
        "1/p" if q <= 2 else "1/p + m(q-2)/(2q)", partial(upper_bound_pol, m, p, q))),
    "pol_lower_cotype": Bound("pol_lower_cotype", frozenset({"polynomial", "vector codomain"}), lambda m, p, q, r: (
        None if r is None else _pol_lower_at(m, p, q, r, ("(a) m/2", "(b) (mp+2)/(2p) - (mr+q)/(rq)", "(c) m/2", "(d) (r-p)/(pr)")))),
    "pol_lower_real_even": Bound("pol_lower_real_even", frozenset({"polynomial", "scalar"}), lambda m, p, q, r: (
        _pol_lower_at(m, p, q, None, ("(a) m/2", "(b) (mp+2)/(2p) - (m+q)/q", "(c) m/2", "(d) (1-p)/p")))),
    "l2_to_c0": Bound("exact", frozenset({"multilinear", "l_2 domain", "sup codomain"}), lambda m, p, q, r: (
        ("l2_to_c0: m/2", lambda: exact_index("l2_to_c0", m=m).value) if p == 2.0 and q == 2.0 else None)),
    "l1_to_l2": Bound("exact", frozenset({"polynomial", "l_1 domain", "cotype 2 codomain"}), lambda m, p, q, r: (
        ("l1_to_l2: 1/p - (m+1)/2", lambda: exact_index("l1_to_l2", m=m, p=p).value) if q == 1.0 else None)),
    "sup_to_cotype": Bound("exact", frozenset({"sup domain", "cotype r codomain"}), lambda m, p, q, r: (
        None if q != 2.0 or m != 1 or r is None else ("sup_to_cotype: 1/p - 1/r", lambda: exact_index("sup_to_cotype", p=p, r=r).value))),
}


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


def _entries(m: int, p: float, q: float, r: float | None):
    """(row, entry) for each row of BOUNDS listed at (m, p, q, r), in table order."""
    for row in BOUNDS.values():
        if (listed := row.at(m, p, q, r)) is not None:
            try:
                yield row, BoundEntry(row.kind, m, p, q, r, listed[0], float(listed[1]()), True)
            except (ValidityError, DomainError) as exc:
                yield row, BoundEntry(row.kind, m, p, q, r, listed[0], None, False, str(exc))


def bound_table(m: int, p: float, q: float, r: float | None = None) -> list[BoundEntry]:
    """Every row of BOUNDS listed at (m, p, q[, r]), with validity flags, whatever the map."""
    return [entry for _, entry in _entries(m, p, q, r)]


def bound_refs(map_obj, p: float, q: float) -> list[BoundEntry]:
    """The valid :func:`bound_table` entries at (p, q) of the rows whose needs ``map_obj`` meets.

    m is the map's degree or arity; r is its codomain's cotype, if finite
    and the map is not scalar valued (a witness without targets).  Needs:
    mult_upper none; pol_upper polynomial; pol_lower_cotype polynomial,
    vector codomain; pol_lower_real_even polynomial, scalar; l2_to_c0
    multilinear, l_2 domain (every slot), sup codomain; l1_to_l2 polynomial,
    l_1 domain, cotype 2 codomain; sup_to_cotype sup domain, cotype r codomain.
    """
    poly = isinstance(map_obj, HomogeneousPolynomial)
    scalar = isinstance(map_obj.body, WitnessBody) and map_obj.body.targets is None
    r = None if scalar or map_obj.codomain.is_sup else map_obj.codomain.cotype  # a sup slice's cotype is inf
    slots = {"sup" if s.is_sup else f"l_{s.exponent:g}" for s in ([map_obj.domain] if poly else map_obj.domain)}
    facts = {"polynomial" if poly else "multilinear", "scalar" if scalar else "vector codomain"}
    facts |= {f"{slots.pop()} domain"} if len(slots) == 1 else set()
    facts |= {"sup codomain"} if map_obj.codomain.is_sup else set()
    facts |= set() if r is None else {"cotype r codomain", f"cotype {r:g} codomain"}
    m = map_obj.degree if poly else map_obj.arity
    return [entry for row, entry in _entries(m, p, q, r) if entry.valid and row.needs <= facts]
