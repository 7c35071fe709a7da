"""The benchmark workloads: inputs built from a seed, operations, checks.

Each workload is a list of operations run in a closed loop (one caller,
each operation starting when the previous one ends).  An operation is a
call into summlab's public API; its output is checked outside the timed
section against a reference computed here.  Every pass over the
operations gets its own seed, derived from the run's seed: the searches
of ``family-search`` and ``cli-configs`` then sample fresh random
families on each pass instead of replaying the first one.  This matters
because of the stale weak-norm cache in ``maximize_quotient`` (ROADMAP
defect D1): how much work a pass does depends on which freed ids get
reused, so one pass is a single draw from a wide distribution.

summlab is always called with ``threads=1`` and always looked up
through its module at call time, so the traced run's wrappers see every
call.

Importing this module imports summlab; the time that takes is part of
the workload's set-up time.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from summlab import cli, index_lab
from summlab.maps import DenseTensor, MultilinearMap
from summlab.search import SearchBudget
from summlab.spaces import lp, sup_slice
from summlab.weak_norms import VectorFamily
from summlab.witnesses import diagonal_product_map, identity_witness, tensor_witness

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

GRID_PQ = (1.0, 1.5, 2.0, 3.0, 4.0)
CAP_SLACK = 1e-6
REL_TOL = 1e-12
RANDOM_FAMILIES = 3  # seeded random families per power-sum point, besides the basis family


@dataclass
class Op:
    """One call into summlab and the check of its output.

    ``check`` returns None when the output is correct, else a message.
    ``quotients`` returns (uncertified, evaluated) quotient counts.
    """

    label: str
    run: Callable[[int], Any]  # called with the pass seed
    check: Callable[[Any], str | None]
    quotients: Callable[[Any], tuple[int, int]]


@dataclass
class Workload:
    ops: list[Op]
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Build the named workload's inputs from ``seed``."""
    try:
        make = WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from None
    return make(seed, workdir)


# ---------------------------------------------------------------------------
# family-search: maximize_quotient on the acceptance-criterion-3 grid and
# the l_1.5 probe
# ---------------------------------------------------------------------------


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run started with ``seed``."""
    return seed * 10**9 + index


def _maximize(t, n, p, q, random_starts, sweeps, seed):
    budget = SearchBudget(seed=seed)
    return index_lab.maximize_quotient(
        t, n, p, q, budget=budget, random_starts=random_starts, sweeps=sweeps, threads=1, return_trace=True
    )


def _check_caps(m: int, n: int, p: float, q: float, output) -> str | None:
    # Every map on the grid has operator norm exactly 1: the identities,
    # and the outer-product maps, where ||x (x) y||_inf = ||x||_inf ||y||_inf
    # <= ||x|| ||y|| with equality on basis tuples.
    cap = n ** index_lab.upper_bound_mult(m, p, q) * (1.0 + CAP_SLACK)
    _, trace = output
    worst = max((s.quotient for s in trace if not s.family_descriptor.conservative), default=0.0)
    if worst > cap:
        return f"exact-path quotient {worst!r} above the cap {cap!r}"
    return None


def _check_probe(n: int, output) -> str | None:
    # The basis family attains sqrt(n) for the identity on l_1.5^n at (2, 3).
    best, _ = output
    floor = math.sqrt(n) * (1.0 - REL_TOL)
    if best.quotient < floor:
        return f"best quotient {best.quotient!r} below sqrt(n) = {math.sqrt(n)!r}"
    return None


def _trace_quotients(output) -> tuple[int, int]:
    _, trace = output
    return sum(s.family_descriptor.conservative for s in trace), len(trace)


def family_search(seed: int, workdir: Path) -> Workload:
    ops = []
    for n in (2, 4, 8):
        instances = [
            (f"identity l1^{n}", identity_witness(lp(1, n)), 1),
            (f"identity l2^{n}", identity_witness(lp(2, n)), 1),
            (f"identity sup^{n}", identity_witness(sup_slice(n)), 1),
            (f"tensor m=2 n={n}", tensor_witness(2, n), 2),
            (f"outer product m=2 on l1^{n}", diagonal_product_map(2, n, lp(1, n)), 2),
        ]
        for label, t, m in instances:
            for p, q in itertools.product(GRID_PQ, GRID_PQ):
                ops.append(
                    Op(
                        f"{label} (p, q) = ({p:g}, {q:g})",
                        partial(_maximize, t, n, p, q, 2, 6),
                        partial(_check_caps, m, n, p, q),
                        _trace_quotients,
                    )
                )
    for n in (16, 32, 64):
        t = identity_witness(lp(1.5, n))
        ops.append(
            Op(
                f"identity l1.5^{n} (p, q) = (2, 3)",
                partial(_maximize, t, n, 2.0, 3.0, 2, 8),
                partial(_check_probe, n),
                _trace_quotients,
            )
        )
    return Workload(ops)


# ---------------------------------------------------------------------------
# power-sum: summing_quotient on fixed seeded families, estimate_index
# ---------------------------------------------------------------------------


def _outer_product_reference(families, p: float) -> float:
    # ||x_1 (x) ... (x) x_m||_inf = prod_i ||x_i||_inf, so the sum over all
    # tuples factorises into a product of per-slot sums.
    total = 1.0
    for fam in families:
        total *= float((np.abs(fam.matrix).max(axis=1) ** p).sum())
    return total ** (1.0 / p)


def _dense_m2_l2_reference(coefficients: np.ndarray, families, p: float) -> float:
    # T(x_j, y_k)_o = sum_ab x_ja y_kb A_abo, with the l_2 norm on the output.
    x, y = (fam.matrix for fam in families)
    d1, d2, d_out = coefficients.shape
    partial_xa = (x @ coefficients.reshape(d1, d2 * d_out)).reshape(-1, d2, d_out)
    outputs = np.matmul(y[None, :, :], partial_xa)  # (j, k, o)
    norms = np.sqrt((outputs**2).sum(axis=-1))
    return float((norms**p).sum()) ** (1.0 / p)


def _weak_value(family: VectorFamily, q: float, phi: np.ndarray) -> float:
    return float((np.abs(family.matrix @ phi) ** q).sum() ** (1.0 / q))


def _power_sum_of(sample, families, q: float) -> float:
    # numerator = quotient * product of the weak q-sums at the certificates
    denom = 1.0
    for fam, phi in zip(families, sample.family_descriptor.certificates):
        denom *= _weak_value(fam, q, phi)
    return sample.quotient * denom


def _compare(got: float, want: float, what: str) -> str | None:
    if abs(got - want) > REL_TOL * abs(want):
        return f"{what}: power sum {got!r} differs from the reference {want!r}"
    return None


def _sample_quotients(samples) -> tuple[int, int]:
    return sum(s.family_descriptor.conservative for s in samples), len(samples)


def _quotient_at(t, families, p, q, budget, _pass_seed):
    return [index_lab.summing_quotient(t, families, p, q, budget, threads=1)]


def _check_point(families, q, reference, output) -> str | None:
    return _compare(_power_sum_of(output[0], families, q), reference(), "summing_quotient")


def _basis_grid(points, p, q, budget, _pass_seed):
    samples = [index_lab.summing_quotient(t, fams, p, q, budget, threads=1) for t, fams in points]
    return samples, index_lab.estimate_index(samples)


def _check_basis_grid(points, q, reference, slope, output) -> str | None:
    samples, estimate = output
    for (_, fams), sample in zip(points, samples):
        problem = _compare(_power_sum_of(sample, fams, q), reference(fams), f"basis family at n = {sample.n}")
        if problem:
            return problem
    if abs(estimate.slope - slope) > 1e-9:
        return f"basis-family slope {estimate.slope!r}, expected {slope!r}"
    return None


def _random_families(rng, space, n: int, m: int) -> list[VectorFamily]:
    return [VectorFamily(space, rng.standard_normal((n, space.dimension))) for _ in range(m)]


def power_sum(seed: int, workdir: Path) -> Workload:
    # The families are built once, here: every weak norm takes an exact
    # path and nothing is searched, so the pass seed changes nothing.
    rng = np.random.default_rng(seed)
    budget = SearchBudget(seed=seed)
    ops = []

    def add_points(label, t, n, p, q, family_sets, reference):
        for k, fams in enumerate(family_sets):
            ops.append(
                Op(
                    f"{label} n={n} family {k}",
                    partial(_quotient_at, t, fams, p, q, budget),
                    # references are computed on the first check, outside set-up and timing
                    partial(_check_point, fams, q, cache(partial(reference, fams))),
                    _sample_quotients,
                )
            )

    outer_ref = partial(_outer_product_reference, p=2.0)

    # diagonal outer-product body, m = 3: basis families give slope m/2
    basis_points = []
    for n in (32, 64, 128):
        t = tensor_witness(3, n)
        basis_points.append((t, [VectorFamily.basis(s, n) for s in t.domain]))
        random_sets = [_random_families(rng, lp(2, n), n, 3) for _ in range(RANDOM_FAMILIES)]
        add_points("tensor m=3", t, n, 2.0, 2.0, random_sets, outer_ref)
    ops.insert(
        0,
        Op(
            "tensor m=3 basis families, n in (32, 64, 128), estimate_index",
            partial(_basis_grid, basis_points, 2.0, 2.0, budget),
            partial(_check_basis_grid, basis_points, 2.0, outer_ref, 1.5),
            lambda output: _sample_quotients(output[0]),
        ),
    )

    # seeded dense m = 2 map on l_2^16
    space = lp(2, 16)
    coefficients = rng.standard_normal((16, 16, 8)) / 16.0
    dense = MultilinearMap((space, space), lp(2, 8), DenseTensor(coefficients))
    dense_ref = partial(_dense_m2_l2_reference, coefficients, p=3.0)
    for n in (50, 100, 200):
        sets = [[VectorFamily.basis(space, n)] * 2] + [_random_families(rng, space, n, 2) for _ in range(RANDOM_FAMILIES)]
        add_points("dense m=2 on l2^16", dense, n, 3.0, 2.0, sets, dense_ref)

    # dense outer-product copies: column path (sup) and vertex path (l_1)
    for m, n, dom, p, q in ((3, 12, sup_slice(12), 2.0, 1.5), (2, 16, lp(1, 16), 1.5, 2.0)):
        t = diagonal_product_map(m, n, dom)
        sets = [[VectorFamily.basis(dom, n)] * m] + [_random_families(rng, dom, n, m) for _ in range(RANDOM_FAMILIES)]
        add_points(f"outer product m={m} on {dom!r}", t, n, p, q, sets, partial(_outer_product_reference, p=p))
    return Workload(ops)


# ---------------------------------------------------------------------------
# cli-configs: summlab.cli.main(["run", ...]) on the bundled configs and the
# committed larger config
# ---------------------------------------------------------------------------


def _cli_run(config: Path, out: Path, seed: int):
    argv = ["run", "--config", str(config), "--out", str(out), "--threads", "1", "--seed", str(seed)]
    return cli.main(argv), out


def _check_cli(output) -> str | None:
    code, out = output
    if code != 0:
        return f"exit code {code}"
    try:
        results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return f"results.json unreadable: {exc}"
    for record in results["experiments"]:
        failed = [row["name"] for row in record.get("asserts", []) if not row["passed"]]
        failed += [rep["name"] for rep in record.get("reports", []) if not rep["passed"]]
        if failed or not record["passed"]:
            return f"experiment {record['name']!r} failed {failed}"
    return None


def _cli_quotients(output) -> tuple[int, int]:
    # the reported quotients: one best sample per grid point of each slope experiment
    _, out = output
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    samples = [s for r in results["experiments"] for s in r.get("samples", [])]
    return sum(s["conservative"] for s in samples), len(samples)


def cli_configs(seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    bundled = Path(cli.__file__).resolve().parent / "configs"
    configs = []
    for path in sorted(bundled.glob("*.json")):
        target = workdir / path.name
        shutil.copyfile(path, target)
        configs.append(target)
    # the dense map's container path is resolved against the working
    # directory, so the copy points at the committed container explicitly
    large = json.loads((CONFIG_DIR / "large.json").read_text(encoding="utf-8"))
    for exp in large["experiments"]:
        spec = exp.get("map", {})
        if "container" in spec:
            spec["container"] = str(CONFIG_DIR / spec["container"])
    target = workdir / "large.json"
    target.write_text(json.dumps(large, indent=2), encoding="utf-8")
    configs.append(target)
    ops = [
        Op(f"summlab run {c.name}", partial(_cli_run, c, workdir / f"out-{c.stem}"), _check_cli, _cli_quotients)
        for c in configs
    ]
    return Workload(ops, workdir)


WORKLOADS = {"family-search": family_search, "power-sum": power_sum, "cli-configs": cli_configs}
