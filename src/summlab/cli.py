"""Experiment runner: config ingestion, suite execution, report persistence.

A run builds the maps of every experiment declared in one JSON config,
then runs the experiments serially and writes results.json
(byte-reproducible for a fixed config and seed), bounds.csv, slopes.csv,
and per-experiment plot-data files with two columns log n / log
quotient.  Timestamps and environment info go to a
separate metadata.json so results.json stays comparable across runs.

Exit codes: 0 all declared assertions pass; 1 assertion failure;
2 config/schema violation, misconfigured experiment, or a value beyond
the float range.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import math
import os
import re
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np

from . import __version__
from .errors import SummLabError
from .index_lab import IndexEstimate, bound_table, estimate_index, exact_cap_violations, maximize_quotient
from .maps import DEFAULT_TUPLE_BUDGET, DenseTensor, MultilinearMap, dense_container_to_array, load_dense_container
from .oracles import CAP_CHECK_MAX_D, HILBERT_CHECK_MAX_D, hilbert_identity_check, identity_cap_check, identity_growth_check
from .search import SearchBudget
from .spaces import space_from_json
from .witnesses import cotype_witness, diagonal_product_map, identity_witness, real_even_witness, tensor_witness

_POSITIVE = {"type": "integer", "minimum": 1}
_NUMBER = {"type": "number"}
_ABOVE_0 = {"type": "number", "exclusiveMinimum": 0}
_ABOVE_2 = {"type": "number", "exclusiveMinimum": 2}
_STRING = {"type": "string"}
_SPACE_SCHEMA = {
    "type": "object",
    "required": ["family"],
    "additionalProperties": False,
    "properties": {
        "family": {"enum": ["lp", "sup"]},
        "p": {"anyOf": [{"type": "number"}, {"const": "inf"}]},
        "dim": {"anyOf": [{"type": "integer", "minimum": 1}, {"const": "n"}]},
    },
    "if": {"properties": {"family": {"const": "lp"}}},
    "then": {"required": ["p"]},
}
_L1 = {"family": "lp", "p": 1, "dim": "n"}
_L2 = {"family": "lp", "p": 2, "dim": "n"}
EXPERIMENT_P = "the experiment's p"  # default of witness_p


class MapKind(NamedTuple):
    """One map kind of the config.

    ``keys`` maps each key to (JSON schema, default or None); ``build(args,
    n)`` gets the spec with its defaults filled in and returns (map, anchor
    families or None); ``schema`` constrains several keys at once.
    """

    keys: dict
    build: Callable
    schema: dict = {}


def _space(spec: dict, n: int):
    """The space of a space spec at grid point n; a "dim" of "n" or no "dim" means n."""
    return space_from_json({**spec, "dim": n} if spec.get("dim", "n") == "n" else spec)


def _build_dense(a: dict, n: int):
    """A dense map at grid point n; ``a["body"]`` is the experiment's one decoded ``DenseTensor``."""
    domain = tuple(_space(s, n) for s in a["domain"])
    return MultilinearMap(domain, _space(a["codomain"], n), a["body"]), None


# The builders look the witness constructors up in this module's globals at
# call time, so wrapping ``summlab.cli.<constructor>`` reaches every build.
MAP_KINDS = {
    "tensor": MapKind({"m": (_POSITIVE, 1)}, lambda a, n: (tensor_witness(int(a["m"]), n), None)),
    "identity": MapKind({"space": (_SPACE_SCHEMA, _L2)}, lambda a, n: (identity_witness(_space(a["space"], n)), None)),
    "outer_product": MapKind(
        {"m": (_POSITIVE, 2), "space": (_SPACE_SCHEMA, _L1)},
        lambda a, n: (diagonal_product_map(int(a["m"]), n, _space(a["space"], n)), None),
    ),
    "cotype": MapKind(
        {"m": (_POSITIVE, 2), "witness_p": (_NUMBER, EXPERIMENT_P), "space": (_SPACE_SCHEMA, _L2), "target_r": (_NUMBER, 2.0)},
        lambda a, n: cotype_witness(int(a["m"]), float(a["witness_p"]), _space(a["space"], n), float(a["target_r"]), n),
    ),
    "real_even": MapKind(
        {"m": (_POSITIVE, 2), "witness_p": (_NUMBER, EXPERIMENT_P), "space": (_SPACE_SCHEMA, _L2)},
        lambda a, n: real_even_witness(int(a["m"]), float(a["witness_p"]), _space(a["space"], n), n),
    ),
    "dense": MapKind(
        {
            "container": (_STRING, None),
            "shape": ({"type": "array", "minItems": 1, "items": _POSITIVE}, None),
            "data": ({"type": "array", "items": _NUMBER}, None),
            "data_b64": (_STRING, None),
            "domain": ({"type": "array", "minItems": 1, "items": _SPACE_SCHEMA}, None),
            "codomain": (_SPACE_SCHEMA, None),
        },
        _build_dense,
        {
            "required": ["domain", "codomain"],
            "anyOf": [{"required": ["container"]}, {"required": ["shape", "data"]}, {"required": ["shape", "data_b64"]}],
        },
    ),
}


def _build_map(spec: dict, n: int, p: float):
    """Build the map for one grid point; returns (map, anchor_families_or_None)."""
    kind = MAP_KINDS[spec["kind"]]
    defaults = {k: p if d is EXPERIMENT_P else d for k, (_, d) in kind.keys.items() if d is not None}
    return kind.build({**defaults, **spec}, n)


_MAP_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": list(MAP_KINDS)}},
    "allOf": [
        {
            "if": {"properties": {"kind": {"const": name}}, "required": ["kind"]},
            "then": {
                "properties": {"kind": True, **{key: schema for key, (schema, _) in kind.keys.items()}},
                "additionalProperties": False,
                **kind.schema,
            },
        }
        for name, kind in MAP_KINDS.items()
    ],
}


def _one_or_many(item: dict) -> dict:
    return {"anyOf": [item, {"type": "array", "items": item}]}


def _reads(*keys: str, **ranges: dict) -> dict:
    """Schema for an experiment kind that reads only name, kind, ``keys`` and ``ranges``.

    ``ranges`` narrows a key to the values the kind accepts, so a bad value
    stops the run at ingest instead of inside the experiment.  A key and
    its ``<key>_values`` list spell one parameter, so at most one is given.
    """
    one_spelling = {k: {"not": {"required": [f"{k}_values"]}} for k in ranges if f"{k}_values" in ranges}
    return {"properties": ranges, "propertyNames": {"enum": ["name", "kind", *keys, *ranges]}, "dependentSchemas": one_spelling}


_ORACLE_KEYS = {
    "hilbert_identity": _reads("check", d=_one_or_many({"type": "integer", "minimum": 1, "maximum": HILBERT_CHECK_MAX_D})),
    "identity_cap": _reads(
        "check",
        d=_one_or_many({"type": "integer", "minimum": 1, "maximum": CAP_CHECK_MAX_D}),
        p=_ABOVE_0,
        p_values={"type": "array", "items": _ABOVE_0},
    ),
    "identity_growth": _reads("check", "n_grid", q=_ABOVE_2, q_values={"type": "array", "items": _ABOVE_2}),
}
# every bound table that reads r raises DomainError below 2
_BOUNDS_KEYS = _reads(
    m=_one_or_many(_POSITIVE),
    p=_ABOVE_0,
    p_values={"type": "array", "items": _ABOVE_0},
    q=_ABOVE_0,
    q_values={"type": "array", "items": _ABOVE_0},
    r=_one_or_many({"type": "number", "minimum": 2}),
)

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["experiments"],
    "properties": {
        "seed": {"type": "integer"},
        "experiments": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind"],
                "allOf": [
                    {
                        "if": {"properties": {"kind": {"const": "slope"}}},
                        "then": {
                            "required": ["map", "p", "q", "n_grid"],
                            **_reads("map", "n_grid", "strategies", "random_starts", "sweeps", "assert", p=_ABOVE_0, q=_ABOVE_0),
                        },
                    },
                    {
                        "if": {"properties": {"kind": {"const": "oracle"}}},
                        "then": {"required": ["check"]},
                    },
                    *(
                        {
                            "if": {"properties": {"kind": {"const": "oracle"}, "check": {"const": check}}, "required": ["check"]},
                            "then": keys,
                        }
                        for check, keys in _ORACLE_KEYS.items()
                    ),
                    {"if": {"properties": {"kind": {"const": "bounds"}}}, "then": _BOUNDS_KEYS},
                ],
                "properties": {
                    "name": {"type": "string"},
                    "kind": {"enum": ["slope", "oracle", "bounds"]},
                    "map": _MAP_SCHEMA,
                    "n_grid": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
                    "strategies": {"type": "array", "items": {"enum": ["basis", "anchor", "random"]}},
                    "random_starts": {"type": "integer", "minimum": 0},
                    "sweeps": {"type": "integer", "minimum": 0},
                    "assert": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": dict.fromkeys(("slope", "slope_tol", "residual_max", "cap_exponent", "cap_slack"), _NUMBER),
                    },
                    "check": {"enum": list(_ORACLE_KEYS)},
                },
            },
        },
    },
}

# built once: jsonschema.validate would re-check the schema itself on every run
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def _as_list(value):
    if value is None:
        return []
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _build_grid(exp: dict, root: Path) -> list:
    """(map, anchor families or None) for every grid point of a slope experiment."""
    map_spec = exp["map"]
    p = float(exp["p"])
    try:
        if map_spec["kind"] == "dense":
            # one decode and one coefficient copy per experiment, since the body
            # does not depend on n; a container path is relative to the config file
            coeffs = (
                load_dense_container(root / map_spec["container"])
                if "container" in map_spec
                else dense_container_to_array(map_spec)
            )
            map_spec = {**map_spec, "body": DenseTensor(coeffs)}
        return [_build_map(map_spec, int(n), p) for n in exp["n_grid"]]
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise SummLabError(f"bad map spec {exp['map']!r}: {exc!r}") from exc


def _run_slope_experiment(exp: dict, built: list, seed: int, tuple_budget: int) -> dict:
    p = float(exp["p"])
    q = float(exp["q"])
    n_grid = [int(n) for n in exp["n_grid"]]
    budget = SearchBudget(seed=seed)
    strategies = tuple(exp.get("strategies", ["basis", "anchor", "random"]))
    samples = []
    trace_rows = []
    cap_violation = None
    map_order = None
    checks = exp.get("assert", {})
    cap_exp = checks.get("cap_exponent")
    cap_slack = float(checks.get("cap_slack", 1e-6))
    for n, (map_obj, anchors) in zip(n_grid, built):
        map_order = map_obj.degree if hasattr(map_obj, "degree") else map_obj.arity
        best, trace = maximize_quotient(
            map_obj,
            n,
            p,
            q,
            budget=budget,
            strategies=strategies,
            anchor_families=anchors,
            random_starts=int(exp.get("random_starts", 2)),
            sweeps=int(exp.get("sweeps", 8)),
            tuple_budget=tuple_budget,
            return_trace=True,
        )
        samples.append(best)
        trace_rows.append(len(trace))
        if cap_exp is not None:
            try:
                cap = float(n) ** float(cap_exp) * (1.0 + cap_slack)
            except OverflowError:  # a cap beyond the float range bounds nothing
                cap = math.inf
            over = exact_cap_violations(trace, cap)
            if over:
                cap_violation = {"n": n, "quotient": over[-1].quotient, "cap": cap}
    estimate: IndexEstimate | None = None
    if len(set(n_grid)) >= 3:
        estimate = estimate_index(samples)

    assert_rows = []

    def add_assert(name: str, passed: bool, expected, got) -> None:
        assert_rows.append({"name": name, "passed": bool(passed), "expected": expected, "got": got})

    if "slope" in checks:
        tol = float(checks.get("slope_tol", 1e-9))
        got = estimate.slope if estimate else None
        add_assert("slope", estimate is not None and abs(got - float(checks["slope"])) <= tol, checks["slope"], got)
    if "residual_max" in checks:
        got = estimate.residual if estimate else None
        add_assert("residual", estimate is not None and got <= float(checks["residual_max"]), checks["residual_max"], got)
    if cap_exp is not None:
        add_assert("quotient_cap", cap_violation is None, f"n^{cap_exp}*(1+{cap_slack})", cap_violation)

    bound_refs = [
        {"kind": e.kind, "branch": e.branch, "value": e.value}
        for e in bound_table(int(map_order), p, q)
        if e.valid
    ]
    record = {
        "kind": "slope",
        "name": exp.get("name", "slope"),
        "map": exp["map"],
        "p": p,
        "q": q,
        "bound_refs": bound_refs,
        "samples": [
            {
                "n": s.n,
                "quotient": s.quotient,
                "strategy": s.family_descriptor.strategy,
                "conservative": s.family_descriptor.conservative,
                "certificates": [c.tolist() for c in s.family_descriptor.certificates],
            }
            for s in samples
        ],
        "quotients_evaluated": trace_rows,
        "asserts": assert_rows,
        "passed": all(row["passed"] for row in assert_rows),
    }
    if estimate is not None:
        label = "empirical slope over the sampled grid (not a converged index)"
        record["estimate"] = {"label": label, **dataclasses.asdict(estimate)}
    return record


def _run_oracle_experiment(exp: dict, seed: int) -> dict:
    budget = SearchBudget(seed=seed)
    check = exp["check"]
    reports = []
    if check == "hilbert_identity":
        for d in _as_list(exp.get("d", [1, 2, 4, 9, 16])):
            reports.append(hilbert_identity_check(int(d), budget))
    elif check == "identity_growth":
        for q in _as_list(exp.get("q_values", exp.get("q", [4.0]))):
            reports.append(identity_growth_check(float(q), exp.get("n_grid", [2, 4, 8, 16]), budget))
    elif check == "identity_cap":
        for p in _as_list(exp.get("p_values", exp.get("p", [2.0]))):
            for d in _as_list(exp.get("d", [4])):
                reports.append(identity_cap_check(float(p), int(d), budget))
    else:
        raise SummLabError(f"unknown oracle check {check!r}")
    return {
        "kind": "oracle",
        "name": exp.get("name", check),
        "check": check,
        "reports": [{"name": r.name, "passed": r.passed, "details": r.details} for r in reports],
        "passed": all(r.passed for r in reports),
    }


def _run_bounds_experiment(exp: dict) -> dict:
    rows = []
    for m in _as_list(exp.get("m", 1)):
        for p in _as_list(exp.get("p_values", exp.get("p", 2.0))):
            for q in _as_list(exp.get("q_values", exp.get("q", 2.0))):
                r_list = _as_list(exp.get("r")) or [None]
                for r in r_list:
                    for entry in bound_table(int(m), float(p), float(q), None if r is None else float(r)):
                        rows.append({k: v for k, v in dataclasses.asdict(entry).items() if k != "note"})
    return {"kind": "bounds", "name": exp.get("name", "bounds"), "rows": rows, "passed": True}


def _reject_non_finite(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "experiment"


def run(config_path, output_dir, seed: int | None = None, tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Execute a config serially; returns the process exit code."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_reject_non_finite)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(config))
    if error is not None:
        print(f"config schema violation: {error.message} (at {list(error.absolute_path)})", file=sys.stderr)
        return 2
    if tuple_budget < 1:
        print(f"config error: the tuple budget must be >= 1, got {tuple_budget}", file=sys.stderr)
        return 2
    for i, exp in enumerate(config["experiments"]):
        fitted = {"slope", "residual_max"} & exp.get("assert", {}).keys()
        if exp["kind"] == "slope" and fitted and len(set(exp["n_grid"])) < 3:
            print(f"config error: experiment {i} asserts {sorted(fitted)} on fewer than 3 distinct n", file=sys.stderr)
            return 2

    if seed is None:
        seed = config.get("seed")
    if seed is None:
        env_seed = os.environ.get("SUMMLAB_SEED", "42")
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"config error: SUMMLAB_SEED={env_seed!r} is not an integer", file=sys.stderr)
            return 2

    def execute(exp: dict, built) -> dict:
        kind = exp["kind"]
        if kind == "slope":
            return _run_slope_experiment(exp, built, seed, tuple_budget)
        if kind == "oracle":
            return _run_oracle_experiment(exp, seed)
        return _run_bounds_experiment(exp)

    experiments = config["experiments"]
    out = Path(output_dir)
    try:
        # every map is built first: a spec that only its constructor rejects stops the run before any output
        grids = [_build_grid(exp, Path(config_path).parent) if exp["kind"] == "slope" else None for exp in experiments]
        out.mkdir(parents=True, exist_ok=True)
        (out / "plotdata").mkdir(exist_ok=True)
        records = [execute(exp, built) for exp, built in zip(experiments, grids)]
    except SummLabError as exc:
        print(f"experiment configuration error: {exc}", file=sys.stderr)
        return 2

    results = {"seed": seed, "tuple_budget": tuple_budget, "experiments": records}
    (out / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    metadata = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "summlab": __version__,
        "numpy": np.__version__,
        "config": str(config_path),
    }
    (out / "metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    with open(out / "bounds.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "m", "p", "q", "r", "branch", "value"])
        for record in records:
            if record["kind"] != "bounds":
                continue
            for row in record["rows"]:
                writer.writerow(
                    [
                        row["kind"],
                        row["m"],
                        row["p"],
                        row["q"],
                        "" if row["r"] is None else row["r"],
                        row["branch"],
                        "" if row["value"] is None else repr(row["value"]),
                    ]
                )

    with open(out / "slopes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "p", "q", "slope", "intercept", "residual"])
        for record in records:
            if record["kind"] == "slope" and "estimate" in record:
                est = record["estimate"]
                writer.writerow(
                    [record["name"], record["p"], record["q"], repr(est["slope"]), repr(est["intercept"]), repr(est["residual"])]
                )

    for i, record in enumerate(records):
        if record["kind"] != "slope":
            continue
        lines = [
            f"{math.log(s['n'])!r} {math.log(s['quotient'])!r}"
            for s in record["samples"]
            if s["quotient"] > 0
        ]
        path = out / "plotdata" / f"{i:02d}_{_slug(record['name'])}.dat"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    failures = [r for r in records if not r.get("passed", True)]
    if failures:
        print(f"{len(failures)} experiment(s) failed assertions:", file=sys.stderr)
        for record in failures:
            print(json.dumps({"name": record["name"], "kind": record["kind"]}), file=sys.stderr)
            for row in record.get("asserts", []):
                if not row["passed"]:
                    print(f"  assert {row['name']}: expected {row['expected']}, got {row['got']}", file=sys.stderr)
            for rep in record.get("reports", []):
                if not rep["passed"]:
                    print(f"  check {rep['name']}: {json.dumps(rep['details'], sort_keys=True)}", file=sys.stderr)
        return 1
    return 0


def print_bounds(m: int, p: float, q: float, r: float | None = None) -> None:
    """Print every applicable bound with its branch label and validity."""
    print(f"bounds at m = {m}, p = {p:g}, q = {q:g}" + (f", r = {r:g}" if r is not None else ""))
    for entry in bound_table(m, p, q, r):
        if entry.valid:
            print(f"  {entry.kind:<22} {entry.branch:<36} = {entry.value:.12g}")
        else:
            print(f"  {entry.kind:<22} {entry.branch:<36} n/a (out of range)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="summlab", description="growth-exponent experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a JSON experiment config")
    run_parser.add_argument("--config", required=True, help="path to the experiment config")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None, help="global seed (default 42; SUMMLAB_SEED overrides the default when this flag is absent)")
    run_parser.add_argument("--threads", type=int, default=None, help="accepted and unused: experiments run serially")
    run_parser.add_argument("--tuple-budget", type=int, default=DEFAULT_TUPLE_BUDGET, help="max tuples per mixed power sum")

    bounds_parser = sub.add_parser("bounds", help="print the closed-form bound table at one parameter point")
    bounds_parser.add_argument("--m", type=int, required=True)
    bounds_parser.add_argument("--p", type=float, required=True)
    bounds_parser.add_argument("--q", type=float, required=True)
    bounds_parser.add_argument("--r", type=float, default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, seed=args.seed, tuple_budget=args.tuple_budget)
    print_bounds(args.m, args.p, args.q, args.r)
    return 0


if __name__ == "__main__":
    sys.exit(main())
