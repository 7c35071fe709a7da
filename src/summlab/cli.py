"""Experiment runner: config ingestion, suite execution, report persistence.

A run builds the maps of every experiment declared in one JSON config,
then runs the experiments serially and writes results.json
(byte-reproducible for a fixed config and seed), bounds.csv, slopes.csv,
and per-experiment plot-data files with two columns log n / log
quotient.  Timestamps and environment info go to a
separate metadata.json so results.json stays comparable across runs.

Three tables describe the config language: MAP_KINDS, EXPERIMENT_KINDS
and ORACLE_CHECKS (the checks of an experiment of kind "oracle").  A row
holds each key's schema and default and the kind's runner, and a run
validates its config by walking it through the rows.

Exit codes: 0 all declared assertions pass; 1 assertion failure;
2 config/schema violation, misconfigured experiment, or a value beyond
the float range.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import itertools
import json
import math
import operator
import re
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import SummLabError
from .index_lab import (
    DEFAULT_CAP_SLACK,
    DEFAULT_RANDOM_STARTS,
    DEFAULT_SWEEPS,
    MIN_DISTINCT_N,
    bound_refs,
    bound_table,
    estimate_index,
    exact_cap_violations,
    maximize_quotient,
    power_cap,
)
from .maps import DEFAULT_TUPLE_BUDGET, DenseTensor, MultilinearMap, dense_container_to_array, load_dense_container
from .oracles import CAP_CHECK_MAX_D, HILBERT_CHECK_MAX_D, hilbert_identity_check, identity_cap_check, identity_growth_check
from .search import DEFAULT_BUDGET, SearchBudget
from .spaces import space_from_json
from .witnesses import cotype_witness, diagonal_product_map, identity_witness, real_even_witness, tensor_witness

# JSON Schema's types (Draft 2020-12): true and false are no numbers, and a float such as 2.0 is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer(),
}
# keyword: (a number breaks it, message)
_LIMITS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}


class _Violation(Exception):
    """A config value that breaks its schema: (message, the value's path in the config, whether it has its schema's type)."""


def _check(value, schema: dict, path: list):
    """``value``, at ``path`` in a config, with every integral float its schema types as integer made an int.

    Raises _Violation unless ``value`` is valid under ``schema``, which
    uses the JSON Schema keywords that the tables use, with jsonschema's
    messages, and ``_tagged``'s "tag" and "rows".  An object's keys are
    checked before its values.  Arrays and objects are converted in
    place, so a config echoed into the results reads 2 where it said 2.0.
    """

    def fail(message: str, *at) -> None:
        raise _Violation(message, [*path, *at], "type" in schema)

    if "type" in schema and not _TYPES[schema["type"]](value):
        raise _Violation(f"{value!r} is not of type {schema['type']!r}", path, False)
    if "const" in schema and value != schema["const"]:
        fail(f"{schema['const']!r} was expected")
    for keyword, (breaks, words) in _LIMITS.items():
        if keyword in schema and breaks(value, schema[keyword]):
            fail(f"{value!r} {words} {schema[keyword]!r}")
    if "minItems" in schema and len(value) < schema["minItems"]:
        fail(f"{value!r} " + ("should be non-empty" if schema["minItems"] == 1 else "is too short"))
    for i, item in enumerate(value if "items" in schema else ()):
        value[i] = _check(item, schema["items"], [*path, i])
    extras = sorted(value.keys() - schema["properties"].keys()) if schema.get("additionalProperties") is False else []
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        fail(f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)")
    for key in schema.get("required", ()):
        if key not in value:
            fail(f"{key!r} is a required property")
    if "rows" in schema:
        name, rows = value[schema["tag"]], schema["rows"]
        if not (isinstance(name, str) and name in rows):  # a list or a dict names no row, and has no hash
            fail(f"{name!r} is not one of {list(rows)!r}", schema["tag"])
        value = _check(value, rows[name], path)
    if "anyOf" in schema:
        errors = []
        for branch in schema["anyOf"]:
            try:
                value = _check(value, branch, path)
                break
            except _Violation as exc:
                errors.append(exc)
        else:
            # as jsonschema's best_match: the deepest error, then one whose value has its schema's type;
            # a tie names no branch
            ranks = [(-len(exc.args[1]), not exc.args[2]) for exc in errors]
            if ranks.count(min(ranks)) > 1:
                fail(f"{value!r} is not valid under any of the given schemas")
            raise errors[ranks.index(min(ranks))]
    for key, item in schema.get("properties", {}).items():
        if key in value:
            value[key] = _check(value[key], item, [*path, key])
    return int(value) if schema.get("type") == "integer" else value


def _tagged(rows: dict, tag: str = "kind", *outer: str) -> dict:
    """Schema of an object whose ``tag`` names a row of ``rows``: a Kind, or the schema of the objects it names.

    An object that names a Kind holds ``tag``, ``outer`` and the row's keys only.
    """

    def closed(kind: Kind) -> dict:
        keys = dict.fromkeys((tag, *outer), {}) | {key: schema for key, (schema, _) in kind.keys.items()}
        return {"properties": keys, "additionalProperties": False, **kind.schema}

    rows = {name: row if isinstance(row, dict) else closed(row) for name, row in rows.items()}
    return {"type": "object", "required": [tag], "tag": tag, "rows": rows}


_POSITIVE = {"type": "integer", "minimum": 1}
_NUMBER = {"type": "number"}
_ABOVE_0 = {"type": "number", "exclusiveMinimum": 0}
_ABOVE_2 = {"type": "number", "exclusiveMinimum": 2}
_STRING = {"type": "string"}
_N_GRID = {"type": "array", "minItems": 1, "items": _POSITIVE}
_SPACE = {
    "properties": {
        "family": {},
        "p": {"anyOf": [{"type": "number"}, {"const": "inf"}]},
        "dim": {"anyOf": [{"type": "integer", "minimum": 1}, {"const": "n"}]},
    },
    "additionalProperties": False,
}
# an l_p space needs its p
_SPACE_SCHEMA = _tagged({"lp": {**_SPACE, "required": ["p"]}, "sup": _SPACE}, "family")
_L1 = {"family": "lp", "p": 1, "dim": "n"}
_L2 = {"family": "lp", "p": 2, "dim": "n"}


class Kind(NamedTuple):
    """One row of a config table: a map kind, an experiment kind or an oracle check.

    ``keys`` maps each key to (JSON schema, default or None); ``schema``
    constrains several keys at once.  ``run`` gets the spec that
    ``_filled`` completes: a map kind's ``run(args, n)``, whose ``args``
    also hold the experiment's ``p``, returns (map, anchor family or
    None), and an experiment kind's or an oracle check's ``run(exp, grid,
    budget, tuple_budget)`` returns its record.
    """

    keys: dict
    run: Callable
    schema: dict = {}


def _one_or_many(item: dict) -> dict:
    return {"anyOf": [item, {"type": "array", "items": item}]}


def _many(value) -> list:
    """A value that may be one or a list, as a list."""
    return value if isinstance(value, list) else [value]


# one parameter, two spellings: one value under "p", or a list under "p_values", never both
_SPELLINGS = {"p_values": "p", "q_values": "q"}


def _filled(keys: dict, spec: dict) -> dict:
    """``spec`` with each key of ``keys`` that it lacks at its default.

    A key without a default is None.  A list spelt ``p_values`` or
    ``q_values`` is the value of ``p`` or ``q``.
    """
    filled = {key: default for key, (_, default) in keys.items()} | spec
    return filled | {_SPELLINGS[key]: value for key, value in spec.items() if key in _SPELLINGS}


def _space(spec: dict, n: int):
    """The space of a space spec at grid point n; a "dim" of "n" or no "dim" means n."""
    return space_from_json({**spec, "dim": n} if spec.get("dim", "n") == "n" else spec)


# The rows look the witness constructors and oracle checks up in this module's
# globals at call time, so wrapping ``summlab.cli.<name>`` reaches every call.
MAP_KINDS = {
    "tensor": Kind({"m": (_POSITIVE, 1)}, lambda a, n: (tensor_witness(int(a["m"]), n), None)),
    "identity": Kind({"space": (_SPACE_SCHEMA, _L2)}, lambda a, n: (identity_witness(_space(a["space"], n)), None)),
    "outer_product": Kind(
        {"m": (_POSITIVE, 2), "space": (_SPACE_SCHEMA, _L1)},
        lambda a, n: (diagonal_product_map(int(a["m"]), n, _space(a["space"], n)), None),
    ),
    "cotype": Kind(
        {"m": (_POSITIVE, 2), "space": (_SPACE_SCHEMA, _L2), "target_r": (_NUMBER, 2.0)},
        lambda a, n: cotype_witness(int(a["m"]), a["p"], _space(a["space"], n), float(a["target_r"]), n),
    ),
    "real_even": Kind(
        {"m": (_POSITIVE, 2), "space": (_SPACE_SCHEMA, _L2)},
        lambda a, n: real_even_witness(int(a["m"]), a["p"], _space(a["space"], n), n),
    ),
    "dense": Kind(
        {
            "container": (_STRING, None),
            "shape": ({"type": "array", "minItems": 1, "items": _POSITIVE}, None),
            "data": ({"type": "array", "items": _NUMBER}, None),
            "data_b64": (_STRING, None),
            "domain": ({"type": "array", "minItems": 1, "items": _SPACE_SCHEMA}, None),
            "codomain": (_SPACE_SCHEMA, None),
        },
        # the body is the experiment's one decoded DenseTensor
        lambda a, n: (MultilinearMap(tuple(_space(s, n) for s in a["domain"]), _space(a["codomain"], n), a["body"]), None),
        {
            "required": ["domain", "codomain"],
            "anyOf": [{"required": ["container"]}, {"required": ["shape", "data"]}, {"required": ["shape", "data_b64"]}],
        },
    ),
}


# the keys of a slope experiment's "assert" object, all numbers
ASSERT_KEYS = {
    key: (_NUMBER, default)
    for key, default in {"slope": None, "slope_tol": 1e-9, "residual_max": None, "cap_exponent": None, "cap_slack": DEFAULT_CAP_SLACK}.items()
}


def _build_grid(exp: dict, root: Path) -> list:
    """(map, anchor family or None) for every grid point of an experiment with a map, at its p and n_grid."""
    spec = exp["map"]
    kind = MAP_KINDS[spec["kind"]]
    args = _filled(kind.keys, spec) | {"p": float(exp["p"])}  # a witness is built at the experiment's p
    try:
        if spec["kind"] == "dense":
            # one decode and one coefficient copy per experiment, since the body
            # does not depend on n; a container path is relative to the config file
            coeffs = (
                load_dense_container(root / spec["container"])
                if "container" in spec
                else dense_container_to_array(spec)
            )
            args["body"] = DenseTensor(coeffs)
        return [kind.run(args, int(n)) for n in exp["n_grid"]]
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise SummLabError(f"bad map spec {spec!r}: {exc!r}") from exc


def _run_slope_experiment(exp: dict, grid: list, budget: SearchBudget, tuple_budget: int) -> dict:
    p = float(exp["p"])
    q = float(exp["q"])
    n_grid = [int(n) for n in exp["n_grid"]]
    samples = []
    trace_rows = []
    cap_violation = None
    checks = _filled(ASSERT_KEYS, exp["assert"])
    cap_exp = checks["cap_exponent"]
    cap_slack = float(checks["cap_slack"])
    for n, (map_obj, anchors) in zip(n_grid, grid):
        best, trace = maximize_quotient(
            map_obj,
            n,
            p,
            q,
            budget=budget,
            anchor_families=anchors,
            random_starts=int(exp["random_starts"]),
            sweeps=int(exp["sweeps"]),
            tuple_budget=tuple_budget,
            return_trace=True,
        )
        samples.append(best)
        trace_rows.append(len(trace))
        if cap_exp is not None:
            cap = power_cap(n, cap_exp, cap_slack)
            over = exact_cap_violations(trace, cap)
            if over:
                cap_violation = {"n": n, "quotient": over[-1].quotient, "cap": cap}
    estimate = estimate_index(samples) if len(set(n_grid)) >= MIN_DISTINCT_N else None

    assert_rows = []

    def add_assert(name: str, passed: bool, expected, got) -> None:
        assert_rows.append({"name": name, "passed": bool(passed), "expected": expected, "got": got})

    if checks["slope"] is not None:
        tol = float(checks["slope_tol"])
        got = estimate.slope if estimate else None
        add_assert("slope", estimate is not None and abs(got - float(checks["slope"])) <= tol, checks["slope"], got)
    if checks["residual_max"] is not None:
        got = estimate.residual if estimate else None
        add_assert("residual", estimate is not None and got <= float(checks["residual_max"]), checks["residual_max"], got)
    if cap_exp is not None:
        add_assert("quotient_cap", cap_violation is None, f"n^{cap_exp}*(1+{cap_slack})", cap_violation)

    record = {
        "kind": "slope",
        "name": exp["name"],
        "map": exp["map"],
        "p": p,
        "q": q,
        # the bounds whose hypotheses the map meets; every grid point's map has the same facts
        "bound_refs": [{"kind": e.kind, "branch": e.branch, "value": e.value} for e in bound_refs(map_obj, p, q)],
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


def _run_bounds_experiment(exp: dict, *_) -> dict:
    rows = []
    for m, p, q, r in itertools.product(*(_many(exp[key]) for key in "mpqr")):
        for entry in bound_table(int(m), float(p), float(q), None if r is None else float(r)):
            rows.append({k: v for k, v in dataclasses.asdict(entry).items() if k != "note"})
    return {"kind": "bounds", "name": exp["name"], "rows": rows, "passed": True}


def _oracle(check: Callable) -> Callable:
    """The runner of an oracle experiment whose reports are ``check(exp, budget)``."""

    def run(exp: dict, grid, budget: SearchBudget, tuple_budget: int) -> dict:
        reports = check(exp, budget)
        return {
            "kind": "oracle",
            "name": exp["name"],
            "check": exp["check"],
            "reports": [{"name": r.name, "passed": r.passed, "details": r.details} for r in reports],
            "passed": all(r.passed for r in reports),
        }

    return run


EXPERIMENT_KINDS = {
    "slope": Kind(
        {
            "name": (_STRING, "slope"),
            "map": (_tagged(MAP_KINDS), None),
            "p": (_ABOVE_0, None),
            "q": (_ABOVE_0, None),
            "n_grid": (_N_GRID, None),
            "random_starts": ({"type": "integer", "minimum": 0}, DEFAULT_RANDOM_STARTS),
            "sweeps": ({"type": "integer", "minimum": 0}, DEFAULT_SWEEPS),
            "assert": (
                {"type": "object", "additionalProperties": False, "properties": {k: s for k, (s, _) in ASSERT_KEYS.items()}},
                {},
            ),
        },
        _run_slope_experiment,
        {"required": ["map", "p", "q", "n_grid"]},
    ),
    "bounds": Kind(
        {
            "name": (_STRING, "bounds"),
            "m": (_one_or_many(_POSITIVE), 1),
            "p": (_ABOVE_0, 2.0),
            "p_values": ({"type": "array", "items": _ABOVE_0}, None),
            "q": (_ABOVE_0, 2.0),
            "q_values": ({"type": "array", "items": _ABOVE_0}, None),
            # every bound table that reads r raises DomainError below 2
            "r": (_one_or_many({"type": "number", "minimum": 2}), None),
        },
        _run_bounds_experiment,
    ),
}
# the checks of an experiment of kind "oracle", by its "check" key
ORACLE_CHECKS = {
    "hilbert_identity": Kind(
        {
            "name": (_STRING, "hilbert_identity"),
            "d": (_one_or_many({"type": "integer", "minimum": 1, "maximum": HILBERT_CHECK_MAX_D}), [1, 2, 4, 9, 16]),
        },
        _oracle(lambda c, budget: [hilbert_identity_check(int(d), budget) for d in _many(c["d"])]),
    ),
    "identity_growth": Kind(
        {
            "name": (_STRING, "identity_growth"),
            "q": (_ABOVE_2, 4.0),
            "q_values": ({"type": "array", "items": _ABOVE_2}, None),
            "n_grid": (_N_GRID, [2, 4, 8, 16]),
        },
        _oracle(lambda c, budget: [identity_growth_check(float(q), c["n_grid"], budget) for q in _many(c["q"])]),
    ),
    "identity_cap": Kind(
        {
            "name": (_STRING, "identity_cap"),
            "p": (_ABOVE_0, 2.0),
            "p_values": ({"type": "array", "items": _ABOVE_0}, None),
            "d": (_one_or_many({"type": "integer", "minimum": 1, "maximum": CAP_CHECK_MAX_D}), [4]),
        },
        _oracle(lambda c, budget: [identity_cap_check(float(p), int(d), budget) for p in _many(c["p"]) for d in _many(c["d"])]),
    ),
}

# an experiment of kind "oracle" names its check
_EXPERIMENT = _tagged({**EXPERIMENT_KINDS, "oracle": _tagged(ORACLE_CHECKS, "check", "kind")})
_CONFIG = {
    "type": "object",
    "required": ["experiments"],
    "properties": {"seed": {"type": "integer"}, "experiments": {"type": "array", "items": _EXPERIMENT}},
}


def _kind_of(exp: dict) -> Kind:
    """The row of a valid experiment: its check's if it is an oracle experiment, else its kind's."""
    return ORACLE_CHECKS[exp["check"]] if exp["kind"] == "oracle" else EXPERIMENT_KINDS[exp["kind"]]


def _number(kind: type, test: Callable = lambda x: True) -> Callable[[str], float]:
    """A parser of ``kind`` literals that raises ValueError unless the value is a finite double that passes ``test``."""

    def parse(text: str):
        value = kind(text)
        if not (abs(value) <= sys.float_info.max and test(value)):  # False for NaN, inf and ints beyond the float range
            raise ValueError(f"number {text} is not allowed")
        return value

    parse.__name__ = kind.__name__  # argparse names the type when it refuses an argument
    return parse


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "experiment"


def run(config_path, output_dir, seed: int | None = None, tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Execute a config serially; returns the process exit code."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_number(float), parse_float=_number(float), parse_int=_number(int))
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _check(config, _CONFIG, [])
        for i, exp in enumerate(config["experiments"]):
            for many, one in _SPELLINGS.items():
                if one in exp and many in exp:
                    raise _Violation(f"{one!r} and {many!r} are both given", ["experiments", i], False)
    except _Violation as exc:
        print(f"config schema violation: {exc.args[0]} (at {exc.args[1]})", file=sys.stderr)
        return 2
    if tuple_budget < 1:
        print(f"config error: the tuple budget must be >= 1, got {tuple_budget}", file=sys.stderr)
        return 2
    experiments = [_filled(_kind_of(exp).keys, exp) for exp in config["experiments"]]
    for i, exp in enumerate(experiments):
        fitted = "assert" in exp and {"slope", "residual_max"} & exp["assert"].keys()
        if fitted and len(set(exp["n_grid"])) < MIN_DISTINCT_N:
            print(f"config error: experiment {i} asserts {sorted(fitted)} on fewer than {MIN_DISTINCT_N} distinct n", file=sys.stderr)
            return 2

    if seed is None:
        seed = config.get("seed", DEFAULT_BUDGET.seed)

    out = Path(output_dir)
    try:
        # every map is built first: a spec that only its constructor rejects stops the run before any output
        grids = [_build_grid(exp, Path(config_path).parent) if "map" in exp else None for exp in experiments]
        out.mkdir(parents=True, exist_ok=True)
        (out / "plotdata").mkdir(exist_ok=True)
        records = [
            _kind_of(exp).run(exp, grid, SearchBudget(seed=seed), tuple_budget) for exp, grid in zip(experiments, grids)
        ]
    except SummLabError as exc:
        print(f"experiment configuration error: {exc}", file=sys.stderr)
        return 2

    results = {"seed": seed, "tuple_budget": tuple_budget, "experiments": records}
    metadata = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "summlab": __version__,
        "numpy": np.__version__,
        "config": str(config_path),
    }
    try:  # NaN and Infinity are not JSON: refuse them rather than write a file no JSON parser accepts
        texts = {
            name: json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
            for name, document in (("results.json", results), ("metadata.json", metadata))
        }
    except ValueError as exc:
        print(f"result error: a non-finite number cannot be written as JSON ({exc})", file=sys.stderr)
        return 2
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")

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


def print_bounds(m: int, p: float, q: float, r: float | None = None) -> list:
    """Print every applicable bound with its branch label and validity; returns the bound table."""
    print(f"bounds at m = {m}, p = {p:g}, q = {q:g}" + (f", r = {r:g}" if r is not None else ""))
    table = bound_table(m, p, q, r)
    for entry in table:
        if entry.valid:
            print(f"  {entry.kind:<22} {entry.branch:<36} = {entry.value:.12g}")
        else:
            print(f"  {entry.kind:<22} {entry.branch:<36} n/a (out of range)")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="summlab", description="growth-exponent experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a JSON experiment config")
    run_parser.add_argument("--config", required=True, help="path to the experiment config")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None, help=f"global seed (default: the config's seed, else {DEFAULT_BUDGET.seed})")
    run_parser.add_argument("--threads", type=int, default=None, help="accepted and unused: experiments run serially")
    run_parser.add_argument("--tuple-budget", type=int, default=DEFAULT_TUPLE_BUDGET, help="max tuples per mixed power sum")

    bounds_parser = sub.add_parser("bounds", help="print the closed-form bound table at one parameter point")
    # the ranges of a bounds experiment; argparse exits 2 on any other value
    bounds_parser.add_argument("--m", type=_number(int, lambda m: m >= 1), required=True)
    bounds_parser.add_argument("--p", type=_number(float, lambda p: p > 0), required=True)
    bounds_parser.add_argument("--q", type=_number(float, lambda q: q > 0), required=True)
    bounds_parser.add_argument("--r", type=_number(float, lambda r: r >= 2), default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, seed=args.seed, tuple_budget=args.tuple_budget)
    table = print_bounds(args.m, args.p, args.q, args.r)
    # as in a bounds experiment, whose results.json cannot hold a bound beyond the float range
    overflowed = [f"{e.kind} ({e.branch})" for e in table if e.valid and not math.isfinite(e.value)]
    if overflowed:
        print(f"result error: bounds beyond the float range: {', '.join(overflowed)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
