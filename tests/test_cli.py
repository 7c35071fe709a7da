"""Config execution, persistence, reproducibility, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import summlab
from summlab.cli import (
    ASSERT_KEYS,
    EXPERIMENT_KINDS,
    MAP_KINDS,
    ORACLE_CHECKS,
    _build_grid,
    main,
    print_bounds,
    run,
)
from summlab.weak_norms import family_q_sum


def _bundled(name):
    return resources.files("summlab") / "configs" / name


def test_bundled_diagonal_growth(tmp_path):
    code = run(_bundled("diagonal_growth.json"), tmp_path / "out", seed=42)
    assert code == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    slopes = {rec["name"]: rec["estimate"]["slope"] for rec in results["experiments"]}
    assert slopes["diagonal-m1"] == pytest.approx(0.5, abs=1e-9)
    assert slopes["diagonal-m2"] == pytest.approx(1.0, abs=1e-9)
    assert slopes["diagonal-m3"] == pytest.approx(1.5, abs=1e-9)
    # two-column plot data in log-log coordinates
    dat = (tmp_path / "out" / "plotdata" / "01_diagonal-m2.dat").read_text().strip().splitlines()
    xs, ys = zip(*(map(float, line.split()) for line in dat))
    np.testing.assert_allclose(ys, np.asarray(xs) * 1.0, atol=1e-12)
    assert (tmp_path / "out" / "slopes.csv").read_text().count("diagonal") == 3


def test_bundled_hilbert_identity(tmp_path):
    code = run(_bundled("hilbert_identity.json"), tmp_path / "out", seed=42)
    assert code == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    reports = results["experiments"][0]["reports"]
    assert {r["details"]["d"] for r in reports} == {1, 2, 4, 9, 16, 25, 32}
    assert all(r["passed"] for r in reports)


def test_bundled_identity_growth(tmp_path):
    code = run(_bundled("identity_growth.json"), tmp_path / "out", seed=42)
    assert code == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    growth = next(r for r in results["experiments"] if r["kind"] == "oracle")
    assert all(rep["passed"] for rep in growth["reports"])
    assert len((tmp_path / "out" / "bounds.csv").read_text().strip().splitlines()) > 10


def test_empty_experiment_list(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"experiments": []}))
    assert run(cfg, tmp_path / "out") == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["experiments"] == []


def test_bit_reproducibility(tmp_path):
    for name in ("a", "b"):
        assert run(_bundled("diagonal_growth.json"), tmp_path / name, seed=7) == 0
    assert (tmp_path / "a" / "results.json").read_bytes() == (tmp_path / "b" / "results.json").read_bytes()
    assert (tmp_path / "a" / "slopes.csv").read_bytes() == (tmp_path / "b" / "slopes.csv").read_bytes()


def test_schema_violation_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiments": [{"kind": "nope"}]}))
    assert run(cfg, tmp_path / "out") == 2
    assert "schema violation" in capsys.readouterr().err

    cfg.write_text("{not json")
    assert run(cfg, tmp_path / "out") == 2
    capsys.readouterr()

    # per-kind required fields are schema-checked, not runtime crashes
    cfg.write_text(json.dumps({"experiments": [{"kind": "slope", "map": {"kind": "tensor"}}]}))
    assert run(cfg, tmp_path / "out") == 2
    assert "schema violation" in capsys.readouterr().err
    cfg.write_text(json.dumps({"experiments": [{"kind": "oracle"}]}))
    assert run(cfg, tmp_path / "out") == 2
    cfg.write_text(json.dumps({"experiments": [{"kind": "slope", "map": {}, "p": 2, "q": 2, "n_grid": []}]}))
    assert run(cfg, tmp_path / "out") == 2


_SLOPE = {"kind": "slope", "p": 2, "q": 2, "n_grid": [2, 4, 8]}
_SPACE_2 = {"family": "lp", "p": 2, "dim": 2}


_CAP = {"kind": "oracle", "check": "identity_cap"}
_GROWTH = {"kind": "oracle", "check": "identity_growth"}
_BOUNDS = {"kind": "bounds", "m": 1, "p": 1, "q": 2, "r": 2}
_VALID = {**_SLOPE, "map": {"kind": "tensor", "m": 1}, "random_starts": 0, "sweeps": 0}


@pytest.mark.parametrize(
    "experiment, message, options",
    [(*case, ()) for case in [
        (
            {**_SLOPE, "map": {"kind": "dense", "shape": [2, 2], "data": [1, 0, 0, 1], "codomain": _SPACE_2}},
            "config schema violation",
        ),
        ({**_SLOPE, "map": {"kind": "tensor", "m": "two"}}, "config schema violation"),
        (
            {**_SLOPE, "map": {"kind": "dense", "container": "no-such-file.json", "domain": [_SPACE_2], "codomain": _SPACE_2}},
            "bad map spec",
        ),
        ({**_SLOPE, "map": {"kind": "tensor", "m": 1}, "n_grid": [2, 4], "assert": {"slope": 0.5}}, "fewer than 3 distinct n"),
        ({**_SLOPE, "p": 0.5, "map": {"kind": "cotype", "m": 2, "targetr": 3}}, "'targetr' was unexpected"),
        ({**_SLOPE, "map": {"kind": "tensor", "m": 2.5}}, "is not of type 'integer'"),
        ({**_SLOPE, "map": {"kind": "tensor", "m": 1}, "assert": {"slope": "x"}}, "is not of type 'number'"),
        ({**_SLOPE, "map": {"kind": "tensor", "m": 1}, "assert": {"cap_exponent": "x"}}, "is not of type 'number'"),
        (
            {**_SLOPE, "map": {"kind": "identity", "space": {"family": "lp", "p": 2, "dimension": 4}}},
            "'dimension' was unexpected",
        ),
        ({**_SLOPE, "map": {"kind": "tensor", "m": 1}, "assert": {"cap_exponent": math.nan}}, "config error"),
        ({**_SLOPE, "p": math.nan, "map": {"kind": "tensor", "m": 1}}, "config error"),
        ({**_SLOPE, "q": math.inf, "map": {"kind": "tensor", "m": 1}}, "config error"),
        # a number literal beyond the float range is refused as NaN and Infinity are
        ({**_BOUNDS, "p": 10**400}, "config error"),
        ({**_BOUNDS, "m": 10**400}, "config error"),
        ({**_VALID, "p": 10**400}, "config error"),
        ({**_VALID, "assert": {"slope": 10**400}}, "config error"),
        ({**_CAP, "p": 10**400}, "config error"),
        # out-of-range parameters are rejected at ingest, not by the experiment that reads them
        ({**_VALID, "p": 0}, "config schema violation"),
        ({**_VALID, "q": -1}, "config schema violation"),
        ({"kind": "oracle", "check": "hilbert_identity", "d": [40]}, "config schema violation"),
        ({"kind": "oracle", "check": "hilbert_identity", "d": 0}, "config schema violation"),
        ({**_CAP, "d": [20]}, "config schema violation"),
        ({**_CAP, "p_values": [0]}, "config schema violation"),
        ({**_CAP, "p": 0}, "config schema violation"),
        ({**_GROWTH, "q_values": [2]}, "config schema violation"),
        ({**_GROWTH, "q": 2}, "config schema violation"),
        ({**_BOUNDS, "m": 0, "p": 0, "q": -3, "r": -1}, "config schema violation"),
        ({**_BOUNDS, "m": [1, 0]}, "config schema violation"),
        ({**_BOUNDS, "p": 0}, "config schema violation"),
        ({**_BOUNDS, "p_values": [1, 0]}, "config schema violation"),
        ({**_BOUNDS, "q": -3}, "config schema violation"),
        ({**_BOUNDS, "q_values": [0]}, "config schema violation"),
        ({**_BOUNDS, "r": 1.5}, "config schema violation"),
        ({**_BOUNDS, "r": [2, -1]}, "config schema violation"),
        # a parameter given both as a value and as a list is ambiguous
        ({**_BOUNDS, "p": 3, "p_values": [1]}, "config schema violation"),
        ({**_CAP, "p": 3, "p_values": [1]}, "config schema violation"),
        ({**_GROWTH, "q": 3, "q_values": [4]}, "config schema violation"),
        # each kind accepts only the keys it reads
        ({**_BOUNDS, "assert": {"slope": 123.0}}, "('assert' was unexpected)"),
        (
            {"kind": "oracle", "check": "hilbert_identity", "assert": {"slope": 1.0}, "random_starts": 2, "p_values": [1]},
            "('assert', 'p_values', 'random_starts' were unexpected)",
        ),
        ({**_VALID, "d": 3, "check": "hilbert_identity", "q_values": [-1], "m": 0}, "('check', 'd', 'm', 'q_values' were unexpected)"),
        # the family search always runs basis, anchor and random families; a witness is built at the experiment's p
        ({**_VALID, "strategies": ["basis"]}, "('strategies' was unexpected)"),
        ({**_VALID, "p": 0.5, "map": {"kind": "cotype", "witness_p": 0.5}}, "('witness_p' was unexpected)"),
        ({**_VALID, "p": 0.5, "map": {"kind": "real_even", "witness_p": 0.5}}, "('witness_p' was unexpected)"),
        # a kind or a check that is not a string names no row
        ({**_VALID, "kind": []}, "[] is not one of ['slope', 'bounds', 'oracle']"),
        ({**_VALID, "kind": {}}, "config schema violation"),
        ({**_VALID, "kind": 3}, "config schema violation"),
        ({**_VALID, "map": {"kind": []}}, "config schema violation"),
        ({"kind": "oracle", "check": []}, "config schema violation"),
        ({"kind": "oracle", "check": 1}, "config schema violation"),
        # true and false are no numbers
        ({**_VALID, "p": True}, "True is not of type 'number'"),
        ({**_VALID, "map": {"kind": "identity", "space": {"family": "lp", "p": 2, "dim": "m"}}}, "config schema violation"),
        ({**_VALID, "map": {"kind": "identity", "space": {"family": "lp", "dim": 2}}}, "'p' is a required property"),
        # the value's JSON type picks the alternative; a value of no listed type gets the first one's complaint
        ({"kind": "bounds", "m": "x"}, "'x' is not of type 'integer'"),
        ({**_VALID, "map": {"kind": "identity", "space": {"family": "lp", "p": "x"}}}, "'inf' was expected"),
        ({**_VALID, "map": {"kind": "identity", "space": {"family": "lp", "p": 2, "dim": "m"}}}, "'n' was expected"),
        # the builder refuses a dense map without coefficients
        (
            {**_SLOPE, "map": {"kind": "dense", "shape": [2, 2], "domain": [_SPACE_2], "codomain": _SPACE_2}},
            "dense container needs 'data' or 'data_b64'",
        ),
    ]] + [
        (_VALID, "config error", ("--tuple-budget", "0")),
        (_VALID, "config error", ("--tuple-budget", "-5")),
    ],
    ids=[
        "dense-without-domain",
        "non-integer-order",
        "missing-container",
        "slope-on-two-n",
        "misspelt-key",
        "fractional-order",
        "non-numeric-slope",
        "non-numeric-cap",
        "unknown-space-key",
        "nan-cap",
        "nan-p",
        "infinity-q",
        "bounds-p-400-digits",
        "bounds-m-400-digits",
        "slope-p-400-digits",
        "assert-slope-400-digits",
        "cap-p-400-digits",
        "slope-p-zero",
        "slope-q-negative",
        "hilbert-d-above-32",
        "hilbert-d-zero",
        "cap-d-above-16",
        "cap-p-values-zero",
        "cap-p-zero",
        "growth-q-values-2",
        "growth-q-2",
        "bounds-all-out-of-range",
        "bounds-m-list-zero",
        "bounds-p-zero",
        "bounds-p-values-zero",
        "bounds-q-negative",
        "bounds-q-values-zero",
        "bounds-r-below-2",
        "bounds-r-list-below-2",
        "bounds-p-and-p-values",
        "cap-p-and-p-values",
        "growth-q-and-q-values",
        "bounds-with-assert",
        "oracle-with-foreign-keys",
        "slope-with-foreign-keys",
        "slope-with-strategies",
        "cotype-with-witness-p",
        "real-even-with-witness-p",
        "kind-list",
        "kind-dict",
        "kind-number",
        "map-kind-list",
        "check-list",
        "check-number",
        "p-true",
        "space-dim-m",
        "lp-space-without-p",
        "bounds-m-string",
        "space-p-string",
        "space-dim-m-message",
        "dense-shape-without-data",
        "tuple-budget-zero",
        "tuple-budget-negative",
    ],
)
def test_malformed_experiment_exit_2(tmp_path, capsys, experiment, message, options):
    # exit 2 from main itself: the error never escapes as a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [experiment]}))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "1", *options]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    # ingest and build errors stop the run before the output directory, or any experiment, exists
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, code",
    [
        ([], 2),
        ({"experiments": {}}, 2),
        ({"seed": 1.5, "experiments": []}, 2),
        # JSON Schema's integers include a float such as 2.0
        ({"experiments": [{**_VALID, "map": {"kind": "tensor", "m": 2.0}}]}, 0),
        ({"experiments": [{"kind": "oracle", "check": "hilbert_identity", "d": [4.0]}]}, 0),
        ({"experiments": [{**_VALID, "map": {"kind": "identity", "space": {"family": "lp", "p": 1, "dim": 4.0}}}]}, 0),
        ({"seed": 2.0, "experiments": []}, 0),
        # unknown keys are refused inside experiments, not at the top level
        ({"experiments": [], "comment": "x"}, 0),
    ],
    ids=["top-level-list", "experiments-object", "seed-1.5", "m-2.0", "d-4.0", "dim-4.0", "seed-2.0", "top-level-extra-key"],
)
def test_config_validation_edges(tmp_path, capsys, config, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    assert ("config schema violation" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize(
    "whole, integral",
    [
        ({"seed": 2, "experiments": []}, {"seed": 2.0, "experiments": []}),
        (
            {"seed": 3, "experiments": [{**_VALID, "map": {"kind": "tensor", "m": 2}}]},
            {"seed": 3, "experiments": [{**_VALID, "map": {"kind": "tensor", "m": 2.0}}]},
        ),
        (
            {"experiments": [{**_VALID, "n_grid": [2, 4], "map": {"kind": "identity", "space": {**_SPACE_2, "dim": 3}}}]},
            {"experiments": [{**_VALID, "n_grid": [2.0, 4.0], "map": {"kind": "identity", "space": {**_SPACE_2, "dim": 3.0}}}]},
        ),
    ],
    ids=["seed", "map-m", "n-grid-and-dim"],
)
def test_integral_floats_are_written_as_integers(tmp_path, whole, integral):
    # a value the schema types as integer is written back as one, so 2.0 and 2 give the same bytes
    outputs = []
    for name, config in (("whole", whole), ("integral", integral)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name), "--threads", "1"]) == 0
        outputs.append((tmp_path / name / "results.json").read_bytes())
    assert outputs[0] == outputs[1]


_QUIET ={"random_starts": 0, "sweeps": 0}
# configs at the edge of the float range: each exits 0 or 2, never through a traceback
_DENSE_HUGE = {"kind": "dense", "shape": [2, 2], "data": [1.7e308] * 4, "domain": [_SPACE_2], "codomain": _SPACE_2}
_FLOAT_EDGE = {
    "cap-tiny-p": {**_CAP, "p": 1e-300, "d": [4]},
    # the contraction overflows
    "dense-overflow": {**_SLOPE, **_QUIET, "map": _DENSE_HUGE, "n_grid": [2]},
    # the power sum is finite: it tends to the largest norm as p grows
    "identity-huge-p": {**_SLOPE, "map": {"kind": "identity"}, "p": 1e300, "n_grid": [2], "random_starts": 2, "sweeps": 8},
    # the weak norms tend to the largest member norm as q grows
    "identity-huge-q": {**_SLOPE, "map": {"kind": "identity"}, "q": 1e300, "n_grid": [2], "random_starts": 1, "sweeps": 0},
    "cap-huge-p": {**_CAP, "p": 1e300, "d": [4]},
}


def _run_warnings_as_errors(tmp_path, experiment: dict) -> subprocess.CompletedProcess:
    # a separate process, so a traceback on the way out would show on stderr; as in the
    # suite, a RuntimeWarning in the numerics is an error there
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [experiment]}))
    env = {**os.environ, "PYTHONPATH": str(Path(summlab.__file__).parents[1])}
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "summlab.cli", "run", "--config", str(cfg)]
    argv += ["--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    return proc


@pytest.mark.parametrize(
    "experiment, message",
    [
        ({**_SLOPE, **_QUIET, "map": {"kind": "tensor", "m": 2}, "p": 0.002, "n_grid": [8]}, "largest double"),
        ({**_SLOPE, **_QUIET, "map": {"kind": "real_even", "m": 2}, "p": 0.001, "n_grid": [8]}, "largest double"),
        ({**_SLOPE, **_QUIET, "map": {"kind": "cotype", "m": 2}, "p": 0.001, "n_grid": [8]}, "largest double"),
        ({**_SLOPE, **_QUIET, "map": {"kind": "identity"}, "q": 0.001, "n_grid": [8]}, "largest double"),
        (_FLOAT_EDGE["cap-tiny-p"], "largest double"),
        (_FLOAT_EDGE["dense-overflow"], "largest double"),
    ],
    ids=["tensor-root", "real-even-root", "cotype-root", "identity-weak-norm", "cap-tiny-p", "dense-overflow"],
)
def test_value_beyond_the_float_range_exits_2(tmp_path, experiment, message):
    proc = _run_warnings_as_errors(tmp_path, experiment)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("name", ["identity-huge-q", "cap-huge-p"])
def test_weak_norm_at_a_huge_q_exits_0(tmp_path, name):
    # at q = 1e300 every weak norm, searched or exact, is finite: the largest member norm to rounding
    proc = _run_warnings_as_errors(tmp_path, _FLOAT_EDGE[name])
    assert proc.returncode == 0, proc.stderr
    (record,) = json.loads((tmp_path / "out" / "results.json").read_text())["experiments"]
    if name == "identity-huge-q":
        # the identity on l_2^2: the basis family's quotient 2^(1/2) / 1 is the best
        (sample,) = record["samples"]
        assert (sample["strategy"], sample["quotient"]) == ("basis", math.sqrt(2.0))
    else:
        (report,) = record["reports"]
        assert report["passed"]
        assert report["details"]["cap"] == 2.000002
        assert (report["details"]["exact_path_quotients"], report["details"]["quotients_seen"]) == (67, 134)


def test_power_sum_at_a_huge_p_exits_0(tmp_path):
    proc = _run_warnings_as_errors(tmp_path, _FLOAT_EDGE["identity-huge-p"])
    assert proc.returncode == 0, proc.stderr


def test_tuple_budget_flag_is_the_only_budget(tmp_path, capsys):
    # 101^4 tuples: over the default budget, within the flag's
    cfg = tmp_path / "cfg.json"
    experiment = {**_SLOPE, **_QUIET, "map": {"kind": "tensor", "m": 4}, "n_grid": [101]}
    cfg.write_text(json.dumps({"experiments": [experiment]}))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main([*argv, "--tuple-budget", "200000000"]) == 0
    assert main(argv) == 2
    assert "101^4 tuples exceed the budget of 100000000" in capsys.readouterr().err
    # an n^m beyond the float range is over the budget, not an OverflowError
    cfg.write_text(json.dumps({"experiments": [{**experiment, "map": {"kind": "tensor", "m": 400}, "n_grid": [8]}]}))
    assert main(argv) == 2
    assert "8^400 tuples exceed the budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_map",
    [
        {"kind": "cotype", "target_r": 2},  # at the experiment's p = 2
        {"kind": "real_even", "m": 3},
        {"kind": "dense", "container": "no-such-file.json", "domain": [_SPACE_2], "codomain": _SPACE_2},
    ],
    ids=["cotype-p-at-least-r", "odd-real-even", "missing-container"],
)
def test_every_map_is_built_before_any_experiment_runs(tmp_path, capsys, monkeypatch, bad_map):
    import summlab.cli as cli

    runs = []
    original = cli.maximize_quotient
    monkeypatch.setattr(cli, "maximize_quotient", lambda *a, **k: runs.append(a[1]) or original(*a, **k))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [_VALID, {**_SLOPE, "map": bad_map}]}))
    assert run(cfg, tmp_path / "out") == 2
    assert "experiment configuration error" in capsys.readouterr().err
    # the valid first experiment never ran and no output exists (both did when maps were built lazily)
    assert runs == [] and not (tmp_path / "out").exists()


def test_assertion_failure_exit_1(tmp_path, capsys):
    cfg = tmp_path / "fail.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 42,
                "experiments": [
                    {
                        "name": "wrong-slope",
                        "kind": "slope",
                        "map": {"kind": "tensor", "m": 1},
                        "p": 2,
                        "q": 2,
                        "n_grid": [2, 4, 8],
                        "assert": {"slope": 0.75, "slope_tol": 1e-9},
                    }
                ],
            }
        )
    )
    assert run(cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "wrong-slope" in err and "assert slope" in err


def test_misconfigured_map_exit_2(tmp_path, capsys):
    cfg = tmp_path / "badmap.json"
    cfg.write_text(
        json.dumps(
            {
                "experiments": [
                    {"kind": "slope", "map": {"kind": "mystery"}, "p": 2, "q": 2, "n_grid": [2, 4, 8]}
                ]
            }
        )
    )
    assert run(cfg, tmp_path / "out") == 2
    assert "'mystery' is not one of" in capsys.readouterr().err


def test_all_map_kinds_execute(tmp_path):
    from summlab.maps import array_to_dense_container
    import numpy as np

    eye = np.eye(4).reshape(2, 2, 4)  # outer-product coordinates on a 2-dim domain
    cfg = tmp_path / "kinds.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 3,
                "experiments": [
                    {
                        "name": "identity-l1",
                        "kind": "slope",
                        "map": {"kind": "identity", "space": {"family": "lp", "p": 1, "dim": "n"}},
                        "p": 2, "q": 2, "n_grid": [2, 4, 8],
                        "random_starts": 1, "sweeps": 2,
                    },
                    {
                        "name": "outer-l1",
                        "kind": "slope",
                        "map": {"kind": "outer_product", "m": 2},
                        "p": 2, "q": 2, "n_grid": [2, 3, 4],
                        "random_starts": 1, "sweeps": 2,
                    },
                    {
                        "name": "cotype-wit",
                        "kind": "slope",
                        "map": {"kind": "cotype", "m": 2, "target_r": 2},
                        "p": 0.5, "q": 1, "n_grid": [2, 3, 4],
                        "random_starts": 0, "sweeps": 0,
                    },
                    {
                        "name": "real-even-wit",
                        "kind": "slope",
                        "map": {"kind": "real_even", "m": 2},
                        "p": 0.4, "q": 2, "n_grid": [2, 3, 4],
                        "random_starts": 0, "sweeps": 0,
                    },
                    {
                        "name": "dense-inline",
                        "kind": "slope",
                        "map": {
                            "kind": "dense",
                            **array_to_dense_container(eye, binary=True),
                            "domain": [{"family": "lp", "p": 1, "dim": 2}, {"family": "lp", "p": 1, "dim": 2}],
                            "codomain": {"family": "sup", "dim": 4},
                        },
                        "p": 2, "q": 2, "n_grid": [2, 4, 8],
                        "random_starts": 1, "sweeps": 2,
                    },
                ],
            }
        )
    )
    assert run(cfg, tmp_path / "out") == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    by_name = {rec["name"]: rec for rec in results["experiments"]}
    assert set(by_name) == {"identity-l1", "outer-l1", "cotype-wit", "real-even-wit", "dense-inline"}
    for rec in by_name.values():
        assert all(s["quotient"] > 0 for s in rec["samples"])
        assert rec["bound_refs"]
    # anchor strategy ran for the witness kinds
    assert any(s["strategy"] in ("basis", "anchor") for s in by_name["cotype-wit"]["samples"])


def test_map_builders_call_the_module_constructors(tmp_path, monkeypatch):
    # the builders look the constructors up in summlab.cli at call time, so
    # wrapping a module-level name (as a tracer does) sees every build
    import summlab.cli as cli

    names = ("tensor_witness", "identity_witness", "diagonal_product_map", "cotype_witness", "real_even_witness")
    calls = []
    for name in names:
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    kinds = [{"kind": k} for k in ("tensor", "identity", "outer_product", "cotype", "real_even")]
    # p < 1, where the real_even witness exists
    experiments = [{**_SLOPE, **_QUIET, "p": 0.5, "map": spec, "n_grid": [2]} for spec in kinds]
    cfg = tmp_path / "kinds.json"
    cfg.write_text(json.dumps({"experiments": experiments}))
    assert run(cfg, tmp_path / "out") == 0
    assert calls == list(names)


def test_oracle_checks_call_the_module_functions(tmp_path, monkeypatch):
    # the oracle rows look the checks up in summlab.cli at call time, so wrapping
    # a module-level name (as a tracer does) sees every call
    import summlab.cli as cli

    names = ("hilbert_identity_check", "identity_growth_check", "identity_cap_check")
    calls = []
    for name in names:
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    experiments = [
        {"kind": "oracle", "check": "hilbert_identity", "d": [1, 2]},
        {"kind": "oracle", "check": "identity_growth", "q_values": [3, 4], "n_grid": [2]},
        {"kind": "oracle", "check": "identity_cap", "p": 2, "d": [2]},
    ]
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({"experiments": experiments}))
    assert run(cfg, tmp_path / "out") == 0
    assert calls == ["hilbert_identity_check"] * 2 + ["identity_growth_check"] * 2 + ["identity_cap_check"]


def _readme_config_rows() -> dict:
    """Label -> keys cell of every table row in README's "Config schema" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Config schema") :]
    section = section[: section.index("\n## ")]
    rows = [line.strip("|").split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return {cells[0].strip(): cells[1] for cells in rows}


def test_readme_tables_give_every_key_and_default():
    # each row names exactly its kind's keys, and a key's default, written as JSON
    # in backticks right after it, is there exactly when the kind has one
    rows = [(f"`{name}`", kind.keys) for name, kind in {**MAP_KINDS, **EXPERIMENT_KINDS}.items()]
    rows += [(f'`oracle`, `"check": "{name}"`', kind.keys) for name, kind in ORACLE_CHECKS.items()]
    rows.append(("`assert` (in `slope`)", ASSERT_KEYS))
    written = _readme_config_rows()
    assert sorted(written) == sorted(label for label, _ in rows)
    for label, keys in rows:
        named = {m.group(1): m.group(2) for m in re.finditer(r"`(\w+)`(?: \(`([^`]*)`\))?", written[label])}
        assert sorted(named) == sorted(keys), label
        for key, (_, default) in keys.items():
            shown = None if named[key] is None else json.loads(named[key])
            assert shown == default and (named[key] is None) == (default is None), (label, key)


def test_seed_resolution_precedence(tmp_path, monkeypatch):
    # the --seed flag wins, then the config's "seed", then 42; the environment plays no part
    monkeypatch.setenv("SUMMLAB_SEED", "99")

    def seed_of(config: dict, *flag: str) -> int:
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(out), *flag]) == 0
        return json.loads((out / "results.json").read_text())["seed"]

    assert seed_of({"seed": 7, "experiments": []}, "--seed", "5") == 5
    assert seed_of({"seed": 7, "experiments": []}) == 7
    assert seed_of({"experiments": []}) == 42
    monkeypatch.setenv("SUMMLAB_SEED", "abc")
    assert seed_of({"experiments": []}) == 42


def test_container_path_relative_to_config(tmp_path, monkeypatch):
    from summlab.maps import array_to_dense_container

    config_dir, elsewhere = tmp_path / "configs", tmp_path / "elsewhere"
    config_dir.mkdir()
    elsewhere.mkdir()
    (config_dir / "eye.json").write_text(json.dumps(array_to_dense_container(np.eye(2))))
    spec = {"kind": "dense", "container": "eye.json", "domain": [_SPACE_2], "codomain": _SPACE_2}
    experiment = {**_SLOPE, "map": spec, "random_starts": 0, "sweeps": 0}
    (config_dir / "cfg.json").write_text(json.dumps({"experiments": [experiment]}))
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--config", "../configs/cfg.json", "--out", "out", "--threads", "1"]) == 0
    results = json.loads((elsewhere / "out" / "results.json").read_text())
    assert results["experiments"][0]["map"]["container"] == "eye.json"
    # an absolute path is opened as written
    spec["container"] = str(config_dir / "eye.json")
    (elsewhere / "abs.json").write_text(json.dumps({"experiments": [experiment]}))
    assert main(["run", "--config", "abs.json", "--out", "out-abs", "--threads", "1"]) == 0


def test_dense_container_is_loaded_once_per_experiment(tmp_path, monkeypatch):
    import summlab.cli as cli
    from summlab.maps import DenseTensor

    # dense-m2-container and one comparison experiment from the large config
    large = Path(__file__).resolve().parents[1] / "benchmarks" / "configs" / "large.json"
    config = json.loads(large.read_text())
    keep = ("dense-m2-container", "cotype-m2-r3")
    config["experiments"] = [exp for exp in config["experiments"] if exp["name"] in keep]
    for exp in config["experiments"]:
        if "container" in exp["map"]:
            exp["map"]["container"] = str(large.parent / exp["map"]["container"])
    (tmp_path / "pair.json").write_text(json.dumps(config))
    loads, bodies = [], []
    load = cli.load_dense_container
    monkeypatch.setattr(cli, "load_dense_container", lambda path: loads.append(path) or load(path))
    search = cli.maximize_quotient

    def record(t, *args, **kwargs):
        if isinstance(getattr(t, "body", None), DenseTensor):
            bodies.append(t.body)
        return search(t, *args, **kwargs)

    monkeypatch.setattr(cli, "maximize_quotient", record)
    assert run(tmp_path / "pair.json", tmp_path / "all", seed=42) == 0
    # one decode for the four grid points of dense-m2-container, and one shared coefficient copy
    assert len(loads) == 1 and len(bodies) == 4
    assert all(body is bodies[0] for body in bodies)
    # the other experiment gives the same entry when the dense experiment is left out
    config["experiments"] = [exp for exp in config["experiments"] if exp["name"] != "dense-m2-container"]
    (tmp_path / "rest.json").write_text(json.dumps(config))
    assert run(tmp_path / "rest.json", tmp_path / "rest", seed=42) == 0
    full = json.loads((tmp_path / "all" / "results.json").read_text())["experiments"]
    rest = json.loads((tmp_path / "rest" / "results.json").read_text())["experiments"]
    assert [rec for rec in full if rec["name"] != "dense-m2-container"] == rest


def test_bounds_experiment_csv(tmp_path):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(
        json.dumps(
            {
                "experiments": [
                    {"kind": "bounds", "m": [1, 2], "p_values": [1, 2], "q_values": [2], "r": [2]}
                ]
            }
        )
    )
    assert run(cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "bounds.csv").read_text().strip().splitlines()
    assert lines[0] == "kind,m,p,q,r,branch,value"
    assert any(line.startswith("mult_upper,2,2.0,2.0") for line in lines)


# large.json's bounds sweep, copied here so that the pinned bytes do not follow edits of that file
_BOUNDS_SWEEP = {
    "name": "bounds-sweep",
    "kind": "bounds",
    "m": [1, 2, 3],
    "p_values": [0.5, 1, 1.5, 2, 3, 4],
    "q_values": [1, 1.5, 2, 3, 4],
    "r": [2, 3],
}


@pytest.mark.parametrize("pinned", ["bound_table.csv", "bounds_sweep.csv"])
def test_bounds_csv_keeps_its_bytes(tmp_path, pinned):
    # the bound table's listing conditions, labels and values, as the bundled bound-table
    # experiment and large.json's bounds sweep wrote them before the table became one list of rows
    bundled = json.loads(_bundled("identity_growth.json").read_text())["experiments"]
    experiment = {"bound_table.csv": next(e for e in bundled if e["name"] == "bound-table"), "bounds_sweep.csv": _BOUNDS_SWEEP}[pinned]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [experiment]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "bounds.csv").read_bytes() == (Path(__file__).parent / "data" / pinned).read_bytes()


def test_diagonal_growth_outputs_keep_their_bytes(tmp_path):
    # slopes.csv and plotdata/ of the bundled diagonal_growth.json, as written before every output
    # was rendered into one table of files; comparing two runs of one tree cannot see a formatting
    # change that both runs make, such as line endings or str against repr
    pinned = Path(__file__).parent / "data" / "diagonal_growth"
    plotdata = [f"{i:02d}_diagonal-m{i + 1}.dat" for i in range(3)]
    assert run(_bundled("diagonal_growth.json"), tmp_path / "out") == 0
    assert sorted(os.listdir(tmp_path / "out" / "plotdata")) == plotdata
    for name in ["slopes.csv", *(f"plotdata/{dat}" for dat in plotdata)]:
        assert (tmp_path / "out" / name).read_bytes() == (pinned / name).read_bytes(), name


@pytest.mark.parametrize(
    "out, blocker, is_dir",
    [("out", "out", False), ("file/out", "file", False), ("out", "out/plotdata", False), ("out", "out/results.json", True)],
    ids=["out-is-a-file", "out-below-a-file", "plotdata-is-a-file", "results-json-is-a-directory"],
)
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, out, blocker, is_dir):
    # each of these left through a FileExistsError, NotADirectoryError or IsADirectoryError traceback
    path = tmp_path / blocker
    path.parent.mkdir(parents=True, exist_ok=True)
    if is_dir:
        path.mkdir()
    else:
        path.write_text("in the way")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [_VALID]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and "Traceback" not in err
    if is_dir:
        assert path.is_dir() and not any(path.iterdir())
    else:
        assert path.read_text() == "in the way"


def test_a_reused_out_keeps_only_the_plot_files_of_the_new_run(tmp_path, capsys):
    # a two-slope run and then a one-slope run into one --out left 00_a.dat and 01_b.dat beside 00_c.dat
    out = tmp_path / "out"
    for names in (["a", "b"], ["c"]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [{**_VALID, "name": name} for name in names]}))
        (out / "plotdata").mkdir(parents=True, exist_ok=True)
        (out / "plotdata" / "notes.txt").write_text("not a plot file")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(os.listdir(out / "plotdata")) == ["00_c.dat", "notes.txt"]
    # a stale plot name that cannot be removed is an output error
    (out / "plotdata" / "07_d.dat").mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("output error: ")


def test_an_output_error_leaves_the_earlier_run_whole(tmp_path, capsys):
    # slopes.csv, written fourth, could not be replaced: results.json and metadata.json were
    # already the new run's, so --out matched neither run
    out = tmp_path / "out"
    for i, names in enumerate((["a", "b"], ["c"])):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"experiments": [{**_VALID, "name": name} for name in names]}))
    assert main(["run", "--config", str(tmp_path / "cfg0.json"), "--out", str(out)]) == 0
    (out / "slopes.csv").unlink()
    (out / "slopes.csv").mkdir()
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert main(["run", "--config", str(tmp_path / "cfg1.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("output error: ")
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before
    assert sorted(path.relative_to(out).as_posix() for path in before) == [
        "bounds.csv", "metadata.json", "plotdata/00_a.dat", "plotdata/01_b.dat", "results.json"
    ]


def _n_space(family: str, p=None) -> dict:
    return {"family": family, "dim": "n", **({} if p is None else {"p": p})}


_MULT = ("mult_upper", "q<=2: m/p")
# name: (map spec, p, q, the (kind, branch) of each bound_refs entry), one slope experiment each
_BOUND_REF_CASES = {
    "tensor-l2": ({"kind": "tensor", "m": 2}, 2, 2, [_MULT, ("exact", "l2_to_c0: m/2")]),
    # l2_to_c0 needs a sup codomain, sup_to_cotype a codomain of finite cotype
    "identity-l1": ({"kind": "identity", "space": _n_space("lp", 1)}, 2, 2, [_MULT]),
    "identity-l2": ({"kind": "identity", "space": _n_space("lp", 2)}, 2, 2, [_MULT]),
    "identity-sup": ({"kind": "identity", "space": _n_space("sup")}, 2, 2, [_MULT]),
    # l2_to_c0 needs l_2 domains
    "outer-product-l1": ({"kind": "outer_product", "m": 2, "space": _n_space("lp", 1)}, 2, 2, [_MULT]),
    # into l_3: the cotype table at r = 3, not the scalar table
    "cotype-r3": (
        {"kind": "cotype", "m": 2, "target_r": 3},
        0.5,
        2,
        [_MULT, ("pol_upper", "1/p"), ("pol_lower_cotype", "(c) m/2")],
    ),
    "cotype-l1-r2": (
        {"kind": "cotype", "m": 2, "target_r": 2, "space": _n_space("lp", 1)},
        0.5,
        1,
        [_MULT, ("pol_lower_cotype", "(b) (mp+2)/(2p) - (mr+q)/(rq)"), ("exact", "l1_to_l2: 1/p - (m+1)/2")],
    ),
    "real-even": (
        {"kind": "real_even", "m": 2},
        0.5,
        1.5,
        [_MULT, ("pol_upper", "1/p"), ("pol_lower_real_even", "(b) (mp+2)/(2p) - (m+q)/q")],
    ),
    "dense-l1-l3": (
        {
            "kind": "dense",
            "shape": [2, 2, 2],
            "data": [1, 0, 0, 1, 0, 1, 1, 0],
            "domain": [{"family": "lp", "p": 1, "dim": 2}, {"family": "lp", "p": 3, "dim": 2}],
            "codomain": {"family": "lp", "p": 2, "dim": 2},
        },
        2,
        2,
        [_MULT],
    ),
    "dense-sup-l3": (
        {
            "kind": "dense",
            "shape": [2, 2],
            "data": [1, 0, 0, 1],
            "domain": [{"family": "sup", "dim": 2}],
            "codomain": {"family": "lp", "p": 3, "dim": 2},
        },
        2,
        2,
        [_MULT, ("exact", "sup_to_cotype: 1/p - 1/r")],
    ),
}


def test_bound_refs_cite_only_bounds_whose_hypotheses_the_map_meets(tmp_path):
    experiments = [
        {"name": name, "kind": "slope", "map": spec, "p": p, "q": q, "n_grid": [2], "random_starts": 0, "sweeps": 0}
        for name, (spec, p, q, _) in _BOUND_REF_CASES.items()
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 42, "experiments": experiments}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    records = json.loads((tmp_path / "out" / "results.json").read_text())["experiments"]
    got = {rec["name"]: [(ref["kind"], ref["branch"]) for ref in rec["bound_refs"]] for rec in records}
    assert got == {name: case[3] for name, case in _BOUND_REF_CASES.items()}


def test_basis_samples_replay_from_the_certificates_in_results_json(tmp_path):
    # a searched weak norm is the q-sum its certificate attains, so the written certificates
    # give back each basis sample's quotient bit for bit; ROADMAP direction 1 extends the
    # same replay to every trace sample
    exp = {
        "name": "real-even",
        "kind": "slope",
        "map": {"kind": "real_even", "m": 2, "space": {"family": "lp", "p": 1.5, "dim": "n"}},
        "p": 0.5,
        "q": 1.5,
        "n_grid": [4, 8, 16],
        "random_starts": 0,
        "sweeps": 0,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 42, "experiments": [exp]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    samples = results["experiments"][0]["samples"]
    assert [s["strategy"] for s in samples] == ["basis"] * 3
    for (poly, _), sample in zip(_build_grid(exp, tmp_path), samples):
        fam = summlab.VectorFamily.basis(poly.domain, sample["n"])
        (cert,) = sample["certificates"]
        numerator = summlab.poly_power_sum(poly, fam, 0.5, tuple_budget=results["tuple_budget"])
        assert numerator / family_q_sum(fam, 1.5, np.array(cert)) ** 2 == sample["quotient"]


def test_bounds_at_huge_p_and_q_are_finite(tmp_path):
    # q * p overflows; m(qp - 2p + 2q)/(2qp) gave NaN here, m(1/2 - 1/q + 1/p) is 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{"kind": "bounds", "m": 2, "p": 1e200, "q": 1e250}]}))
    assert run(cfg, tmp_path / "out") == 0
    text = (tmp_path / "out" / "results.json").read_text()
    assert "NaN" not in text
    rows = json.loads(text)["experiments"][0]["rows"]
    assert [row["value"] for row in rows if row["kind"] == "mult_upper"] == [1.0]
    assert "nan" not in (tmp_path / "out" / "bounds.csv").read_text()


@pytest.mark.parametrize("p, q, r", [(1.0, 1e308, 1e308), (0.5, 1e308, 1e300)])
def test_bounds_at_huge_q_and_r_are_finite(tmp_path, p, q, r):
    # m(q - 2) and 2q overflow in the polynomial upper bound, mr + q and rq in the cotype seams;
    # both configs wrote NaN, then exited 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{"kind": "bounds", "m": 2, "p": p, "q": q, "r": [r]}]}))
    assert run(cfg, tmp_path / "out") == 0
    rows = json.loads((tmp_path / "out" / "results.json").read_text())["experiments"][0]["rows"]
    values = {row["kind"]: row["value"] for row in rows}
    assert values["pol_upper"] == 1.0 / p + 2.0 * (0.5 - 1.0 / q)
    assert values["pol_lower_cotype"] == 1.0  # branch (c), m/2: p is at most 2r/(mr + 2), which is 1 to rounding
    assert "nan" not in (tmp_path / "out" / "bounds.csv").read_text()


def test_non_finite_result_exits_2(tmp_path, capsys):
    # m/p is inf at p = 5e-324: no results.json or metadata.json holding Infinity is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{"kind": "bounds", "m": 2, "p": 5e-324, "q": 1}]}))
    assert run(cfg, tmp_path / "out") == 2
    assert "non-finite number cannot be written as JSON" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()
    assert not (tmp_path / "out" / "metadata.json").exists()


@pytest.mark.parametrize(
    "experiment",
    [
        '{"kind": "bounds", "p": 1e309}',
        '{"kind": "bounds", "q": -1e309}',
        '{"kind": "slope", "map": {"kind": "tensor"}, "p": 1e309, "q": 2, "n_grid": [2, 3, 4]}',
        # read as inf, this cap would assert nothing and the run would exit 0
        '{"kind": "slope", "map": {"kind": "tensor"}, "p": 2, "q": 2, "n_grid": [2, 3, 4], "assert": {"cap_exponent": 1e309}}',
    ],
    ids=["bounds-p", "bounds-q-negative", "slope-p", "cap-exponent"],
)
def test_float_literal_beyond_the_float_range_exits_2(tmp_path, capsys, experiment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiments": [' + experiment + "]}")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "2", "--p", "nan", "--q", "2"],
        ["--m", "2", "--p", "0.5", "--q", "nan"],
        ["--m", "2", "--p", "0.5", "--q", "2", "--r", "nan"],
        ["--m", "2", "--p", "inf", "--q", "2"],
        ["--m", "2", "--p", "1e309", "--q", "2"],
        ["--m", "2", "--p", "0", "--q", "2"],
        ["--m", "2", "--p", "1", "--q", "-2"],
        ["--m", "2", "--p", "1", "--q", "2", "--r", "1.5"],
        ["--m", "2", "--p", "1", "--q", "2", "--r", "inf"],
        ["--m", "0", "--p", "1", "--q", "2"],
        ["--m", str(10**400), "--p", "1", "--q", "2"],
    ],
    ids=["p-nan", "q-nan", "r-nan", "p-inf", "p-1e309", "p-zero", "q-negative", "r-below-2", "r-inf", "m-zero", "m-400-digits"],
)
def test_bounds_arguments_outside_the_bounds_experiment_ranges_exit_2(capsys, argv):
    # the ranges a bounds experiment takes: m >= 1, p and q finite and > 0, r finite and >= 2
    with pytest.raises(SystemExit) as exit_info:
        main(["bounds", *argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["--m", "2", "--p", "5e-324", "--q", "1"], ["--m", str(int(1.7e308)), "--p", "1", "--q", "3"]],
    ids=["p-tiny", "m-huge"],
)
def test_bounds_beyond_the_float_range_exit_2(capsys, argv):
    # as the same parameters in a bounds experiment do (test_non_finite_result_exits_2)
    assert main(["bounds", *argv]) == 2
    captured = capsys.readouterr()
    assert "mult_upper" in captured.out and "= inf" in captured.out
    assert "result error" in captured.err and "mult_upper" in captured.err


def test_print_bounds_output(capsys):
    print_bounds(2, 2.0, 2.0, 2.0)
    out = capsys.readouterr().out
    assert "mult_upper" in out and "= 1" in out
    assert "n/a (out of range)" in out  # pol_upper needs p < q/m

    print_bounds(2, 0.4, 1.0, 2.0)
    out = capsys.readouterr().out
    assert "pol_lower_cotype" in out


def test_main_entrypoint(tmp_path, capsys):
    assert main(["bounds", "--m", "1", "--p", "3", "--q", "2", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.333333333333" in out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": []}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "1"]) == 0


def _ones_dense(m: int, d: int) -> dict:
    """A dense map spec of arity m with all-one coefficients on l_2^d domains and codomain."""
    space = {"family": "lp", "p": 2, "dim": d}
    return {"shape": [d] * (m + 1), "data": [1.0] * d ** (m + 1), "domain": [space] * m, "codomain": space}


def test_dense_map_of_arity_seven_runs(tmp_path):
    # dense maps of any arity run: seven l_2^1 domains, one coefficient
    experiment = {**_SLOPE, **_QUIET, "name": "dense-m7", "map": {"kind": "dense", **_ones_dense(7, 1)}, "n_grid": [2, 3]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [experiment]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
    (record,) = json.loads((tmp_path / "out" / "results.json").read_text())["experiments"]
    assert len(record["samples"]) == 2 and all(math.isfinite(s["quotient"]) for s in record["samples"])


# Fuzzing the exit-code contract: map specs drawn from MAP_KINDS with dropped
# keys, mistyped values, unknown keys and bad assert objects, and well-formed
# dense maps of arity 1 to 8; and experiments
# drawn from EXPERIMENT_KINDS and ORACLE_CHECKS, with values at the edge of the float range.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_SPACES = st.fixed_dictionaries(
    {"family": st.sampled_from(["lp", "sup"])},
    optional={"p": st.sampled_from([1, 1.5, 2, 3, "inf"]), "dim": st.sampled_from(["n", 2, 4])},
)
_ASSERTS = st.dictionaries(st.sampled_from([*ASSERT_KEYS, "slop"]), st.floats() | _JSON, max_size=3) | _JSON
_EXPONENTS = st.sampled_from([0.5, 1, 2, 3, 4, 1e-300, 1e300])
_SMALL = st.sampled_from([1, 2, 3, 4])
_N_GRIDS = st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3)
# the values each experiment key takes when it is well formed, kept small: n and d <= 4, no random starts or sweeps
_TYPICAL = {
    "name": st.text(max_size=3),
    "p": _EXPONENTS,
    "q": _EXPONENTS,
    "p_values": st.lists(_EXPONENTS, min_size=1, max_size=2),
    "q_values": st.lists(_EXPONENTS, min_size=1, max_size=2),
    "n_grid": _N_GRIDS,
    "random_starts": st.just(0),
    "sweeps": st.just(0),
    "d": _SMALL | st.lists(_SMALL, min_size=1, max_size=2),
    "m": _SMALL | st.lists(_SMALL, min_size=1, max_size=2),
    "r": st.sampled_from([2, 3]),
}


@st.composite
def _fuzzed_maps(draw):
    name = draw(st.sampled_from(list(MAP_KINDS)))
    dense = _ones_dense(draw(st.integers(1, 8)), draw(st.sampled_from([1, 2])))
    if name == "dense" and draw(st.booleans()):
        return {"kind": name, **dense}  # well formed, so that every arity reaches the numerics
    spec = {"kind": name}
    for key, (_, default) in MAP_KINDS[name].keys.items():
        typical = [v for v in (default, dense.get(key)) if v is not None]
        value = st.sampled_from(typical) if typical else st.floats(0.1, 4)
        if draw(st.booleans()):
            spec[key] = draw(st.one_of(value, st.integers(-1, 4), st.floats(-1, 4), _SPACES, _JSON))
    spec.update(draw(st.dictionaries(st.text(min_size=1, max_size=6), _JSON, max_size=2)))
    return spec


@st.composite
def _fuzzed_slopes(draw):
    experiment = {
        "kind": "slope",
        "map": draw(_fuzzed_maps()),
        "p": draw(st.sampled_from([0.5, 1, 2])),
        "q": draw(st.sampled_from([1, 2, 3])),
        "n_grid": draw(_N_GRIDS),
        "random_starts": 0,
        "sweeps": 0,
    }
    if draw(st.booleans()):
        experiment["assert"] = draw(_ASSERTS)
    return experiment


@st.composite
def _fuzzed_experiments(draw):
    name = draw(st.sampled_from([*EXPERIMENT_KINDS, *ORACLE_CHECKS]))
    if name in ORACLE_CHECKS:
        experiment, kind = {"kind": "oracle", "check": name}, ORACLE_CHECKS[name]
    else:
        experiment, kind = {"kind": name}, EXPERIMENT_KINDS[name]
    keys = kind.keys
    for key in keys:
        if key == "map":
            experiment[key] = draw(_fuzzed_maps())
        elif key == "assert":
            if draw(st.booleans()):
                experiment[key] = draw(_ASSERTS)
        # most keys, and one spelling of a parameter, so that most experiments run
        elif key in kind.schema.get("required", []) or draw(st.integers(0, 9)) < 8 and key.removesuffix("_values") not in experiment:
            experiment[key] = draw(_TYPICAL[key])
    if draw(st.integers(0, 3)) == 0:  # one key mistyped or unknown
        experiment[draw(st.sampled_from([*keys, "kind", "check", "x"]))] = draw(_JSON)
    return experiment


def _exit_code(experiment: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [experiment]}))
        return main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out"), "--threads", "1"])


@settings(max_examples=100, deadline=None)
@given(_fuzzed_slopes())
# n ** 1e308 overflows a float
@example({**_SLOPE, **_QUIET, "map": {"kind": "tensor"}, "assert": {"cap_exponent": 1e308}})
@example({**_SLOPE, **_QUIET, "map": {"kind": "dense", **_ones_dense(7, 1)}, "n_grid": [2, 3]})
def test_fuzzed_map_specs_keep_exit_contract(experiment):
    assert _exit_code(experiment) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(_fuzzed_experiments())
@example(_FLOAT_EDGE["cap-tiny-p"])
@example(_FLOAT_EDGE["dense-overflow"])
@example(_FLOAT_EDGE["identity-huge-p"])
@example(_FLOAT_EDGE["identity-huge-q"])
@example(_FLOAT_EDGE["cap-huge-p"])
def test_fuzzed_experiments_keep_exit_contract(experiment):
    assert _exit_code(experiment) in (0, 1, 2)
