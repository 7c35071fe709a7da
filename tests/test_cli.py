"""Config execution, persistence, reproducibility, exit codes."""

import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from summlab.cli import CONFIG_SCHEMA, EXPERIMENT_P, MAP_KINDS, main, print_bounds, run


def _bundled(name):
    return resources.files("summlab") / "configs" / name


def test_bundled_diagonal_growth(tmp_path):
    code = run(_bundled("diagonal_growth.json"), tmp_path / "out", seed=42, threads=2)
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
    code = run(_bundled("hilbert_identity.json"), tmp_path / "out", seed=42, threads=1)
    assert code == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    reports = results["experiments"][0]["reports"]
    assert {r["details"]["d"] for r in reports} == {1, 2, 4, 9, 16, 25, 32}
    assert all(r["passed"] for r in reports)


def test_bundled_identity_growth(tmp_path):
    code = run(_bundled("identity_growth.json"), tmp_path / "out", seed=42, threads=2)
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
        assert run(_bundled("diagonal_growth.json"), tmp_path / name, seed=7, threads=2) == 0
    assert (tmp_path / "a" / "results.json").read_bytes() == (tmp_path / "b" / "results.json").read_bytes()
    assert (tmp_path / "a" / "slopes.csv").read_bytes() == (tmp_path / "b" / "slopes.csv").read_bytes()


def test_config_schema_is_a_valid_schema():
    # run() validates with a prebuilt validator, which does not check the schema itself
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


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


@pytest.mark.parametrize(
    "experiment, message",
    [
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
    ],
)
def test_malformed_experiment_exit_2(tmp_path, capsys, experiment, message):
    # exit 2 from main itself: the error never escapes as a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [experiment]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert message in capsys.readouterr().err
    # ingest and build errors stop the run before the output directory, or any experiment, exists
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bad_map",
    [
        {"kind": "cotype", "witness_p": 2.5, "target_r": 2},
        {"kind": "real_even", "m": 3, "witness_p": 0.5},
        {"kind": "dense", "container": "no-such-file.json", "domain": [_SPACE_2], "codomain": _SPACE_2},
    ],
    ids=["cotype-p-at-least-r", "odd-real-even", "missing-container"],
)
def test_every_map_is_built_before_any_experiment_runs(tmp_path, capsys, monkeypatch, bad_map):
    import summlab.cli as cli

    runs = []
    original = cli.maximize_quotient
    monkeypatch.setattr(cli, "maximize_quotient", lambda *a, **k: runs.append(a[1]) or original(*a, **k))
    valid = {**_SLOPE, "map": {"kind": "tensor", "m": 1}, "random_starts": 0, "sweeps": 0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [valid, {**_SLOPE, "map": bad_map}]}))
    assert run(cfg, tmp_path / "out", threads=1) == 2
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
                        "map": {"kind": "cotype", "m": 2, "target_r": 2, "witness_p": 0.5},
                        "p": 0.5, "q": 1, "n_grid": [2, 3, 4],
                        "random_starts": 0, "sweeps": 0,
                    },
                    {
                        "name": "real-even-wit",
                        "kind": "slope",
                        "map": {"kind": "real_even", "m": 2, "witness_p": 0.4},
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
    assert run(cfg, tmp_path / "out", threads=1) == 0
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
    kinds = [{"kind": k} for k in ("tensor", "identity", "outer_product")]
    kinds += [{"kind": "cotype", "witness_p": 0.5}, {"kind": "real_even", "witness_p": 0.5}]
    experiments = [{**_SLOPE, "map": spec, "n_grid": [2], "random_starts": 0, "sweeps": 0} for spec in kinds]
    cfg = tmp_path / "kinds.json"
    cfg.write_text(json.dumps({"experiments": experiments}))
    assert run(cfg, tmp_path / "out", threads=1) == 0
    assert calls == list(names)


def test_seed_resolution_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "noseed.json"
    cfg.write_text(json.dumps({"experiments": []}))
    monkeypatch.setenv("SUMMLAB_SEED", "99")
    run(cfg, tmp_path / "o1")
    assert json.loads((tmp_path / "o1" / "results.json").read_text())["seed"] == 99
    # an explicit flag wins over the environment
    run(cfg, tmp_path / "o2", seed=5)
    assert json.loads((tmp_path / "o2" / "results.json").read_text())["seed"] == 5
    # an unparsable seed is a config error, not a traceback
    monkeypatch.setenv("SUMMLAB_SEED", "abc")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o3")]) == 2
    assert "SUMMLAB_SEED" in capsys.readouterr().err


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

    large = Path(__file__).resolve().parents[1] / "benchmarks" / "configs" / "large.json"
    loads, bodies = [], []
    load = cli.load_dense_container
    monkeypatch.setattr(cli, "load_dense_container", lambda path: loads.append(path) or load(path))
    search = cli.maximize_quotient

    def record(t, *args, **kwargs):
        if isinstance(getattr(t, "body", None), DenseTensor):
            bodies.append(t.body)
        return search(t, *args, **kwargs)

    monkeypatch.setattr(cli, "maximize_quotient", record)
    assert run(large, tmp_path / "all", seed=42, threads=1) == 0
    # one decode for the four grid points of dense-m2-container, and one shared coefficient copy
    assert len(loads) == 1 and len(bodies) == 4
    assert all(body is bodies[0] for body in bodies)
    # the other experiments give the same entries when the dense experiment is left out
    config = json.loads(large.read_text())
    config["experiments"] = [exp for exp in config["experiments"] if exp["name"] != "dense-m2-container"]
    (tmp_path / "rest.json").write_text(json.dumps(config))
    assert run(tmp_path / "rest.json", tmp_path / "rest", seed=42, threads=1) == 0
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


# Fuzzing the exit-code contract: map specs drawn from MAP_KINDS with dropped
# keys, mistyped values, unknown keys and bad assert objects.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_SPACES = st.fixed_dictionaries(
    {"family": st.sampled_from(["lp", "sup"])},
    optional={"p": st.sampled_from([1, 1.5, 2, 3, "inf"]), "dim": st.sampled_from(["n", 2, 4])},
)
_DENSE = {"shape": [2, 2], "data": [1.0, 0.5, 0.0, 1.0], "domain": [_SPACE_2], "codomain": _SPACE_2}
_ASSERT_KEYS = ["slope", "slope_tol", "residual_max", "cap_exponent", "cap_slack"]


@st.composite
def _fuzzed_experiments(draw):
    name = draw(st.sampled_from(list(MAP_KINDS)))
    spec = {"kind": name}
    for key, (_, default) in MAP_KINDS[name].keys.items():
        typical = [v for v in (default, _DENSE.get(key)) if v is not None and v is not EXPERIMENT_P]
        value = st.sampled_from(typical) if typical else st.floats(0.1, 4)
        if draw(st.booleans()):
            spec[key] = draw(st.one_of(value, st.integers(-1, 4), st.floats(-1, 4), _SPACES, _JSON))
    spec.update(draw(st.dictionaries(st.text(min_size=1, max_size=6), _JSON, max_size=2)))
    experiment = {
        "kind": "slope",
        "map": spec,
        "p": draw(st.sampled_from([0.5, 1, 2])),
        "q": draw(st.sampled_from([1, 2, 3])),
        "n_grid": draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3)),
        "random_starts": 0,
        "sweeps": 0,
    }
    if draw(st.booleans()):
        keys = st.sampled_from(_ASSERT_KEYS + ["slop"])
        experiment["assert"] = draw(st.dictionaries(keys, st.floats() | _JSON, max_size=3) | _JSON)
    return experiment


@settings(max_examples=100, deadline=None)
@given(_fuzzed_experiments())
# n ** 1e308 overflows a float
@example({**_SLOPE, "map": {"kind": "tensor"}, "random_starts": 0, "sweeps": 0, "assert": {"cap_exponent": 1e308}})
def test_fuzzed_map_specs_keep_exit_contract(experiment):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [experiment]}))
        code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out"), "--threads", "1"])
    assert code in (0, 1, 2)
