"""Config execution, persistence, reproducibility, exit codes."""

import json
from importlib import resources

import numpy as np
import pytest

from summlab.cli import main, print_bounds, run


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


@pytest.mark.parametrize(
    "experiment, message",
    [
        (
            {**_SLOPE, "map": {"kind": "dense", "shape": [2, 2], "data": [1, 0, 0, 1], "codomain": {"family": "lp", "p": 2, "dim": 2}}},
            "bad map spec",
        ),
        ({**_SLOPE, "map": {"kind": "tensor", "m": "two"}}, "bad map spec"),
        ({**_SLOPE, "map": {"kind": "dense", "container": "no-such-file.json", "domain": [], "codomain": {}}}, "bad map spec"),
        ({**_SLOPE, "map": {"kind": "tensor", "m": 1}, "n_grid": [2, 4], "assert": {"slope": 0.5}}, "fewer than 3 distinct n"),
    ],
    ids=["dense-without-domain", "non-integer-order", "missing-container", "slope-on-two-n"],
)
def test_malformed_experiment_exit_2(tmp_path, capsys, experiment, message):
    # exit 2 from main itself: the error never escapes as a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [experiment]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert message in capsys.readouterr().err


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
    assert "unknown map kind" in capsys.readouterr().err


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


def test_seed_resolution_env(tmp_path, monkeypatch):
    cfg = tmp_path / "noseed.json"
    cfg.write_text(json.dumps({"experiments": []}))
    monkeypatch.setenv("SUMMLAB_SEED", "99")
    run(cfg, tmp_path / "o1")
    assert json.loads((tmp_path / "o1" / "results.json").read_text())["seed"] == 99
    # an explicit flag wins over the environment
    run(cfg, tmp_path / "o2", seed=5)
    assert json.loads((tmp_path / "o2" / "results.json").read_text())["seed"] == 5


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
