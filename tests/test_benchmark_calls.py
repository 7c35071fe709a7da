"""The names and keywords that benchmarks/ uses from summlab.

The benchmark harness is not part of this suite, so a renamed function or
a dropped keyword would otherwise surface only when the benchmark runs.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from summlab import cli, index_lab, weak_norms
from summlab.search import SearchBudget
from summlab.spaces import lp
from summlab.weak_norms import VectorFamily
from summlab.witnesses import identity_witness, tensor_witness

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def tracing(monkeypatch):
    # imported from its directory, as benchmarks/run.py does: a module that is
    # loaded without being registered in sys.modules fails in @dataclass
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("tracing")


def test_every_traced_name_exists(tracing):
    for module, name, _ in tracing.WRAPPED:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_traced_signatures_keep_the_parameters_the_tracer_reads():
    # the tracer binds each call to its signature and reads these arguments by name
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert {"families", "q", "budget", "_weak_results"} <= params(index_lab.summing_quotient)
    assert {"family", "q", "budget", "_weak_result"} <= params(index_lab.polynomial_quotient)
    assert {"family", "q"} <= params(weak_norms.weak_norm)


def test_workload_keywords_are_accepted(tracing):
    budget = SearchBudget(seed=1)
    t = tensor_witness(2, 2)
    best, trace = index_lab.maximize_quotient(
        t, 2, 2.0, 3.0, budget=budget, random_starts=1, sweeps=2, threads=1, return_trace=True
    )
    assert best.quotient == max(s.quotient for s in trace)
    # the tracer replays accepted ascent moves from the strategy labels
    attempted, accepted = tracing._replay_ascent(trace)
    assert attempted == len(trace) - 2 and 0 <= accepted <= attempted
    fam = VectorFamily.basis(lp(2, 2), 2)
    sample = index_lab.summing_quotient(identity_witness(lp(2, 2)), [fam], 2.0, 3.0, budget, threads=1)
    assert sample.quotient > 0


def test_cli_accepts_the_benchmark_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    experiment = {"kind": "slope", "map": {"kind": "tensor"}, "p": 2, "q": 2, "n_grid": [2], "random_starts": 0}
    cfg.write_text(json.dumps({"experiments": [experiment]}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--threads", "1", "--seed", "1"]) == 0
    assert json.loads((out / "results.json").read_text())["seed"] == 1
