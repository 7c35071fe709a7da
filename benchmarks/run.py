"""summlab benchmark: end-to-end timings of three workloads, and a traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload family-search --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``family-search``, ``power-sum``,
``cli-configs``.  summlab is driven from outside, through its public
functions, by one caller in a closed loop with ``threads=1``.  A run
prints a few lines by metric name and unit, then one line of JSON last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the run is WORKERS fresh worker processes, one after
the other, each with an equal share of ``--seconds``.  A worker sets the
workload up, repeats passes over its operations while another pass fits
in its share, and checks every output outside the timed section.  The
metrics are the end-to-end ones: ``wall_s`` (median pass time over all
workers), ``setup_s`` (median set-up time: ``import summlab`` plus
building the inputs) and ``peak_rss_mb`` (median of the workers' peak
resident memory).  Several processes rather than one long one, because
how much work a pass does depends on the process's heap layout (see
workloads.py), so passes within one process are not independent draws.

With ``--trace 1`` one worker runs untraced passes in the first half of
the window and traced passes, with the same pass seeds, in the second.
The metrics are the per-layer ones of tracing.py, per traced pass, and
the tracing overhead (traced against untraced median pass time).

Inputs come from ``--seed`` alone: it feeds ``SearchBudget(seed=...)``
and the generator of the families and dense maps.  The result, the
environment and a traced run's spans are also written under
``benchmarks/out/``.

``configs/dense_m2.json`` holds a 6 x 6 x 4 tensor of standard normals
from ``numpy.random.default_rng(2016)``, divided by 4.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("family-search", "power-sum", "cli-configs")
WORKERS = 3
WORKER_PASS_OFFSET = 10**6  # worker k numbers its passes from k * WORKER_PASS_OFFSET
WORKER_TIMEOUT_S = 120
SUMMLAB_THREADS = 1
THREADS_REASON = (
    "one caller in a closed loop on a 2-core machine; the CLI default threads = cpu_count opens nested "
    "pools (experiments x power-sum chunks), so a run would measure the scheduler instead of summlab"
)
# BLAS threads are pinned too, so the only parallelism is the machine's own noise.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Tally:
    """Checked operations, and the quotients they evaluated."""

    attempted: int = 0
    failed: int = 0
    uncertified: int = 0
    quotients: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ops, outputs) -> None:
        for op, output in zip(ops, outputs):
            self.attempted += 1
            if isinstance(output, BaseException):
                problem = "raised " + "".join(traceback.format_exception(output)).strip()
            else:
                try:
                    problem = op.check(output)
                    uncertified, evaluated = op.quotients(output)
                    self.uncertified += uncertified
                    self.quotients += evaluated
                except Exception:  # a check that cannot read the output fails the operation
                    problem = "check raised " + traceback.format_exc().strip()
            if problem:
                self.failed += 1
                self.problems.append(f"{op.label}: {problem}")

    def add(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.uncertified += other["uncertified"]
        self.quotients += other["quotients"]
        self.problems += other["problems"]


# ---------------------------------------------------------------------------
# worker: one process that sets up and measures
# ---------------------------------------------------------------------------


def _run_pass(ops, seed: int, excluded_s) -> tuple[float, list]:
    """One closed-loop pass; returns (wall time less excluded time, outputs)."""
    gc.collect()
    outputs = []
    excluded = excluded_s()
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.run(seed))
        except Exception as exc:  # recorded and checked as a failed operation
            outputs.append(exc)
    wall = time.perf_counter() - start
    return wall - (excluded_s() - excluded), outputs


def _passes(ops, pass_seed, window_s: float, tally: Tally, excluded_s=lambda: 0.0) -> list[float]:
    """Passes while another one is expected to fit in the window; at least one."""
    deadline = time.perf_counter() + window_s
    walls, cycles = [], []
    for index in itertools.count():
        start = time.perf_counter()
        wall, outputs = _run_pass(ops, pass_seed(index), excluded_s)
        walls.append(wall)
        tally.check(ops, outputs)
        del outputs
        cycles.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(cycles) > deadline:
            break
    return walls


def _openblas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _openblas_threads()
    except OSError:
        blas_threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "blas_threads": blas_threads,
        "pinned_env": PINNED_ENV,
        "summlab_threads": SUMMLAB_THREADS,
        "summlab_threads_reason": THREADS_REASON,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def worker(args) -> dict:
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")  # imports summlab
    built = workloads.build(args.workload, args.seed, OUT_DIR / f"work-{os.getpid()}")
    setup_s = time.perf_counter() - start

    first = args.worker * WORKER_PASS_OFFSET

    def seeds(index: int) -> int:
        return workloads.pass_seed(args.seed, first + index)

    tally = Tally()
    result: dict = {"setup_s": setup_s, "ops_per_pass": len(built.ops)}
    try:
        if not args.trace:
            result["walls"] = _passes(built.ops, seeds, args.seconds, tally)
        else:
            result["untraced_walls"] = _passes(built.ops, seeds, args.seconds / 2, tally)
            tracing = importlib.import_module("tracing")
            tracer = tracing.Tracer()
            tracer.install()
            try:
                # the same pass seeds as the untraced half, so pass i meets pass i
                result["walls"] = _passes(built.ops, seeds, args.seconds / 2, tally, lambda: tracer.audit_s)
            finally:
                tracer.uninstall()
            overhead = statistics.median(result["walls"]) / statistics.median(result["untraced_walls"])
            per_layer = tracer.metrics(len(result["walls"]), overhead)
            result["per_layer"] = {k: _metric(v, tracing.PER_LAYER[k][0]) for k, v in per_layer.items()}
            result["spans"] = len(tracer.spans)
            tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    finally:
        built.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    result.update(asdict(tally))
    return result


# ---------------------------------------------------------------------------
# orchestrator: workers one after the other, then the report
# ---------------------------------------------------------------------------


def _spawn(args, index: int, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", repr(seconds), "--trace", str(args.trace), "--worker", str(index)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"worker {index} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _range(values) -> str:
    return f"({min(values):.4f} .. {max(values):.4f})"


def orchestrate(args) -> int:
    count = 1 if args.trace else WORKERS
    results = [_spawn(args, k, args.seconds / count) for k in range(count)]
    walls = [w for r in results for w in r["walls"]]
    setups = [r["setup_s"] for r in results]
    peaks = [r["peak_rss_mb"] for r in results]
    tally = Tally()
    for r in results:
        tally.add(r)
    failed_share = tally.failed / tally.attempted
    uncertified_share = tally.uncertified / tally.quotients if tally.quotients else 0.0
    end_to_end = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(peaks), "MB"),
    }
    traced = " with tracing" if args.trace else ""
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {results[0]['ops_per_pass']} operations"
        f" per pass  {count} worker(s)",
        f"wall_s             {statistics.median(walls):.4f} s   median of {len(walls)} passes {_range(walls)}{traced}",
        f"setup_s            {statistics.median(setups):.4f} s   median of {len(setups)} set-ups {_range(setups)}",
        f"peak_rss_mb        {statistics.median(peaks):.1f} MB  median of {len(peaks)} workers {_range(peaks)}",
        f"failed_share       {failed_share:.6g} ratio   {tally.failed} of {tally.attempted} operations",
        f"uncertified_share  {uncertified_share:.6g} ratio   {tally.uncertified} of {tally.quotients}"
        " evaluated quotients came from the weak-norm search",
    ]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": end_to_end,
        "failed_share": failed_share,
        "uncertified_share": uncertified_share,
        "workers": results,
    }
    metrics = end_to_end
    if args.trace:
        untraced = results[0]["untraced_walls"]
        lines.insert(1, f"untraced wall_s    {statistics.median(untraced):.4f} s   median of {len(untraced)} passes")
        metrics = results[0]["per_layer"]
        lines += [f"{name:<45} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"{results[0]['spans']} spans written to benchmarks/out/{args.workload}-seed{args.seed}-spans.jsonl")
    lines.append("environment " + json.dumps(results[0]["environment"], sort_keys=True))
    lines += [f"FAILED {problem}" for problem in tally.problems[:20]]
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "summlab" / "__init__.py").is_file():
        print(f"no summlab sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads, here and in the workers
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    if args.worker is None:
        return orchestrate(args)
    print(json.dumps(worker(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
