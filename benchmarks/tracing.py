"""Span tracing for the traced benchmark run.

summlab looks its collaborators up as module globals at call time, so
replacing a module-level name with a wrapper puts a span around every
call made through it without touching the package.  Each span records
its name, start, end, parent and the time its child spans cover; a
layer's self time is its spans' time minus their children's.  Spans
stay in memory and are written out when the run ends.

Only the traced run imports this module and installs the wrappers.  A
wrapped name that no longer exists stops the run with an error, so a
layer is never lost silently.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field

from summlab import weak_norms
from summlab.maps import DiagonalC0
from summlab.spaces import Family

# (module, name, span): the bindings each span wraps
WRAPPED = (
    ("summlab.index_lab", "maximize_quotient", "index_lab.maximize_quotient"),
    ("summlab.cli", "maximize_quotient", "index_lab.maximize_quotient"),
    ("summlab.oracles", "maximize_quotient", "index_lab.maximize_quotient"),
    ("summlab.index_lab", "summing_quotient", "index_lab.summing_quotient"),
    ("summlab.oracles", "summing_quotient", "index_lab.summing_quotient"),
    ("summlab.index_lab", "polynomial_quotient", "index_lab.polynomial_quotient"),
    ("summlab.index_lab", "weak_norm", "weak_norms.weak_norm"),
    ("summlab.index_lab", "mixed_power_sum", "maps.mixed_power_sum"),
    ("summlab.index_lab", "poly_power_sum", "maps.poly_power_sum"),
    ("summlab.weak_norms", "quasi_random_directions", "search.sobol"),
    ("summlab.maps", "quasi_random_directions", "search.sobol"),
    ("summlab.witnesses", "operator_norm", "maps.operator_norm"),
    ("summlab.cli", "tensor_witness", "witnesses.build"),
    ("summlab.cli", "identity_witness", "witnesses.build"),
    ("summlab.cli", "diagonal_product_map", "witnesses.build"),
    ("summlab.cli", "cotype_witness", "witnesses.build"),
    ("summlab.cli", "real_even_witness", "witnesses.build"),
    ("summlab.oracles", "identity_witness", "witnesses.build"),
    ("summlab.cli", "hilbert_identity_check", "oracles.check"),
    ("summlab.cli", "identity_growth_check", "oracles.check"),
    ("summlab.cli", "identity_cap_check", "oracles.check"),
    ("summlab.cli", "main", "cli.run"),
)

WEAK_PATHS = ("svd", "vertex", "column", "single", "search")
BODIES = ("diagonal", "dense")
AUDIT_EVERY = 25  # audit every 25th quotient evaluation that is handed its weak norms
AUDIT_REL_TOL = 1e-12

# Per-layer metrics: name -> (unit, better).  Every traced run reports all
# of them; a layer the workload never calls reads 0.
PER_LAYER = {
    "index_lab.maximize_quotient.calls": ("count", "lower"),
    "index_lab.maximize_quotient.s": ("s", "lower"),
    "index_lab.self_s": ("s", "lower"),
    "index_lab.evals": ("count", "lower"),
    "index_lab.evals_per_s": ("1/s", "higher"),
    "index_lab.accept_share": ("ratio", "higher"),
    "index_lab.weak_norm_per_eval": ("ratio", "lower"),
    "index_lab.stale_weak_norms": ("count", "lower"),
    "index_lab.audited_weak_norms": ("count", "higher"),
    **{f"weak_norms.{path}.calls": ("count", "lower") for path in WEAK_PATHS},
    **{f"weak_norms.{path}.us_per_call": ("us", "lower") for path in WEAK_PATHS},
    "weak_norms.s": ("s", "lower"),
    "search.sobol.calls": ("count", "lower"),
    "search.sobol.s": ("s", "lower"),
    **{f"maps.mixed_power_sum.{body}.calls": ("count", "lower") for body in BODIES},
    **{f"maps.mixed_power_sum.{body}.mtuples_per_s": ("Mtuple/s", "higher") for body in BODIES},
    "maps.mixed_power_sum.s": ("s", "lower"),
    "maps.poly_power_sum.calls": ("count", "lower"),
    "maps.poly_power_sum.s": ("s", "lower"),
    "maps.operator_norm.calls": ("count", "lower"),
    "maps.operator_norm.s": ("s", "lower"),
    "maps.operator_norm.exact_share": ("ratio", "higher"),
    "witnesses.build.calls": ("count", "lower"),
    "witnesses.build.s": ("s", "lower"),
    "witnesses.self_s": ("s", "lower"),
    "oracles.check.calls": ("count", "lower"),
    "oracles.check.s": ("s", "lower"),
    "cli.run.calls": ("count", "lower"),
    "cli.run.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    layer_root: bool  # no enclosing span of the same layer
    end: float = 0.0
    child_s: float = 0.0
    audit_s: float = 0.0  # time inside the span spent on the D1 audit, not on the call
    tag: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start - self.audit_s


def _weak_path(family, q: float, exact: bool) -> str:
    """The weak_norm dispatch branch a call took, from its inputs."""
    space = family.space
    if space.family is Family.SEQUENCE_LP and space.exponent == 2.0 and q == 2.0:
        path = "svd"
    elif space.family is Family.SEQUENCE_LP and space.exponent == 1.0 and q >= 1.0 and space.dimension <= weak_norms._VERTEX_MAX_DIM:
        path = "vertex"
    elif family.n == 1:
        path = "single"
    elif space.is_sup and q >= 1.0:
        path = "column"
    else:
        path = "search"
    if exact == (path == "search"):
        raise RuntimeError(f"weak_norm took the {path} path but returned exact={exact}; the classifier is out of date")
    return path


def _replay_ascent(trace) -> tuple[int, int]:
    """(attempted, accepted) ascent moves, replayed from a maximize_quotient trace."""
    attempted = accepted = 0
    current = None
    for sample in trace:
        label = sample.family_descriptor.strategy
        if label.endswith("+ascent"):
            attempted += 1
            if sample.quotient > current:
                accepted += 1
                current = sample.quotient
        elif label.startswith("random["):
            current = sample.quotient
    return attempted, accepted


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    open_layers: dict[str, int] = field(default_factory=dict)
    suspended: bool = False
    evals: int = 0
    audited: int = 0
    stale: int = 0
    audit_s: float = 0.0
    originals: list[tuple[object, str, object]] = field(default_factory=list)
    signatures: dict = field(default_factory=dict)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise SystemExit(f"traced run: {module_name}.{attr} no longer exists; update benchmarks/tracing.py")
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals.clear()

    def _wrap(self, span_name: str, fn):
        tracer = self
        post = {
            "index_lab.maximize_quotient": self._post_maximize,
            "weak_norms.weak_norm": self._post_weak_norm,
            "maps.mixed_power_sum": self._post_power_sum,
            "maps.operator_norm": lambda args, kwargs, result: result.exact,
            "cli.run": self._post_cli,
        }.get(span_name)
        audit = span_name in ("index_lab.summing_quotient", "index_lab.polynomial_quotient")
        force_trace = span_name == "index_lab.maximize_quotient"

        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            if audit:
                tracer._audit(fn, args, kwargs)
            call_kwargs = dict(kwargs, return_trace=True) if force_trace else kwargs
            index = tracer._open(span_name)
            try:
                result = fn(*args, **call_kwargs)
            finally:
                tracer._close(index)
            if post is not None:
                tracer.spans[index].tag = post(args, kwargs, result)
            if force_trace and not kwargs.get("return_trace", False):
                return result[0]
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        layer = name.split(".", 1)[0]
        depth = self.open_layers.get(layer, 0)
        self.spans.append(Span(name, 0.0, self.stack[-1] if self.stack else None, depth == 0))
        index = len(self.spans) - 1
        self.stack.append(index)
        self.open_layers[layer] = depth + 1
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        self.open_layers[span.layer] -= 1
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    # -- per-call tags ------------------------------------------------------

    def _post_maximize(self, args, kwargs, result):
        return _replay_ascent(result[1])

    def _post_weak_norm(self, args, kwargs, result):
        family = args[0] if args else kwargs["family"]
        q = args[1] if len(args) > 1 else kwargs["q"]
        return _weak_path(family, q, result.exact)

    def _post_power_sum(self, args, kwargs, result):
        t = args[0]
        families = list(args[1] if len(args) > 1 else kwargs["families"])
        body = "diagonal" if isinstance(t.body, DiagonalC0) else "dense"
        return body, families[0].n ** t.arity

    def _post_cli(self, args, kwargs, result):
        argv = list(args[0] if args else kwargs["argv"])
        return _tree_bytes(argv[argv.index("--out") + 1]) if "--out" in argv else 0

    # -- D1 audit -----------------------------------------------------------

    def _audit(self, fn, args, kwargs) -> None:
        """Recompute the supplied weak norms of every AUDIT_EVERY-th evaluation.

        Runs outside every span with tracing suspended: its time is taken
        out of the enclosing spans and kept apart, so it can be taken out
        of the traced wall time as well.
        """
        self.evals += 1
        if self.evals % AUDIT_EVERY:
            return
        signature = self.signatures.get(fn)
        if signature is None:
            signature = self.signatures[fn] = inspect.signature(fn)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if "_weak_results" in a:
            supplied, families = a["_weak_results"], list(a["families"])
        else:
            supplied, families = [a["_weak_result"]], [a["family"]]
        if supplied is None or supplied == [None]:
            return
        start = time.perf_counter()
        self.suspended = True
        try:
            for family, given in zip(families, supplied):
                fresh = weak_norms.weak_norm(family, a["q"], a["budget"]).value
                self.audited += 1
                if abs(fresh - given.value) > AUDIT_REL_TOL * max(abs(fresh), abs(given.value)):
                    self.stale += 1
        finally:
            self.suspended = False
            spent = time.perf_counter() - start
            self.audit_s += spent
            for index in self.stack:  # keep the audit out of the enclosing spans too
                self.spans[index].audit_s += spent

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics, as totals per traced pass."""
        count: dict[str, float] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        layer_root_s: dict[str, float] = {}
        attempted = accepted = exact_norms = 0
        tuples = {body: 0 for body in BODIES}

        def add(key, value, into):
            into[key] = into.get(key, 0.0) + value

        for span in self.spans:
            key = span.name
            if span.tag is None:
                pass  # the call raised; it counts only under its span name
            elif span.name == "weak_norms.weak_norm":
                key = f"weak_norms.{span.tag}"
            elif span.name == "maps.mixed_power_sum":
                body, n_tuples = span.tag
                tuples[body] += n_tuples
                add(f"maps.mixed_power_sum.{body}", span.duration, total)
                add(f"maps.mixed_power_sum.{body}", 1, count)
            elif span.name == "index_lab.maximize_quotient":
                attempted += span.tag[0]
                accepted += span.tag[1]
            elif span.name == "maps.operator_norm":
                exact_norms += span.tag
            elif span.name == "cli.run":
                add("cli.output_bytes", span.tag, total)
            add(key, 1, count)
            add(key, span.duration, total)
            add(span.layer, span.duration - span.child_s, self_s)
            if span.layer_root:
                add(span.layer, span.duration, layer_root_s)

        def c(key):
            return count.get(key, 0.0)

        def s(key):
            return total.get(key, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        evals = c("index_lab.summing_quotient") + c("index_lab.polynomial_quotient")
        weak_calls = sum(c(f"weak_norms.{path}") for path in WEAK_PATHS)
        out = {
            "index_lab.maximize_quotient.calls": c("index_lab.maximize_quotient"),
            "index_lab.maximize_quotient.s": s("index_lab.maximize_quotient"),
            "index_lab.self_s": self_s.get("index_lab", 0.0),
            "index_lab.evals": evals,
            "index_lab.evals_per_s": ratio(evals, layer_root_s.get("index_lab", 0.0)),
            "index_lab.accept_share": ratio(accepted, attempted),
            "index_lab.weak_norm_per_eval": ratio(weak_calls, evals),
            "index_lab.stale_weak_norms": self.stale,
            "index_lab.audited_weak_norms": self.audited,
            "weak_norms.s": sum(s(f"weak_norms.{path}") for path in WEAK_PATHS),
            "search.sobol.calls": c("search.sobol"),
            "search.sobol.s": s("search.sobol"),
            "maps.mixed_power_sum.s": s("maps.mixed_power_sum"),
            "maps.poly_power_sum.calls": c("maps.poly_power_sum"),
            "maps.poly_power_sum.s": s("maps.poly_power_sum"),
            "maps.operator_norm.calls": c("maps.operator_norm"),
            "maps.operator_norm.s": s("maps.operator_norm"),
            "maps.operator_norm.exact_share": ratio(exact_norms, c("maps.operator_norm")),
            "witnesses.build.calls": c("witnesses.build"),
            "witnesses.build.s": s("witnesses.build"),
            "witnesses.self_s": self_s.get("witnesses", 0.0),
            "oracles.check.calls": c("oracles.check"),
            "oracles.check.s": s("oracles.check"),
            "cli.run.calls": c("cli.run"),
            "cli.run.s": s("cli.run"),
            "cli.self_s": self_s.get("cli", 0.0),
            "cli.output_bytes": s("cli.output_bytes"),
        }
        for path in WEAK_PATHS:
            key = f"weak_norms.{path}"
            out[f"{key}.calls"] = c(key)
            out[f"{key}.us_per_call"] = ratio(s(key), c(key)) * 1e6
        for body in BODIES:
            key = f"maps.mixed_power_sum.{body}"
            out[f"{key}.calls"] = c(key)
            out[f"{key}.mtuples_per_s"] = ratio(tuples[body], s(key)) / 1e6
        per_pass = {k: v / passes if PER_LAYER[k][0] in ("count", "s", "bytes") else v for k, v in out.items()}
        per_pass["trace.overhead"] = overhead
        return {k: per_pass[k] for k in PER_LAYER}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                record = {"id": i, "parent": span.parent, "name": span.name, "start": span.start, "end": span.end}
                fh.write(json.dumps(dict(record, audit_s=span.audit_s, tag=span.tag)) + "\n")
