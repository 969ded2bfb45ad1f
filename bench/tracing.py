"""Per-layer tracing of opoly from outside the program.

``Tracer.install()`` replaces the public functions of every opoly module
(and a few named methods) with wrappers, everywhere the program holds a
reference to them: module globals, module-level dicts such as the CLI's
command table, and class attributes.  ``uninstall()`` puts the originals
back.  A layer is a module: cli, families, structure, series, connection,
algebra.

Each wrapped call counts a call, adds its duration to the function's
inclusive total (outermost activation only, so recursion is not counted
twice), adds its self time (duration minus the wrapped calls it made) to the
function and its layer, and counts an exception that leaves it.  Spans
(id, parent, name, start, end, operation) are kept in memory and written
out at the end, except for the element-level algebra operations in ``HOT``:
those are called up to millions of times a run, so only their counts and
times are kept.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "families", "structure", "series", "connection", "algebra")

# Trivial coercion called for every coefficient; wrapping it would measure
# the wrapper.
SKIP = {("algebra", "as_field")}

# Methods and private helpers traced under their own names.
METHODS = {
    "cli": (("", "_emit", "emit"),),
    "families": (("FamilySpec", "k", "k"), ("FamilySpec", "apply_operator", "apply_operator"),
                 ("FamilySpec", "monic", "monic")),
    "algebra": (("Polynomial", "__mul__", "poly_mul"), ("Polynomial", "shift", "poly_shift"),
                ("Polynomial", "to_basis", "to_basis"), ("Polynomial", "scale", "poly_scale"),
                ("Polynomial", "derivative", "poly_derivative"),
                ("Polynomial", "delta", "poly_delta"), ("Polynomial", "nabla", "poly_nabla"),
                ("RationalFunction", "__init__", "ratfunc_new"),
                ("RationalFunction", "derivative", "ratfunc_derivative"),
                ("RationalFunction", "evaluate", "ratfunc_evaluate")),
}

HOT = {"algebra.poly_mul", "algebra.poly_scale", "algebra.ratfunc_new",
       "algebra.format_rational", "algebra.pochhammer", "algebra.factorial",
       "families.k"}


def _spec_key(spec, n, *_):
    """A spec and degree, leading rule included: FamilySpec equality ignores it."""
    return (spec.kind, spec.abcde(), spec.leading.label, spec.name, spec.params, n)


DISTINCT = {"families.k": _spec_key, "structure.solve_equation": _spec_key}

# The per-layer metrics reported (BENCHMARK.json lists the same names).
REPORTED_CALLS = ("families.k", "families.admissibility", "families.apply_operator",
                  "structure.recurrence_coeffs", "structure.theorem1_coeffs",
                  "structure.generate", "structure.solve_equation", "structure.oracle_triples",
                  "connection.connect_oracle", "connection.connect_recurrence",
                  "connection.exact_parameter_derivative", "algebra.pochhammer",
                  "algebra.poly_mul", "algebra.poly_shift", "algebra.to_basis",
                  "algebra.ratfunc_new")
REPORTED_TOTALS = ("cli.emit", "cli.parse_family", "families.k", "families.admissibility",
                   "families.apply_operator", "structure.recurrence_coeffs",
                   "structure.theorem1_coeffs", "structure.generate",
                   "structure.solve_equation", "structure.oracle_triples",
                   "structure.verify_structure", "series.series_polynomial",
                   "series.power_coeffs", "series.falling_coeffs", "series.power_in_basis",
                   "series.falling_in_basis", "series.closed_form",
                   "connection.connect_oracle", "connection.connect_recurrence",
                   "connection.parameter_derivative",
                   "connection.exact_parameter_derivative", "algebra.pochhammer")
REPORTED_DISTINCT = ("families.k", "structure.solve_equation")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.spans: list[tuple] = []
        self.names: dict[str, str] = {}  # traced name -> layer
        self._stack: list[list[int]] = []  # [span id, child ns] per active call
        self._depth: Counter = Counter()
        self._next_id = 1
        self._op = -1
        self._undo: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, short: str, fn):
        name = f"{layer}.{short}"
        self.names[name] = layer
        key_of = DISTINCT.get(name)
        keep_span = name not in HOT
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if key_of is not None:
                tracer.distinct[name].add(key_of(*args))
            stack = tracer._stack
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            tracer._depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer._depth[name] -= 1
                duration = end - start
                if not tracer._depth[name]:
                    tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    tracer.spans.append((frame[0], parent, name, start, end, tracer._op))

        return traced

    def _targets(self):
        """(layer, short name, owner, attribute) for everything traced."""
        modules = {layer: sys.modules[f"opoly.{layer}"] for layer in LAYERS}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and (layer, attr) not in SKIP):
                    yield layer, attr, module, attr
            for cls_name, attr, short in METHODS.get(layer, ()):
                owner = getattr(module, cls_name) if cls_name else module
                yield layer, short, owner, attr

    def install(self) -> None:
        import opoly  # noqa: F401  (the caller has put the checkout's src/ on sys.path)
        holders = [m for name, m in sys.modules.items()
                   if name == "opoly" or name.startswith("opoly.")]
        for layer, short, owner, attr in list(self._targets()):
            original = vars(owner)[attr]
            traced = self._wrap(layer, short, original)
            if isinstance(owner, type):
                self._undo.append((setattr, owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in holders:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((setattr, module, name, original))
                        setattr(module, name, traced)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._undo.append((dict.__setitem__, value, key, original))
                                value[key] = traced

    def uninstall(self) -> None:
        while self._undo:
            restore, holder, key, original = self._undo.pop()
            restore(holder, key, original)

    def operation(self, index: int, call):
        """Run one benchmark operation with its spans tagged by index."""
        self._op = index
        try:
            return call()
        finally:
            self._op = -1

    # -- results ------------------------------------------------------------

    def wrapper_ms(self) -> float:
        """The time the wrappers themselves added, from a calibration.

        A lower estimate: it leaves out the distinct-key bookkeeping of the
        functions in DISTINCT.
        """
        with_span, without_span = wrapper_cost_ns()
        return sum(calls * (without_span if name in HOT else with_span)
                   for name, calls in self.calls.items()) / 1e6

    def layer_metrics(self, traced_ops_per_s: float, untraced_ops_per_s: float,
                      traced_wall_ms: float) -> dict:
        ms = 1e-6
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            names = [n for n, owner in self.names.items() if owner == layer]
            out[f"{layer}.self_ms"] = (sum(self.self_ns[n] for n in names) * ms, "ms")
            out[f"{layer}.errors"] = (sum(self.errors[n] for n in names), "count")
        for name in REPORTED_CALLS:
            out[f"{name}.calls"] = (self.calls[name], "count")
        for name in REPORTED_TOTALS:
            out[f"{name}.total_ms"] = (self.total_ns[name] * ms, "ms")
        for name in REPORTED_DISTINCT:
            seen = len(self.distinct[name])
            out[f"{name}.calls_per_distinct"] = (self.calls[name] / seen if seen else 0.0, "ratio")
        out["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
        out["trace.untraced_ops_per_s"] = (untraced_ops_per_s, "1/s")
        out["trace.overhead_pct"] = ((untraced_ops_per_s / traced_ops_per_s - 1) * 100, "%")
        wrappers = self.wrapper_ms()
        out["trace.wrapper_overhead_pct"] = (wrappers / (traced_wall_ms - wrappers) * 100, "%")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-function totals."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "op": op}) + "\n")
            fh.write(json.dumps({"functions": {
                name: {"calls": self.calls[name], "total_ms": self.total_ns[name] / 1e6,
                       "self_ms": self.self_ns[name] / 1e6, "errors": self.errors[name]}
                for name in sorted(self.names)}}) + "\n")


def wrapper_cost_ns(calls: int = 50_000) -> tuple[float, float]:
    """Nanoseconds one wrapped call adds, with a span kept and without."""
    def noop():
        return None

    probe = Tracer()
    costs = []
    for traced in (probe._wrap("cli", "probe", noop), probe._wrap("algebra", "poly_mul", noop)):
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        middle = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        end = time.perf_counter_ns()
        costs.append(((end - middle) - (middle - start)) / calls)
    return costs[0], costs[1]

