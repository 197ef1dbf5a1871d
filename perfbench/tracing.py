"""Outside-in tracing: wrap ketsim's public functions where they are called from.

ketsim's modules import each other's functions by name (``cli`` holds
its own ``evolve``, ``collapse``, ``validate``, ...), and ``dynamics``
reaches ``step`` and ``mat_vec`` through module globals.  So every
module attribute that *is* a traced function is replaced, not only the
one in the defining module, and everything is restored by ``remove``.
Dataclass constructors are traced through ``__post_init__``.

Each call leaves a span (name, start_ns, end_ns, parent, op_id) in
memory, one array per field so that a million spans stay small;
per-layer metrics are derived from the spans when the run ends.
A few counters that need a call's arguments or result (edge lines,
strict-mode calls, oracle queries, computed bytes) are taken after the
span closes, so they do not count as busy time.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# span name -> (module, attribute); a dotted attribute is a method on a class.
TARGETS = {
    "cli.main": ("ketsim.cli", "main"),
    "cli.parse_graph": ("ketsim.cli", "parse_graph"),
    "cli.parse_state": ("ketsim.cli", "parse_state"),
    "algebra.validate": ("ketsim.algebra", "validate"),
    "algebra.mat_vec": ("ketsim.algebra", "mat_vec"),
    "dynamics.RegimeSystem": ("ketsim.dynamics", "RegimeSystem.__post_init__"),
    "dynamics.evolve": ("ketsim.dynamics", "evolve"),
    "dynamics.step": ("ketsim.dynamics", "step"),
    "measurement.collapse": ("ketsim.measurement", "collapse"),
    "measurement.basis_distribution": ("ketsim.measurement", "basis_distribution"),
    "measurement.spectral_decompose": ("ketsim.measurement", "spectral_decompose"),
    "measurement.is_product_state": ("ketsim.measurement", "is_product_state"),
    "gates.circuit_matrix": ("ketsim.gates", "circuit_matrix"),
    "gates.Gate": ("ketsim.gates", "Gate.__post_init__"),
    "gates.apply": ("ketsim.gates", "apply"),
    "deutsch.run_deutsch": ("ketsim.deutsch", "run_deutsch"),
    "deutsch.oracle_matrix": ("ketsim.deutsch", "oracle_matrix"),
    "experiments.scenario": ("ketsim.experiments", "scenario"),
    "experiments.run_scenario": ("ketsim.experiments", "run_scenario"),
}

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.parse_graph.busy_s": "s",
    "cli.parse_graph.edge_lines": "count",
    "cli.parse_state.busy_s": "s",
    "algebra.validate.calls": "count",
    "algebra.validate.busy_s": "s",
    "algebra.mat_vec.calls": "count",
    "algebra.mat_vec.busy_s": "s",
    "dynamics.RegimeSystem.busy_s": "s",
    "dynamics.evolve.calls": "count",
    "dynamics.evolve.busy_s": "s",
    "dynamics.step.calls": "count",
    "dynamics.step.self_s": "s",
    "dynamics.strict_check_useful_ratio": "ratio",
    "dynamics.evolve.computed_bytes": "B",
    "dynamics.evolve.computed_flops": "flop",
    "measurement.collapse.calls": "count",
    "measurement.collapse.busy_s": "s",
    "measurement.basis_distribution.calls": "count",
    "measurement.distribution_reuse_ratio": "ratio",
    "measurement.spectral_decompose.calls": "count",
    "measurement.spectral_decompose.busy_s": "s",
    "measurement.is_product_state.calls": "count",
    "measurement.is_product_state.busy_s": "s",
    "gates.circuit_matrix.calls": "count",
    "gates.circuit_matrix.busy_s": "s",
    "gates.circuit_matrix.computed_bytes": "B",
    "gates.Gate.constructions": "count",
    "gates.validate.calls": "count",
    "gates.validation_useful_ratio": "ratio",
    "gates.apply.calls": "count",
    "gates.apply.busy_s": "s",
    "deutsch.run_deutsch.calls": "count",
    "deutsch.run_deutsch.busy_s": "s",
    "deutsch.oracle_queries_per_run": "count",
    "experiments.scenario.busy_s": "s",
    "experiments.run_scenario.calls": "count",
    "experiments.run_scenario.busy_s": "s",
    "experiments.checks_passed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is absent on this workload reads 0."""
    return num / den if den else 0.0


def _edge_lines(text: str) -> int:
    return sum(1 for raw in text.splitlines() if raw.split("#", 1)[0].strip()) - 1


def _click_cost(matrix: np.ndarray) -> tuple[int, int]:
    """Computed bytes and flops of one ``m @ x`` click: read m and x, write y."""
    n = matrix.shape[0]
    size = matrix.dtype.itemsize
    flops_per_entry = 8 if np.iscomplexobj(matrix) else 2
    return size * (n * n + 2 * n), flops_per_entry * n * n


class Tracer:
    """Installs span-recording wrappers on a freshly imported ketsim."""

    def __init__(self):
        self.names = list(TARGETS)
        self.span_name = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.oracles: dict[int, object] = {}  # id -> oracle gate, kept alive so ids stay unique
        self.largest_matrix_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "ketsim" or name.startswith("ketsim.")]
        for span, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(span, getattr(cls, meth), modname))
                continue
            original = getattr(owner, attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, self._wrap(span, original, mod.__name__))

    def remove(self) -> None:
        for obj, name, value in reversed(self._restore):
            setattr(obj, name, value)
        self._restore.clear()

    def _patch(self, obj, name: str, wrapper) -> None:
        self._restore.append((obj, name, getattr(obj, name)))
        setattr(obj, name, wrapper)

    def _wrap(self, span: str, fn, site: str):
        stack, active = self.stack, self.active
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        code = self.names.index(span)
        observe = getattr(self, "_observe_" + span.replace(".", "_"), None)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            active[span] += 1
            result = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[idx] = clock()
                active[span] -= 1
                stack.pop()
                if observe is not None:
                    observe(site, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------- argument counters

    def _observe_cli_main(self, site, args, result):
        argv = args[0] if args else None
        if argv and argv[0] == "sample" and result == 0:
            self.counters["sampled_states"] += 1

    def _observe_cli_parse_graph(self, site, args, result):
        self.counters["edge_lines"] += _edge_lines(args[0])
        if result is not None:
            self.largest_matrix_bytes = max(self.largest_matrix_bytes, result.nbytes)

    def _observe_algebra_validate(self, site, args, result):
        if site == "ketsim.gates":
            self.counters["gates_validate"] += 1

    def _observe_dynamics_step(self, site, args, result):
        if args[0].mode == "strict":
            self.counters["strict_steps"] += 1

    def _observe_dynamics_evolve(self, site, args, result):
        if result is None:
            return
        system, steps = args[0], int(args[2])
        if system.mode == "strict":
            self.counters["strict_evolves"] += 1
        nbytes, flops = _click_cost(system.matrix)
        self.counters["evolve_bytes"] += steps * nbytes
        self.counters["evolve_flops"] += steps * flops

    def _observe_dynamics_RegimeSystem(self, site, args, result):
        self.largest_matrix_bytes = max(self.largest_matrix_bytes, args[0].matrix.nbytes)

    def _observe_gates_Gate(self, site, args, result):
        nbytes = args[0].matrix.nbytes
        self.largest_matrix_bytes = max(self.largest_matrix_bytes, nbytes)
        if self.active["gates.circuit_matrix"]:
            self.counters["circuit_bytes"] += nbytes

    def _observe_gates_circuit_matrix(self, site, args, result):
        self.counters["gates_placed"] += sum(len(layer) for layer in args[0].layers)

    def _observe_gates_apply(self, site, args, result):
        if id(args[0]) in self.oracles:
            self.counters["oracle_queries"] += 1

    def _observe_deutsch_oracle_matrix(self, site, args, result):
        if result is not None:
            self.oracles[id(result)] = result

    def _observe_measurement_spectral_decompose(self, site, args, result):
        self.largest_matrix_bytes = max(self.largest_matrix_bytes, np.asarray(args[0]).nbytes)

    def _observe_experiments_run_scenario(self, site, args, result):
        if result is not None:
            self.counters["checks"] += len(result.checks)
            self.counters["checks_passed"] += sum(c.passed for c in result.checks)

    # ------------------------------------------------------------ report

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: calls, busy ns, and ns covered by direct child spans."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, int] = defaultdict(int)
        child: dict[str, int] = defaultdict(int)
        names, codes = self.names, self.span_name
        for code, start, end, parent in zip(codes, self.span_start, self.span_end, self.span_parent):
            calls[names[code]] += 1
            busy[names[code]] += end - start
            if parent >= 0:
                child[names[codes[parent]]] += end - start
        return calls, busy, child

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics, each averaged over ``passes`` identical passes of the op pool."""
        calls, busy, child = self.totals()
        c = self.counters

        def secs(ns):
            return ns / 1e9 / passes

        def per(x):
            return x / passes

        return {
            "cli.main.calls": per(calls["cli.main"]),
            "cli.main.self_s": secs(busy["cli.main"] - child["cli.main"]),
            "cli.parse_graph.busy_s": secs(busy["cli.parse_graph"]),
            "cli.parse_graph.edge_lines": per(c["edge_lines"]),
            "cli.parse_state.busy_s": secs(busy["cli.parse_state"]),
            "algebra.validate.calls": per(calls["algebra.validate"]),
            "algebra.validate.busy_s": secs(busy["algebra.validate"]),
            "algebra.mat_vec.calls": per(calls["algebra.mat_vec"]),
            "algebra.mat_vec.busy_s": secs(busy["algebra.mat_vec"]),
            "dynamics.RegimeSystem.busy_s": secs(busy["dynamics.RegimeSystem"]),
            "dynamics.evolve.calls": per(calls["dynamics.evolve"]),
            "dynamics.evolve.busy_s": secs(busy["dynamics.evolve"]),
            "dynamics.step.calls": per(calls["dynamics.step"]),
            "dynamics.step.self_s": secs(busy["dynamics.step"] - child["dynamics.step"]),
            "dynamics.strict_check_useful_ratio": _ratio(c["strict_evolves"], c["strict_steps"]),
            "dynamics.evolve.computed_bytes": per(c["evolve_bytes"]),
            "dynamics.evolve.computed_flops": per(c["evolve_flops"]),
            "measurement.collapse.calls": per(calls["measurement.collapse"]),
            "measurement.collapse.busy_s": secs(busy["measurement.collapse"]),
            "measurement.basis_distribution.calls": per(calls["measurement.basis_distribution"]),
            "measurement.distribution_reuse_ratio": _ratio(
                c["sampled_states"], calls["measurement.basis_distribution"]),
            "measurement.spectral_decompose.calls": per(calls["measurement.spectral_decompose"]),
            "measurement.spectral_decompose.busy_s": secs(busy["measurement.spectral_decompose"]),
            "measurement.is_product_state.calls": per(calls["measurement.is_product_state"]),
            "measurement.is_product_state.busy_s": secs(busy["measurement.is_product_state"]),
            "gates.circuit_matrix.calls": per(calls["gates.circuit_matrix"]),
            "gates.circuit_matrix.busy_s": secs(busy["gates.circuit_matrix"]),
            "gates.circuit_matrix.computed_bytes": per(c["circuit_bytes"]),
            "gates.Gate.constructions": per(calls["gates.Gate"]),
            "gates.validate.calls": per(c["gates_validate"]),
            "gates.validation_useful_ratio": _ratio(c["gates_placed"], c["gates_validate"]),
            "gates.apply.calls": per(calls["gates.apply"]),
            "gates.apply.busy_s": secs(busy["gates.apply"]),
            "deutsch.run_deutsch.calls": per(calls["deutsch.run_deutsch"]),
            "deutsch.run_deutsch.busy_s": secs(busy["deutsch.run_deutsch"]),
            "deutsch.oracle_queries_per_run": _ratio(c["oracle_queries"], calls["deutsch.run_deutsch"]),
            "experiments.scenario.busy_s": secs(busy["experiments.scenario"]),
            "experiments.run_scenario.calls": per(calls["experiments.run_scenario"]),
            "experiments.run_scenario.busy_s": secs(busy["experiments.run_scenario"]),
            "experiments.checks_passed_ratio": _ratio(c["checks_passed"], c["checks"]),
            "trace.overhead_ratio": overhead_ratio,
        }

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
        with path.open("w", encoding="utf-8") as fh:
            for code, start, end, parent, op in columns:
                fh.write(json.dumps([self.names[code], start, end, parent, op]) + "\n")
