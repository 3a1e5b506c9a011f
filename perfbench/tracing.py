"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions and methods listed in
``TRACED`` with timing wrappers: module-level functions in every ``qbsc``
module that binds them, methods on their class, the ``compare`` command's
callback on the click command object. Calls the library makes internally go
through the same bindings, so they are timed too. Each wrapped call becomes a
span (id, name, start, end, parent id, op id); self time is a span's duration
minus its traced children's. A name that no longer exists is reported as
missing and left alone; the untraced benchmark never imports this module's
wrappers.

Spans are kept in memory (capped at ``MAX_SPANS``; calls beyond the cap still
count towards the totals) and written out when the run ends.
"""
from __future__ import annotations

import sys
import time

MODULES = ("cli", "comparator", "circuit", "gates", "simulate", "resources", "qasm")

TRACED = {
    "cli": ("cmd_compare.callback",),
    "comparator": ("build_gqbsc", "compare", "encode_operands", "reference_flags",
                   "soundness_check_exhaustive", "soundness_check_random"),
    "circuit": ("static_census", "structural_depth", "circuit_to_json", "circuit_from_json"),
    "gates": ("lower_circuit",),
    "simulate": ("ClassicalRunner.__init__", "ClassicalRunner.run_bits", "ClassicalRunner.run",
                 "ClassicalRunner.run_value", "DenseRunner.__init__", "DenseRunner.run",
                 "DenseRunner.run_value", "sample", "run_classical", "run_dense"),
    "resources": ("measured_report",),
    "qasm": ("export", "parse"),
}

ROOTS = ("bench.setup", "bench.op")
MAX_SPANS = 50_000


def _add(counters: dict, key: str, value: int):
    counters[key] = counters.get(key, 0) + value


def _count_measured(result, counters: dict):
    if result.executed_cost is not None:
        _add(counters, "executed_cost", result.executed_cost)
        _add(counters, "static_cost", result.static_cost)


# Counts read off a traced call's result, by span name.
_RESULT_COUNTS = {
    "comparator.build_gqbsc": lambda r, c: _add(c, "instructions", len(r.instructions)),
    "qasm.export": lambda r, c: _add(c, "qasm_bytes", len(r.encode())),
    "gates.lower_circuit": lambda r, c: _add(c, "lowered_instructions", len(r.instructions)),
    "resources.measured_report": _count_measured,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}      # name -> [calls, inclusive s, self s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.missing: list[str] = []
        self._stack: list[list] = []          # [span id, child seconds]
        self._seq = 0
        self._op = -1
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        import qbsc

        self.missing = []
        modules = [m for name, m in sys.modules.items()
                   if name == "qbsc" or name.startswith("qbsc.")]
        for mod_name, paths in TRACED.items():
            module = getattr(qbsc, mod_name, None)
            for path in paths:
                name = f"{mod_name}.{path}"
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if owner is module:
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._undo.append((m, key, original))
                                setattr(m, key, wrapper)
                else:
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        count = _RESULT_COUNTS.get(name)
        stack, spans, counters = self._stack, self.spans, self.counters
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._seq += 1
            frame = [tracer._seq, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((frame[0], name, start, end, parent, tracer._op))
                else:
                    tracer.dropped += 1
            if count is not None:
                count(result, counters)
            return result

        return wrapper

    # -- op boundaries --------------------------------------------------------

    def run_op(self, i: int, fn, *args):
        """Run ``fn`` traced under a root span: ``bench.op`` for op ``i``,
        ``bench.setup`` for the workload's fixtures (``i`` = -1)."""
        self._op = i
        self.active = True
        try:
            return self._wrap(ROOTS[i >= 0], fn)(*args)
        finally:
            self.active = False

    # -- results --------------------------------------------------------------

    def _get(self, name: str, field: int) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[field]

    def metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        calls = lambda *names: sum(self._get(n, 0) for n in names)
        incl = lambda *names: sum(self._get(n, 1) for n in names)
        own = lambda *names: sum(self._get(n, 2) for n in names)
        classical = ("simulate.ClassicalRunner.run_bits", "simulate.ClassicalRunner.run",
                     "simulate.ClassicalRunner.run_value")
        dense = ("simulate.DenseRunner.run", "simulate.DenseRunner.run_value")
        inits = ("simulate.ClassicalRunner.__init__", "simulate.DenseRunner.__init__")
        static = self.counters.get("static_cost", 0)
        run_calls = calls(*classical)
        m = {
            "simulate.classical_run_s": (incl(*classical), "s"),
            "simulate.classical_calls": (run_calls, "count"),
            "simulate.us_per_run": (1e6 * incl(*classical) / run_calls if run_calls else 0.0, "us"),
            "comparator.reference_flags_s": (incl("comparator.reference_flags"), "s"),
            "comparator.soundness_s": (incl("comparator.soundness_check_exhaustive",
                                            "comparator.soundness_check_random"), "s"),
            "simulate.sample_s": (incl("simulate.sample"), "s"),
            "simulate.shots": (calls("simulate.ClassicalRunner.run_value",
                                     "simulate.DenseRunner.run_value"), "count"),
            "simulate.dense_run_s": (incl(*dense), "s"),
            "simulate.dense_calls": (calls(*dense), "count"),
            "simulate.compile_s": (own(*inits), "s"),
            "comparator.build_s": (incl("comparator.build_gqbsc"), "s"),
            "comparator.build_calls": (calls("comparator.build_gqbsc"), "count"),
            "circuit.instructions": (self.counters.get("instructions", 0), "count"),
            "circuit.static_census_s": (incl("circuit.static_census"), "s"),
            "circuit.structural_depth_s": (incl("circuit.structural_depth"), "s"),
            "circuit.to_json_s": (incl("circuit.circuit_to_json"), "s"),
            "circuit.from_json_s": (incl("circuit.circuit_from_json"), "s"),
            "qasm.export_s": (incl("qasm.export"), "s"),
            "qasm.parse_s": (incl("qasm.parse"), "s"),
            "qasm.bytes": (self.counters.get("qasm_bytes", 0), "bytes"),
            "gates.lower_s": (incl("gates.lower_circuit"), "s"),
            "gates.lowered_instructions": (self.counters.get("lowered_instructions", 0), "count"),
            "resources.measured_report_s": (incl("resources.measured_report"), "s"),
            "resources.executed_over_static": (
                self.counters.get("executed_cost", 0) / static if static else 0.0, "frac"),
            "cli.compare_s": (incl("cli.cmd_compare.callback"), "s"),
            "cli.compare_self_s": (own("cli.cmd_compare.callback"), "s"),
        }
        for module, row in self.modules().items():
            m[f"{module}.self_s"] = (row["self_s"], "s")
            m[f"{module}.share"] = (row["share"], "frac")
            m[f"{module}.calls"] = (row["calls"], "count")
        m["trace.overhead_frac"] = (overhead_frac, "frac")
        m["trace.missing"] = (len(self.missing), "count")
        return m

    def wall(self) -> float:
        """Traced wall time: fixtures plus ops."""
        return sum(self._get(name, 1) for name in ROOTS)

    def untraced(self) -> float:
        """Time under the roots outside any traced library call."""
        return sum(self._get(name, 2) for name in ROOTS)

    def modules(self) -> dict[str, dict]:
        """One row per module: self time, share of traced wall time, calls."""
        wall = self.wall()
        rows = {}
        for module in MODULES:
            names = [n for n in self.stats if n.startswith(module + ".")]
            self_s = sum(self.stats[n][2] for n in names)
            rows[module] = {
                "self_s": self_s,
                "share": self_s / wall if wall else 0.0,
                "calls": sum(self.stats[n][0] for n in names),
                "missing": [n for n in self.missing if n.startswith(module + ".")],
            }
        return rows

    def span_dump(self) -> dict:
        return {"fields": ["id", "name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans, "dropped": self.dropped}
