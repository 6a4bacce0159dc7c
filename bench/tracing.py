"""Outside-in tracing of qmaxcut for the benchmark's traced run.

The tracer wraps public functions of each module by rebinding every
name that refers to them in every loaded ``qmaxcut`` module, so a call
made through any import site records a span.  A span is
``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` is the benchmark operation
that was running.  Spans stay in memory until the run ends.

Counts that need a call's arguments or result (bytes the mixer moves,
evaluations that improved or repeated, refinements that helped) are
taken at the same boundaries.  The per-layer metrics are derived from
the spans and those counts by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

# Functions traced, as "<module>.<function>"; the module is a qmaxcut
# submodule that defines (or, for ``minimize``, imports) the function.
TRACED = (
    "graph.generate_random_graph",
    "graph.cut_values_by_basis",
    "classical.brute_force_maxcut",
    "classical.greedy_maxcut",
    "simulator.init_uniform",
    "simulator.apply_cost_layer",
    "simulator.apply_mixer_layer",
    "simulator.apply_qaoa_circuit",
    "simulator.expectation_cut",
    "simulator.sample_bitstrings",
    "qaoa.evaluate_params",
    "qaoa.optimize_params",
    "qaoa.minimize",
    "qaoa.run_qaoa",
    "pipeline.run_pipeline",
    "pipeline.refine_assignment",
    "cli.main",
)

# Per-layer metrics reported by the traced run: (name, unit).
PER_LAYER = (
    ("graph.generate_random_graph.calls", "count"),
    ("graph.generate_random_graph.s", "s"),
    ("graph.cut_values_by_basis.calls", "count"),
    ("graph.cut_values_by_basis.s", "s"),
    ("simulator.init_uniform.calls", "count"),
    ("simulator.init_uniform.s", "s"),
    ("simulator.apply_cost_layer.calls", "count"),
    ("simulator.apply_cost_layer.s", "s"),
    ("simulator.apply_mixer_layer.calls", "count"),
    ("simulator.apply_mixer_layer.s", "s"),
    ("simulator.apply_mixer_layer.gb_per_s_computed", "GB/s"),
    ("simulator.apply_mixer_layer.share_of_eval", "ratio"),
    ("simulator.expectation_cut.calls", "count"),
    ("simulator.expectation_cut.s", "s"),
    ("simulator.apply_qaoa_circuit.calls", "count"),
    ("simulator.apply_qaoa_circuit.self_s", "s"),
    ("simulator.sample_bitstrings.calls", "count"),
    ("simulator.sample_bitstrings.s", "s"),
    ("qaoa.evaluate_params.calls", "count"),
    ("qaoa.evaluate_params.s", "s"),
    ("qaoa.evaluate_params.self_s", "s"),
    ("qaoa.evaluate_params.ms_p50", "ms"),
    ("qaoa.evaluate_params.ms_tail", "ms"),
    ("qaoa.evaluate_params.tail_pct", "%"),
    ("qaoa.optimize_params.calls", "count"),
    ("qaoa.optimize_params.s", "s"),
    ("qaoa.optimize_params.self_s", "s"),
    ("qaoa.minimize.calls", "count"),
    ("qaoa.minimize.self_s", "s"),
    ("qaoa.run_qaoa.calls", "count"),
    ("qaoa.run_qaoa.s", "s"),
    ("qaoa.run_qaoa.self_s", "s"),
    ("qaoa.improving_eval_frac", "ratio"),
    ("qaoa.repeat_eval_frac", "ratio"),
    ("classical.brute_force_maxcut.calls", "count"),
    ("classical.brute_force_maxcut.s", "s"),
    ("classical.greedy_maxcut.calls", "count"),
    ("classical.greedy_maxcut.s", "s"),
    ("pipeline.run_pipeline.calls", "count"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("pipeline.refine_assignment.calls", "count"),
    ("pipeline.refine_assignment.s", "s"),
    ("pipeline.refine_improved_frac", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace_overhead_frac", "ratio"),
)

_AMPLITUDE_BYTES = 16  # complex128


def tail_index(count: int) -> int | None:
    """Sorted index of the tail sample: the highest percentile with at
    least 10 samples beyond it.  ``None`` below 11 samples."""
    return count - 11 if count >= 11 else None


def tail(values) -> tuple[float, float, int] | None:
    """``(value, percentile, samples)`` under the :func:`tail_index` rule."""
    ordered = sorted(values)
    k = tail_index(len(ordered))
    if k is None:
        return None
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder plus the boundary counts the per-layer metrics need."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.mixer_bytes = 0
        self.evaluations = 0
        self.improving_evaluations = 0
        self.repeat_evaluations = 0
        self.refines = 0
        self.refines_improved = 0
        self.qaoa_result_evaluations = 0
        self._stack: list[int] = []
        self._best: list[float] = []  # best-so-far of each open optimize_params
        self._seen: list[set] = []  # angle vectors of each open run_qaoa
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self):
        """Rebind every traced function in every loaded qmaxcut module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "qmaxcut" or k.startswith("qmaxcut."))]
        for target in TRACED:
            module_name, func_name = target.split(".")
            original = getattr(sys.modules[f"qmaxcut.{module_name}"], func_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        enter = getattr(self, "_enter_" + name.split(".")[1], None)
        leave = getattr(self, "_leave_" + name.split(".")[1], None)
        after = getattr(self, "_after_" + name.split(".")[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            if enter is not None:
                enter(args, kwargs)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if leave is not None:
                    leave()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- boundary counts ----------------------------------------------

    def _enter_apply_mixer_layer(self, args, kwargs):
        n = (args[0] if args else kwargs["sv"]).n_qubits
        # n qubit passes, each reading and writing 2**n amplitudes.
        self.mixer_bytes += n * 2 * (1 << n) * _AMPLITUDE_BYTES

    def _enter_optimize_params(self, args, kwargs):
        self._best.append(-np.inf)

    def _leave_optimize_params(self):
        self._best.pop()

    def _enter_run_qaoa(self, args, kwargs):
        self._seen.append(set())

    def _leave_run_qaoa(self):
        self._seen.pop()

    def _after_run_qaoa(self, args, kwargs, result):
        self.qaoa_result_evaluations += result.n_evaluations

    def _after_evaluate_params(self, args, kwargs, value):
        self.evaluations += 1
        params = args[1] if len(args) > 1 else kwargs["params"]
        if self._seen:
            key = np.asarray(params.gammas + params.betas, dtype=float).tobytes()
            if key in self._seen[-1]:
                self.repeat_evaluations += 1
            self._seen[-1].add(key)
        if self._best and value > self._best[-1]:
            self.improving_evaluations += 1
            self._best[-1] = value

    def _after_refine_assignment(self, args, kwargs, result):
        before = args[1] if len(args) > 1 else kwargs["assignment"]
        self.refines += 1
        self.refines_improved += result.cut_value > before.cut_value


def layer_metrics(tracer: Tracer, *, bytes_written: int, overhead_frac: float) -> dict:
    """Per-layer metrics named in :data:`PER_LAYER`, as ``{name: value}``."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    eval_ms = []
    in_eval: list[bool] = []  # span runs inside an evaluate_params call
    mixer_in_eval_s = 0.0
    for span, own in zip(tracer.spans, selfs):
        name, start, end, parent = span[0], span[1], span[2], span[3]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        excl[name] = excl.get(name, 0.0) + own
        inside = parent >= 0 and in_eval[parent]  # parents precede children
        in_eval.append(inside or name == "qaoa.evaluate_params")
        if name == "qaoa.evaluate_params":
            eval_ms.append(1e3 * (end - start))
        elif name == "simulator.apply_mixer_layer" and inside:
            mixer_in_eval_s += end - start

    def ratio(num, den):
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        base, _, measure = name.rpartition(".")
        if measure == "calls":
            values[name] = calls.get(base, 0)
        elif measure == "s":
            values[name] = incl.get(base, 0.0)
        elif measure == "self_s":
            values[name] = excl.get(base, 0.0)
    mixer_s = incl.get("simulator.apply_mixer_layer", 0.0)
    eval_s = incl.get("qaoa.evaluate_params", 0.0)
    eval_tail = tail(eval_ms)
    values.update({
        "simulator.apply_mixer_layer.gb_per_s_computed": ratio(tracer.mixer_bytes / 1e9, mixer_s),
        "simulator.apply_mixer_layer.share_of_eval": ratio(mixer_in_eval_s, eval_s),
        "qaoa.evaluate_params.ms_p50": statistics.median(eval_ms) if eval_ms else 0.0,
        "qaoa.evaluate_params.ms_tail": eval_tail[0] if eval_tail else 0.0,
        "qaoa.evaluate_params.tail_pct": eval_tail[1] if eval_tail else 0.0,
        "qaoa.improving_eval_frac": ratio(tracer.improving_evaluations, tracer.evaluations),
        "qaoa.repeat_eval_frac": ratio(tracer.repeat_evaluations, tracer.evaluations),
        "pipeline.refine_improved_frac": ratio(tracer.refines_improved, tracer.refines),
        "cli.bytes_written": bytes_written,
        "trace_overhead_frac": overhead_frac,
    })
    return {name: values[name] for name, _ in PER_LAYER}
