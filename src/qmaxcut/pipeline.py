"""Instrumented quantum-classical pipeline around the variational solver.

A run walks three stages -- ``preprocess``, ``quantum`` (the
variational loop), ``postprocess`` (local refinement and report
assembly).  ``preprocess`` does no work (the configs check themselves,
and :func:`run_qaoa`'s workspace checks the qubit cap), so it reads
``0.0``; ``postprocess`` is timed here with ``time.perf_counter``;
``quantum`` is :func:`run_qaoa`'s own ``elapsed``.

Every objective evaluation inside the quantum stage stands for one
circuit job handed to an accelerator, plus one more for the final state
preparation, so ``offload_count = n_evaluations + 1``.  That holds
whatever computed the value on this host: a depth-1 evaluation done in
closed form still counts as one job, as it would on hardware, and so does
one whose zero-angle layers ran no kernel, one whose circuit the host had
already simulated, and a final state the host kept from the best
evaluation (see :class:`qmaxcut.simulator.FlipSymmetricWorkspace`).
The report prices that traffic at a configurable per-offload latency:
``simulated_comm_overhead = offload_count * offload_latency``.  The
overhead is bookkeeping only; nothing sleeps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .graph import CutAssignment, Graph, labels_from_index
from .qaoa import QaoaConfig, QaoaResult, run_qaoa

STAGES = ("preprocess", "quantum", "postprocess")


@dataclass(frozen=True)
class PipelineConfig:
    qaoa: QaoaConfig
    offload_latency: float = 0.0
    postprocess_refine: bool = True

    def __post_init__(self):
        # ``not 0 <= x < inf`` also refuses NaN, for which every comparison is False.
        if not 0 <= self.offload_latency < math.inf:
            raise ValueError(f"latency must be finite and non-negative, got {self.offload_latency}")


@dataclass(frozen=True)
class PipelineReport:
    final_cut: CutAssignment
    qaoa_result: QaoaResult
    offload_count: int
    simulated_comm_overhead: float
    stage_timings: dict[str, float] = field(default_factory=dict)

    def as_kv_lines(self) -> list[str]:
        """Flat ``key=value`` lines for logs and the CLI."""
        lines = [
            f"cut={self.final_cut.cut_value}",
            f"expectation={self.qaoa_result.best_expectation!r}",
            f"n_evaluations={self.qaoa_result.n_evaluations}",
            f"offload_count={self.offload_count}",
            f"simulated_comm_overhead={self.simulated_comm_overhead!r}",
        ]
        lines.extend(f"{name}_s={self.stage_timings[name]!r}" for name in STAGES)
        return lines


def refine_assignment(g: Graph, assignment: CutAssignment) -> CutAssignment:
    """Single-flip hill climbing until no flip helps.

    Scans vertices in index order, flipping any vertex whose flip
    strictly increases the cut, and repeats until a full pass finds
    nothing.  The result is 1-flip locally optimal and never worse than
    the input.  Deterministic.  The ``-1`` side is a bit mask and each
    count a popcount of :attr:`Graph.neighbours`.
    """
    minus = sum(1 << v for v, x in enumerate(assignment.labels) if x == -1)
    improved = True
    while improved:
        improved = False
        for v, nb in enumerate(g.neighbours):
            # Neighbours on v's own side: flipping v cuts them and uncuts the rest.
            same = (nb & minus if minus >> v & 1 else nb & ~minus).bit_count()
            if 2 * same > nb.bit_count():
                minus ^= 1 << v
                improved = True
    return CutAssignment.from_labels(g, labels_from_index(g.n, minus))


def run_pipeline(g: Graph, cfg: PipelineConfig) -> PipelineReport:
    """Execute the three-stage pipeline and return the instrumented report."""
    result = run_qaoa(g, cfg.qaoa)
    stage_timings = {"preprocess": 0.0, "quantum": result.elapsed}

    t0 = time.perf_counter()
    final_cut = result.best_cut
    if cfg.postprocess_refine:
        final_cut = refine_assignment(g, final_cut)
    offload_count = result.n_evaluations + 1
    overhead = offload_count * cfg.offload_latency
    stage_timings["postprocess"] = time.perf_counter() - t0

    return PipelineReport(
        final_cut=final_cut,
        qaoa_result=result,
        offload_count=offload_count,
        simulated_comm_overhead=overhead,
        stage_timings=stage_timings,
    )
