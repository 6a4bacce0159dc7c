"""Instrumented quantum-classical pipeline around the variational solver.

A run walks two stages: ``quantum`` (:func:`run_qaoa`, timed by its own
``elapsed``) and ``postprocess`` (local refinement and report assembly,
``postprocess_s``, timed here with ``time.perf_counter``); each time is
stored once.  The report's ``offload_count`` and
``simulated_comm_overhead`` are :func:`hybrid_cost`'s; nothing sleeps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .graph import CutAssignment, Graph, _check_labels, labels_from_index
from .qaoa import QaoaConfig, QaoaResult, run_qaoa


@dataclass(frozen=True)
class PipelineConfig:
    qaoa: QaoaConfig
    offload_latency: float = 0.0
    postprocess_refine: bool = True

    def __post_init__(self):
        # ``not 0 <= x < inf`` also refuses NaN, for which every comparison is False.
        if not 0 <= self.offload_latency < math.inf:
            raise ValueError(f"latency must be finite and non-negative, got {self.offload_latency}")
        # ``0 <= -0.0`` holds too; adding +0.0 turns -0.0 into 0.0 and nothing else.
        object.__setattr__(self, "offload_latency", self.offload_latency + 0.0)


@dataclass(frozen=True)
class PipelineReport:
    final_cut: CutAssignment
    qaoa_result: QaoaResult
    offload_count: int
    simulated_comm_overhead: float
    postprocess_s: float

    def as_kv_lines(self) -> list[str]:
        """Flat ``key=value`` lines for logs and the CLI."""
        return [
            f"cut={self.final_cut.cut_value}",
            f"expectation={self.qaoa_result.best_expectation!r}",
            f"n_evaluations={self.qaoa_result.n_evaluations}",
            f"offload_count={self.offload_count}",
            f"simulated_comm_overhead={self.simulated_comm_overhead!r}",
            f"quantum_s={self.qaoa_result.elapsed!r}",
            f"postprocess_s={self.postprocess_s!r}",
        ]


def refine_assignment(g: Graph, assignment: CutAssignment) -> CutAssignment:
    """Single-flip hill climbing until no flip helps.

    Scans vertices in index order, flipping any vertex whose flip
    strictly increases the cut, and repeats until a full pass finds
    nothing.  The result is 1-flip locally optimal and never worse than
    the input.  Deterministic.  Labels of another length than ``g``'s
    vertex count raise ``ValueError``.
    """
    _check_labels(g, assignment.labels)
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


def hybrid_cost(g: Graph, p: int, n_evaluations: int, offload_latency: float) -> dict:
    """The hybrid cost model of a depth-``p`` run on ``g`` that evaluated
    its objective ``n_evaluations`` times, in elementary operations:

    * ``"jobs"``: ``n_evaluations + 1`` circuit jobs handed to an
      accelerator, one per objective evaluation, however this host valued
      it, and one for the final state preparation, as on hardware;
    * ``"overhead"``: ``jobs * offload_latency`` seconds of traffic;
    * ``"greedy"``: ``n + m`` steps of the greedy heuristic;
    * ``"gates per job"``: ``n + p*(m + n)`` gates, the initial Hadamards,
      then per layer one ZZ phase per edge and one X rotation per qubit
      (a warm-start ladder's lower rungs are counted at depth ``p`` too);
    * ``"qaoa"``: ``jobs * gates per job`` gates;
    * ``"brute force"``: ``2**(n-1) * m`` edge checks, every cut with
      vertex 0's side fixed.
    """
    jobs, gates = n_evaluations + 1, g.n + p * (g.m + g.n)
    return {"jobs": jobs, "overhead": jobs * offload_latency, "greedy": g.n + g.m,
            "gates per job": gates, "qaoa": jobs * gates, "brute force": (1 << (g.n - 1)) * g.m}


def run_pipeline(g: Graph, cfg: PipelineConfig) -> PipelineReport:
    """Execute the two-stage pipeline and return the instrumented report."""
    result = run_qaoa(g, cfg.qaoa)

    t0 = time.perf_counter()
    final_cut = result.best_cut
    if cfg.postprocess_refine:
        final_cut = refine_assignment(g, final_cut)
    cost = hybrid_cost(g, cfg.qaoa.p, result.n_evaluations, cfg.offload_latency)
    postprocess_s = time.perf_counter() - t0

    return PipelineReport(
        final_cut=final_cut,
        qaoa_result=result,
        offload_count=cost["jobs"],
        simulated_comm_overhead=cost["overhead"],
        postprocess_s=postprocess_s,
    )
