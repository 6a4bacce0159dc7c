"""Variational driver: classical angle optimization around the simulator.

The objective is the expected cut value of the layered ansatz state,
which we maximize.  At depth 1 it is computed in closed form from
per-edge degrees and triangle counts, in ``O(m)`` with no ``2**n``
state, but under the same qubit cap.  Deeper objectives simulate only
the flip-symmetric half of the register, ``2**(n-1)`` amplitudes (at
n=16, p=2 about 1 ms per evaluation against 4 ms for the full state).
:func:`run_qaoa` checks the cap once and allocates one workspace, 1.25
times the full state's bytes, holding the low half of the cut table it
builds; every evaluation of the run, on every rung of the ladder, the
final state, cut extraction and sampling all run in it.  An evaluation
on it allocates only frame-sized temporaries.  No full cut table or
full-register state is built on any run path.  Optimization is
multi-start Nelder-Mead under a hard evaluation budget:

* Start points are, in order: any warm-start vectors, the all-zero
  vector, then uniform random draws (gamma in [0, 2*pi), beta in
  [0, pi)) until ``restarts`` starts exist.  All draws come from a
  dedicated PCG64 stream derived from ``seed``, fixed before any
  optimization happens, so results are reproducible.
* Every start point is evaluated once up front, then Nelder-Mead runs
  from each in turn with whatever budget remains.  The best parameter
  vector ever *evaluated* is returned, so the result can never be worse
  than the all-zero point -- whose state is the uniform superposition
  with expectation ``m / 2``.
* No call evaluates the objective more than ``budget`` times, enforced
  by a counter around the objective itself.

With ``warm_start`` enabled and no explicit warm parameters, depths
above 1 are optimized as a ladder: depth 1 first, each next depth
seeded with the previous optimum padded by a zero-angle layer, the
budget split evenly across stages.  The ladder only engages when every
stage would get at least two evaluations; otherwise the full depth is
optimized directly.  Its first rung runs on the closed form and the
next on the simulator, so the padded depth-1 optimum can score lower at
depth 2 by rounding, about 1e-14.

Exact zero angles are common: the all-zero start is evaluated up front
and again as Nelder-Mead's ``x0``, scipy's initial simplex around it
moves one coordinate at a time off 0, and the ladder pads each warm
start with a zero layer.  On the n=20 benchmark workload 45% of the
simulated cost and mixer half-layers have an exactly zero angle.  Each
such half-layer is the identity, and the simulator skips it (see
:func:`qmaxcut.simulator._flip_symmetric_state`); the evaluation still
counts toward the budget.

Skipping zeros makes distinct angle vectors the same circuit: the zero
start's second evaluation as Nelder-Mead's ``x0``, and the simplex
points that move ``gamma_1`` or ``gamma_2`` (``beta_1`` or ``beta_2``)
alone.  The workspace stores each simulated value under its circuit,
the ordered half-layers that run, so a repeat returns the same float
without running a kernel; it still counts as an evaluation (on the
n=20 benchmark workload, 3 of every 10 evaluations are repeats).  A
sampled run also keeps the state of each evaluation that improves the
best in a third half-size buffer, so the final state is prepared again
only when the best value came from a repeat.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .graph import CutAssignment, Graph, labels_from_index
from .simulator import (
    FlipSymmetricWorkspace,
    QaoaParams,
    _check_cap,
    _draw,
    _flip_symmetric_expectation,
    _flip_symmetric_probabilities,
    # Unused, but bench/tests/test_bench_harness.py checks that the tracer rebinds it here.
    apply_qaoa_circuit,  # noqa: F401
)

_STREAM_DRAWS = 1
_STREAM_SHOTS = 2


@dataclass(frozen=True)
class QaoaConfig:
    """Knobs for one variational run.

    ``budget`` caps objective evaluations for the whole call (and must
    cover at least one evaluation per restart); ``shots`` selects the
    cut-extraction rule (0 = threshold scan of the exact distribution,
    >0 = sampled bitstrings).  ``cap`` overrides the simulator qubit
    cap for this run.
    """

    p: int
    budget: int = 600
    restarts: int = 3
    shots: int = 0
    seed: int = 0
    warm_start: bool = True
    cap: int | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"depth must be at least 1, got {self.p}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.budget < self.restarts:
            raise ValueError(
                f"budget {self.budget} cannot cover {self.restarts} restarts"
            )
        if self.shots < 0:
            raise ValueError(f"shots must be non-negative, got {self.shots}")


@dataclass(frozen=True)
class QaoaResult:
    best_params: QaoaParams
    best_expectation: float
    best_cut: CutAssignment
    n_evaluations: int
    elapsed: float
    per_stage_timings: dict[str, float]


def depth_one_expectation(g: Graph, gamma: float, beta: float) -> float:
    """Expected cut of the depth-1 ansatz state, in closed form.

    Wang, Hadfield, Jiang & Rieffel (PRA 97, 022304, 2018) give each
    edge's term from its endpoint degrees and triangle count alone.
    With ``d_u = deg(u) - 1``, ``d_v = deg(v) - 1`` and ``f`` the common
    neighbours of ``u`` and ``v`` (see :attr:`Graph.edge_stats`), the
    edge contributes ``1/2 + 1/4 sin(4b) sin(g) (cos(g)**d_u +
    cos(g)**d_v) - 1/4 sin(2b)**2 cos(g)**(d_u + d_v - 2f) (1 -
    cos(2g)**f)``, under this package's layer convention (cost phase
    first, then the mixer).  Costs ``O(m)`` and allocates no state.
    """
    d_u, d_v, f = g.edge_stats.T
    c = math.cos(gamma)
    linear = 0.25 * math.sin(4 * beta) * math.sin(gamma) * (c**d_u + c**d_v)
    quadratic = 0.25 * math.sin(2 * beta) ** 2 * c ** (d_u + d_v - 2 * f)
    triangles = 1.0 - math.cos(2 * gamma) ** f
    return 0.5 * g.m + float(np.sum(linear - quadratic * triangles))


def evaluate_params(
    g: Graph,
    params: QaoaParams,
    *,
    cap: int | None = None,
    workspace: FlipSymmetricWorkspace | None = None,
    _cap_checked: bool = False,
) -> float:
    """Expected cut value of the ansatz state at the given angles.

    The qubit cap is checked first, before any table or state exists,
    so every depth refuses the same instances.  At depth 1 the value
    then comes from :func:`depth_one_expectation` and no state or cut
    table is built.  Deeper circuits are simulated on the half of the
    register that the global bit flip maps onto the other half (see
    :func:`qmaxcut.simulator._flip_symmetric_expectation`), in
    ``workspace`` when one is passed (it must have been built for ``g``)
    and otherwise in a fresh one; the cap is resolved only by the check
    above.  A circuit the workspace has already simulated returns the
    value stored there, the same float, and runs no kernel.
    ``_cap_checked`` is private to :func:`optimize_params`, which checks
    the cap once per call: its evaluations skip the check but still run
    through this function, so that tracing its calls counts every
    evaluation.
    """
    if not _cap_checked:
        _check_cap(g.n, cap)
    if params.p == 1:
        return depth_one_expectation(g, params.gammas[0], params.betas[0])
    if workspace is None:
        workspace = FlipSymmetricWorkspace(g)
    elif workspace.graph is not g:
        raise ValueError("workspace was built for a different graph")
    return _flip_symmetric_expectation(params, workspace)


class _BudgetExhausted(Exception):
    pass


class _Objective:
    """Counting/recording wrapper around the expectation objective."""

    def __init__(self, g: Graph, budget: int, workspace: FlipSymmetricWorkspace | None):
        self._g = g
        self._workspace = workspace
        self.budget = budget
        self.n_evaluations = 0
        self.best_value = -np.inf
        self.best_x: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> float:
        if self.n_evaluations >= self.budget:
            raise _BudgetExhausted
        self.n_evaluations += 1
        value = evaluate_params(
            self._g, QaoaParams.from_flat(x), workspace=self._workspace, _cap_checked=True
        )
        if value > self.best_value:
            self.best_value = value
            self.best_x = np.asarray(x, dtype=float).copy()
            if self._workspace is not None:
                self._workspace.keep()
        return -value  # scipy minimizes


def _draw_starts(p: int, count: int, seed: int, stage: int) -> list[np.ndarray]:
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & ((1 << 64) - 1), _STREAM_DRAWS, stage])
    )
    starts = []
    for _ in range(count):
        gammas = rng.uniform(0.0, 2.0 * np.pi, size=p)
        betas = rng.uniform(0.0, np.pi, size=p)
        starts.append(np.concatenate([gammas, betas]))
    return starts


def optimize_params(
    g: Graph,
    cfg: QaoaConfig,
    *,
    extra_starts: tuple[QaoaParams, ...] = (),
    workspace: FlipSymmetricWorkspace | None = None,
    _stage: int | None = None,
) -> tuple[QaoaParams, float, int]:
    """Maximize the expected cut over angles at depth ``cfg.p``.

    Returns ``(best_params, best_expectation, n_evaluations)``.  See
    the module docstring for the start schedule and budget rules.
    ``extra_starts`` are tried before the standard starts (this is the
    warm-start hook used by :func:`run_qaoa`).  At depth 2 or more every
    evaluation of the call runs in ``workspace``, the run's own (it must
    have been built for ``g``, under the cap).  Without one, the qubit
    cap is checked once, at every depth, and at depth 2 or more one
    workspace is allocated for the call and freed on return; depth 1
    needs none.  No evaluation of the call checks the cap again.
    """
    if workspace is None:
        _check_cap(g.n, cfg.cap)
        workspace = FlipSymmetricWorkspace(g) if cfg.p > 1 else None
    for warm in extra_starts:
        if warm.p != cfg.p:
            raise ValueError(f"start has depth {warm.p}, expected {cfg.p}")

    starts = [w.to_flat() for w in extra_starts]
    starts.append(np.zeros(2 * cfg.p))
    n_draws = max(0, cfg.restarts - len(starts))
    starts.extend(_draw_starts(cfg.p, n_draws, cfg.seed, _stage if _stage is not None else cfg.p))

    objective = _Objective(g, cfg.budget, workspace)
    try:
        for x0 in starts:  # seed best-seen with every start before polishing any
            objective(x0)
        for x0 in starts:
            remaining = objective.budget - objective.n_evaluations
            if remaining < 1:
                break
            minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxfev": remaining},
            )
    except _BudgetExhausted:
        pass

    assert objective.best_x is not None, "budget permitted no evaluations"
    params = QaoaParams.from_flat(objective.best_x)
    return params, float(objective.best_value), objective.n_evaluations


def _pad_params(params: QaoaParams, p: int) -> QaoaParams:
    if params.p > p:
        raise ValueError(f"warm-start depth {params.p} exceeds target depth {p}")
    pad = (0.0,) * (p - params.p)
    return QaoaParams(gammas=params.gammas + pad, betas=params.betas + pad)


def _extract_cut(params: QaoaParams, cfg: QaoaConfig, ws: FlipSymmetricWorkspace) -> CutAssignment:
    """Prepare the final state in ``ws`` and pick the reported cut from it.

    The state is read from the buffer that keeps a sampled run's best
    state when that holds the same circuit, and simulated otherwise.

    ``shots == 0``: best cut among basis states whose exact probability
    is at least ``1 / 2**(n+1)`` (half the uniform weight; the set is
    never empty).  ``shots > 0``: best cut among sampled bitstrings,
    drawn from all ``2**n`` probabilities.  Ties resolve to the smallest
    basis index.  The state's probabilities and cut values are both
    flip-symmetric, so the smallest index among tied maxima always lies
    in the low half: the threshold scan reads the low half alone, and a
    sampled index ``c`` reads the cut of ``min(c, ~c)``.
    """
    n, last = ws.graph.n, (1 << ws.graph.n) - 1
    probs = _flip_symmetric_probabilities(params, ws)
    if cfg.shots == 0:
        # -1 is below every cut, so no state under the threshold wins.
        values = np.where(probs[: ws.low_table.size] >= 1.0 / (1 << (n + 1)), ws.low_table, -1)
        best = int(np.argmax(values))  # first max = smallest index
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed & ((1 << 64) - 1), _STREAM_SHOTS])
        )
        candidates = np.unique(_draw(probs, cfg.shots, rng))
        values = ws.low_table[np.minimum(candidates, last - candidates)]
        best = int(candidates[int(np.argmax(values))])
    return CutAssignment(
        labels=labels_from_index(n, best), cut_value=int(ws.low_table[min(best, last - best)])
    )


def run_qaoa(
    g: Graph,
    cfg: QaoaConfig,
    warm_params: QaoaParams | None = None,
) -> QaoaResult:
    """Full variational run: optimize angles, prepare the state, extract a cut.

    ``warm_params`` (any depth up to ``cfg.p``) is zero-padded to depth
    ``cfg.p`` and tried as the first start; passing the previous
    depth's optimum guarantees the expectation is non-decreasing in
    depth, because the padded point is itself evaluated (up to rounding,
    about 1e-14, when the previous depth was 1 and so evaluated in
    closed form).  Without it,
    ``cfg.warm_start`` controls the internal depth ladder (see module
    docstring).  ``n_evaluations`` counts objective evaluations only;
    the final state preparation is one further circuit application (one
    job in the pipeline's model), which a sampled run reads from the
    state of its best evaluation, kept on this host, when it can.
    ``elapsed`` covers the whole call; ``per_stage_timings`` splits it
    into the ``optimize`` and ``extract`` stages.

    The qubit cap is checked once, then one workspace (see
    :class:`~qmaxcut.simulator.FlipSymmetricWorkspace`) serves every
    evaluation, the final state, extraction and sampling: the run peaks
    at about 1.6 times the full state's ``2**n * 16`` bytes, or 1.85
    with ``shots`` (the kept best state), where the full-register final
    state peaked at 2.27 (tracemalloc, n=18).
    """
    t_start = time.perf_counter()
    _check_cap(g.n, cfg.cap)
    workspace = FlipSymmetricWorkspace(g)
    if cfg.shots:  # keeps the best state; the in-place sampler needs no other buffer
        workspace.kept = np.empty_like(workspace.state)
    total_evals = 0

    if warm_params is not None:
        extra = (_pad_params(warm_params, cfg.p),)
        params, expectation, total_evals = optimize_params(
            g, cfg, extra_starts=extra, workspace=workspace
        )
    elif cfg.warm_start and cfg.p > 1 and cfg.budget // cfg.p >= 2:
        per_stage = cfg.budget // cfg.p
        params = None
        expectation = -np.inf
        for depth in range(1, cfg.p + 1):
            stage_budget = per_stage if depth < cfg.p else cfg.budget - per_stage * (cfg.p - 1)
            stage_cfg = replace(cfg, p=depth, budget=stage_budget)
            extra = (_pad_params(params, depth),) if params is not None else ()
            params, expectation, used = optimize_params(
                g, stage_cfg, extra_starts=extra, workspace=workspace, _stage=depth
            )
            total_evals += used
    else:
        params, expectation, total_evals = optimize_params(g, cfg, workspace=workspace)
    t_optimized = time.perf_counter()

    assignment = _extract_cut(params, cfg, workspace)
    t_end = time.perf_counter()

    return QaoaResult(
        best_params=params,
        best_expectation=float(expectation),
        best_cut=assignment,
        n_evaluations=total_evals,
        elapsed=t_end - t_start,
        per_stage_timings={
            "optimize": t_optimized - t_start,
            "extract": t_end - t_optimized,
        },
    )
