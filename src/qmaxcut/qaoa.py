"""Variational driver: classical angle optimization around the simulator.

The objective is the expected cut value of the layered ansatz state,
which we maximize.  At depth 1 it is computed in closed form from
per-edge degrees and triangle counts
(:func:`~qmaxcut.simulator.depth_one_expectation`), in ``O(m)`` with no
``2**n`` state, so no qubit cap applies to it.  Deeper objectives are
taken in their canonical form (:func:`qmaxcut.simulator._circuit`) and
simulated on the flip-symmetric half of the register, ``2**(n-1)``
amplitudes, unless that form has at most one (cost, mixer) pair, which
the same closed form values.  :func:`run_qaoa` builds one
:class:`~qmaxcut.simulator.FlipSymmetricWorkspace`, which checks the
cap, computes every deeper expectation of the run, on every rung of the
ladder, and picks the cut, drawn with the run's shots or scanned; this
module only chooses the angles.
No full cut table or full-register state is built on any run path.
Optimization is multi-start Nelder-Mead under a hard evaluation budget:

* Start points are, in order: the warm start, zero-padded to depth p,
  the all-zero vector, then uniform random draws (gamma in [0, 2*pi),
  beta in [0, pi)) until ``restarts`` starts exist.  All draws come from a
  dedicated PCG64 stream (:class:`~qmaxcut.graph._PCG64`, numpy's
  ``default_rng(SeedSequence([seed mod 2**64, 1, p]))`` bit for bit, with
  no ``numpy.random`` import), fixed before any optimization happens, so
  results are reproducible and do not move with numpy's RNG.  A sampled
  extraction draws its shots from a second stream, which
  :func:`qmaxcut.simulator._uniforms` alone builds from the seed.
* Every start point is evaluated once up front (only the first
  ``budget`` of them when they outnumber it), then Nelder-Mead runs
  from each in turn with whatever budget remains.  The optimizer is
  :func:`minimize`, in this module: it repeats scipy's Nelder-Mead
  steps exactly, so the package imports no scipy (``scipy.optimize``
  alone took about 0.5 s and 45 MiB of every process's start-up).  The
  best parameter vector ever *evaluated* is returned, so the result can
  never be worse than the all-zero point, whenever the budget reaches it
  -- its state is the uniform superposition with expectation ``m / 2``.
* No call evaluates the objective more than ``budget`` times: the up-front
  pass stops at ``budget`` starts, and each polish gets what remains as
  :func:`minimize`'s ``maxfev``, its one counter while polishing.

With ``warm_start`` enabled and no explicit warm parameters, depths
above 1 are optimized as a ladder: depth 1 first, each next depth
seeded with the previous optimum padded by a zero-angle layer, the
budget split evenly across stages.  The ladder only engages when every
stage would get at least two evaluations and one per restart
(``budget // p >= max(2, restarts)``); otherwise the full depth is
optimized directly.  A padded optimum's canonical form is that of the
optimum itself, so the next rung scores it exactly as the last one did:
the padded depth-1 optimum by the same closed form.

Exact zero angles are common: the all-zero start is evaluated up front
and again as Nelder-Mead's ``x0``, the initial simplex around it
moves one coordinate at a time off 0, and the ladder pads each warm
start with a zero layer.  On the n=20 benchmark workload (p=2, budget
10, no ladder) half of the evaluated angles are exactly 0, and 6 of
every 10 evaluations have a canonical form of at most one pair: the
all-zero start and its simplex are all the uniform state.  The rule
for which half-layers run is :func:`qmaxcut.simulator._circuit`'s; an
evaluation counts toward the budget whatever its form, also when the
workspace returns a stored value because the form was valued before.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .graph import _PCG64, CutAssignment, Graph, _index
from .simulator import (
    FlipSymmetricWorkspace,
    QaoaParams,
    depth_one_expectation,
    # Unused, but bench/tests/test_bench_harness.py checks that the tracer rebinds it here.
    apply_qaoa_circuit,  # noqa: F401
)

_STREAM_DRAWS = 1


@dataclass(frozen=True)
class QaoaConfig:
    """Knobs for one variational run.

    ``budget`` caps objective evaluations for the whole call (and must
    cover at least one evaluation per restart); ``shots`` selects the
    cut-extraction rule (0 = threshold scan of the exact distribution,
    >0 = sampled bitstrings).  The qubit cap is not a field: every run
    reads the one setting, ``QMAXCUT_QUBIT_CAP`` or else 24 (see
    :func:`~qmaxcut.graph.resolve_qubit_cap`).
    """

    p: int
    budget: int = 600
    restarts: int = 3
    shots: int = 0
    seed: int = 0
    warm_start: bool = True

    def __post_init__(self):
        for name in ("p", "budget", "restarts", "shots", "seed"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
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


def evaluate_params(
    g: Graph,
    params: QaoaParams,
    *,
    workspace: FlipSymmetricWorkspace | None = None,
) -> float:
    """Expected cut value of the ansatz state at the given angles.

    Depth 1 takes the value from :func:`depth_one_expectation`, with no
    state or cut table, so the qubit cap does not apply.  Deeper
    circuits are valued by their canonical form (see
    :meth:`qmaxcut.simulator.FlipSymmetricWorkspace.expectation`), in
    closed form or simulated on the half of the register that the global
    bit flip maps onto the other half, in ``workspace`` when one is
    passed (built for a graph equal to ``g``) and otherwise in a fresh
    one, whose constructor refuses the instances above the cap.
    A form the workspace has already valued returns the value stored
    there, the same float, and runs no kernel.
    """
    if params.p == 1:
        return depth_one_expectation(g, params.gammas[0], params.betas[0])
    if workspace is None:
        workspace = FlipSymmetricWorkspace(g)
    elif workspace.graph != g:
        raise ValueError("workspace was built for a different graph")
    return workspace.expectation(params)


class _BudgetExhausted(Exception):
    pass


def _by_value(sim: list, fsim: list) -> tuple[list, list]:
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def minimize(fun, x0, maxfev: int) -> tuple[list[float], float]:
    """Nelder-Mead (Comput. J. 7:308, 1965): minimize ``fun`` from ``x0``
    with at most ``maxfev`` evaluations; returns the best vertex, a list of
    floats, and its value as ``fun`` returned it.

    These are the steps of scipy's ``minimize(method="Nelder-Mead")``
    with its defaults, in the same floating-point operations and sorts,
    so ``fun`` sees the same points in the same order, bit for bit: the
    first simplex is ``x0`` and ``x0`` with one coordinate scaled by
    1.05 (set to 0.00025 where it is 0); reflection 1, expansion 2,
    contraction and shrink 0.5; stop when every vertex is within 1e-4 of
    the best in each coordinate and in value.  The simplex is held as
    Python floats, which round each step as numpy does (the centroid
    sums the vertices in order from 0.0, as ``np.add.reduce`` does);
    ``fun`` is passed each point as a new list of floats, which is never
    written to afterwards, so ``fun`` may keep it.  The vertices
    are ordered by value with numpy's ``argsort``, as scipy orders them,
    and ties follow it: its default sort is not stable, so tied vertices
    may trade places, and the points ``fun`` sees depend on that order.
    """
    def f(x):
        nonlocal fev
        if fev >= maxfev:
            raise _BudgetExhausted
        fev += 1
        return fun(x)

    x0 = [float(v) for v in x0]
    fev, n = 0, len(x0)
    sim = [x0] + [
        x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1 :] for k, v in enumerate(x0)
    ]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetExhausted:
        pass
    sim, fsim = _by_value(*_by_value(sim, fsim))  # scipy sorts the first simplex twice
    while fev < maxfev:
        best = sim[0]
        if all(abs(v - b) <= 1e-4 for x in sim[1:] for v, b in zip(x, best)) and all(
            abs(fsim[0] - v) <= 1e-4 for v in fsim[1:]
        ):
            break
        try:
            xbar = [0.0] * n
            for x in sim[:-1]:
                xbar = [a + v for a, v in zip(xbar, x)]
            xbar = [a / n for a in xbar]
            worst = sim[-1]
            xr = [2 * a - v for a, v in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3 * a - 2 * v for a, v in zip(xbar, worst)]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [1.5 * a - 0.5 * v for a, v in zip(xbar, worst)]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = [0.5 * a + 0.5 * v for a, v in zip(xbar, worst)]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
        except _BudgetExhausted:
            pass
        sim, fsim = _by_value(sim, fsim)
    return sim[0], fsim[0]


def optimize_params(
    g: Graph,
    cfg: QaoaConfig,
    *,
    warm: QaoaParams | None = None,
    workspace: FlipSymmetricWorkspace | None = None,
) -> tuple[QaoaParams, float, int]:
    """Maximize the expected cut over angles at depth ``cfg.p``.

    Returns ``(best_params, best_expectation, n_evaluations)``.  See
    the module docstring for the start schedule and budget rules.
    ``warm``, of any depth up to ``cfg.p``, is zero-padded to depth
    ``cfg.p`` and tried first (this is the warm-start hook used by
    :func:`run_qaoa`); a deeper one raises ``ValueError``.  At depth 2
    or more every evaluation of the call runs in ``workspace``, the
    run's own (it must have been built for ``g``), or else in one
    workspace allocated for the call, which checks the qubit cap and is
    freed on return.  Depth 1 allocates nothing and meets no cap.
    """
    p = cfg.p
    starts = []  # each a list [g1..gp, b1..bp], the one layout of a point
    if warm is not None:
        if warm.p > p:
            raise ValueError(f"warm-start depth {warm.p} exceeds target depth {p}")
        pad = [0.0] * (p - warm.p)
        starts.append([*warm.gammas, *pad, *warm.betas, *pad])
    starts.append([0.0] * (2 * p))
    rng = _PCG64(cfg.seed, _STREAM_DRAWS, p)
    while len(starts) < cfg.restarts:
        starts.append((rng.random(2 * p) * np.repeat([2.0 * math.pi, math.pi], p)).tolist())
    if workspace is None and p > 1:
        workspace = FlipSymmetricWorkspace(g)

    evaluations, best_value, best_x = 0, -np.inf, starts[0]

    def objective(x: list[float]) -> float:
        nonlocal evaluations, best_value, best_x
        evaluations += 1
        value = evaluate_params(g, QaoaParams(x[:p], x[p:]), workspace=workspace)
        if value > best_value:
            best_value, best_x = value, x
        return -value  # minimize() minimizes

    for x0 in starts[: cfg.budget]:  # seed best-seen with the starts before polishing any
        objective(x0)
    for x0 in starts:
        if evaluations == cfg.budget:
            break
        minimize(objective, x0, cfg.budget - evaluations)
    return QaoaParams(best_x[:p], best_x[p:]), float(best_value), evaluations


def run_qaoa(
    g: Graph,
    cfg: QaoaConfig,
    warm_params: QaoaParams | None = None,
) -> QaoaResult:
    """Full variational run: optimize angles, prepare the state, extract a cut.

    ``warm_params`` (any depth up to ``cfg.p``) is zero-padded to depth
    ``cfg.p`` and tried as the first start; passing the previous
    depth's optimum guarantees the expectation is non-decreasing in
    depth, because the padded point is itself evaluated, and its
    canonical form (:func:`qmaxcut.simulator._circuit`) is the
    optimum's, valued as the previous depth valued it, bit for bit.
    Without it, ``cfg.warm_start`` controls the internal
    depth ladder (see module docstring); either way the run is one loop
    over its rungs, a lone rung at depth ``cfg.p`` when no ladder
    climbs.  ``n_evaluations`` counts objective evaluations only; the
    final state preparation is one further circuit application (one job
    in the pipeline's model), which this host skips when the workspace
    still holds that state or drew its cut when it became the best.
    ``elapsed`` covers the whole call.

    Each rung scores its warm start first, then the all-zero start, so
    ``best_expectation`` is at least the uniform state's ``m / 2``,
    exactly, when the budget reaches that start: always without
    ``warm_params`` (a ladder rung gets two or more evaluations), from
    ``cfg.budget = 2`` with it.

    One workspace (see :class:`~qmaxcut.simulator.FlipSymmetricWorkspace`,
    built before any evaluation, so it refuses a run above the qubit cap
    at every depth) serves every evaluation, the final state, extraction
    and sampling; :func:`~qmaxcut.graph.peak_bytes`' ``"run"`` gives the
    run's bytes.
    """
    t_start = time.perf_counter()
    workspace = FlipSymmetricWorkspace(g, cfg.shots, cfg.seed)
    ladder = warm_params is None and cfg.warm_start and cfg.budget // cfg.p >= max(2, cfg.restarts)
    depths = range(1, cfg.p + 1) if ladder else (cfg.p,)
    per_rung = cfg.budget // len(depths)
    params, total_evals = warm_params, 0
    for depth in depths:
        budget = per_rung if depth < cfg.p else cfg.budget - per_rung * (len(depths) - 1)
        params, expectation, used = optimize_params(
            g, replace(cfg, p=depth, budget=budget), warm=params, workspace=workspace
        )
        total_evals += used

    assignment = workspace.cut(params)
    return QaoaResult(
        best_params=params,
        best_expectation=float(expectation),
        best_cut=assignment,
        n_evaluations=total_evals,
        elapsed=time.perf_counter() - t_start,
    )
