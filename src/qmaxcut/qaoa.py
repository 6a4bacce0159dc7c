"""Variational driver: the angles that maximize the expected cut.

Multi-start Nelder-Mead (:func:`minimize`) under a hard evaluation budget
(:func:`optimize_params`), on a depth ladder (:func:`run_qaoa`); one
:class:`~qmaxcut.simulator.FlipSymmetricWorkspace` per run values each
circuit and picks the cut.
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
    >0 = sampled bitstrings).  No field sets the qubit cap
    (:func:`~qmaxcut.graph._check_cap`).
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
    """Expected cut value of the ansatz state at the given angles: depth 1
    by :func:`depth_one_expectation`, with no state, deeper ones by
    :meth:`~qmaxcut.simulator.FlipSymmetricWorkspace.expectation` in
    ``workspace`` (built for a graph equal to ``g``), else in a fresh one.
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
    sums the vertices in order from 0.0, as ``np.add.reduce`` does).  The
    vertices are ordered by numpy's ``argsort``, which is not stable, so
    tied vertices may trade places as in scipy.  ``fun`` gets each point
    as a new list of floats, never written to afterwards.
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
    """Maximize the expected cut over angles at depth ``cfg.p``; returns
    ``(best_params, best_expectation, n_evaluations)``.

    The starts are, in order: ``warm``, of any depth up to ``cfg.p``,
    zero-padded to it (a deeper one raises ``ValueError``); the all-zero
    vector; then uniform draws (gamma in [0, 2*pi), beta in [0, pi)) until
    ``cfg.restarts`` starts exist.  The draws come from their own stream,
    ``_PCG64(cfg.seed, _STREAM_DRAWS, p)`` (:class:`~qmaxcut.graph._PCG64`),
    fixed before any evaluation.  Every start is evaluated once (only the
    first ``cfg.budget`` when they outnumber it), then :func:`minimize`
    polishes each in turn with what remains of ``cfg.budget`` as its
    ``maxfev``, so the call never evaluates more than ``cfg.budget``
    times, and every evaluation counts, a stored or closed-form value too.
    The best point ever evaluated is returned, so the result is at least
    the all-zero point's ``m / 2`` whenever the budget reaches that start.

    At depth 2 or more every evaluation runs in ``workspace``, built for
    ``g``, or else in one the call builds and frees.
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

    The run is one loop of :func:`optimize_params` over its rungs, each
    warm-started from the previous rung's optimum, the first from
    ``warm_params`` (any depth up to ``cfg.p``).  Without ``warm_params``
    and with ``cfg.warm_start``, it climbs a depth ladder, rungs at depths
    1 to ``cfg.p``, when each would get at least two evaluations and one
    per restart (``budget // p >= max(2, restarts)``): each rung below
    ``p`` gets ``budget // p`` evaluations and depth ``p`` the rest.
    Otherwise it is one rung at depth ``cfg.p``.  A zero-padded optimum
    has the optimum's canonical form (:func:`qmaxcut.simulator._circuit`),
    so it scores as it did there, bit for bit, and ``best_expectation``
    never falls with depth.  It is at least the uniform state's ``m / 2``,
    exactly, always without ``warm_params`` (a ladder rung gets two or
    more evaluations) and from ``cfg.budget = 2`` with them.

    One workspace (:class:`~qmaxcut.simulator.FlipSymmetricWorkspace`),
    built before any evaluation, serves every rung, the final state and
    the cut.  ``n_evaluations`` counts objective evaluations only;
    ``elapsed`` covers the whole call.
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
