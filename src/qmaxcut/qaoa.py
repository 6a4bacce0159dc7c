"""Variational driver: classical angle optimization around the simulator.

The objective is the expected cut value of the layered ansatz state,
which we maximize.  At depth 1 it is computed in closed form from
per-edge degrees and triangle counts, in ``O(m)`` with no ``2**n``
state, but under the same qubit cap.  Deeper objectives are simulated
on the flip-symmetric half of the register, ``2**(n-1)`` amplitudes.
:func:`run_qaoa` builds one :class:`~qmaxcut.simulator.FlipSymmetricWorkspace`,
which checks the cap and computes every simulated expectation of the
run, on every rung of the ladder, keeps the best state and picks the
cut; this module only chooses the angles.
No full cut table or full-register state is built on any run path.
Optimization is multi-start Nelder-Mead under a hard evaluation budget:

* Start points are, in order: any warm-start vectors, the all-zero
  vector, then uniform random draws (gamma in [0, 2*pi), beta in
  [0, pi)) until ``restarts`` starts exist.  All draws come from a
  dedicated PCG64 stream derived from ``seed``, fixed before any
  optimization happens, so results are reproducible.
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
optimized directly.  Its first rung runs on the closed form and the next
on the simulator, so the padded depth-1 optimum can score lower at depth
2 by rounding, about 1e-14.

Exact zero angles are common: the all-zero start is evaluated up front
and again as Nelder-Mead's ``x0``, the initial simplex around it
moves one coordinate at a time off 0, and the ladder pads each warm
start with a zero layer.  On the n=20 benchmark workload 45% of the
simulated cost and mixer half-layers have an exactly zero angle.  Each
such half-layer is the identity, and the simulator skips it (see
:func:`qmaxcut.simulator._circuit`); the evaluation still
counts toward the budget, also when the workspace returns a stored
value because skipping made it a circuit already simulated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
# numpy loads numpy.random lazily; load it with the package, not in a first run.
from numpy.random import SeedSequence, default_rng

from .graph import CutAssignment, Graph
from .simulator import (
    FlipSymmetricWorkspace,
    QaoaParams,
    _check_cap,
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
    >0 = sampled bitstrings).  The qubit cap is not a field: every run
    reads the one setting, ``QMAXCUT_QUBIT_CAP`` or else 24 (see
    :func:`~qmaxcut.simulator.resolve_qubit_cap`).
    """

    p: int
    budget: int = 600
    restarts: int = 3
    shots: int = 0
    seed: int = 0
    warm_start: bool = True

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
    workspace: FlipSymmetricWorkspace | None = None,
    _cap_checked: bool = False,
) -> float:
    """Expected cut value of the ansatz state at the given angles.

    Every depth refuses the instances above the qubit cap
    (``QMAXCUT_QUBIT_CAP``, else 24; no argument sets it) before any
    table or state exists.  Depth 1 checks the cap here, then takes the
    value from :func:`depth_one_expectation`, with no state or cut table.
    Deeper circuits are simulated on the half of the register that the
    global bit flip maps onto the other half (see
    :meth:`qmaxcut.simulator.FlipSymmetricWorkspace.expectation`), in
    ``workspace`` when one is passed (built for ``g``) and otherwise in
    a fresh one; the workspace's constructor checks the cap.  A circuit
    the workspace has already simulated returns the value stored there,
    the same float, and runs no kernel.  ``_cap_checked`` is private to
    :func:`optimize_params`, which checks the cap once per call: its
    depth-1 evaluations skip the check but still run through this
    function, so that tracing its calls counts every evaluation.
    """
    if params.p == 1:
        if not _cap_checked:
            _check_cap(g.n)
        return depth_one_expectation(g, params.gammas[0], params.betas[0])
    if workspace is None:
        workspace = FlipSymmetricWorkspace(g)
    elif workspace.graph is not g:
        raise ValueError("workspace was built for a different graph")
    return workspace.expectation(params)


class _BudgetExhausted(Exception):
    pass


def _by_value(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def minimize(fun, x0: np.ndarray, maxfev: int) -> tuple[np.ndarray, float]:
    """Nelder-Mead (Comput. J. 7:308, 1965): minimize ``fun`` from ``x0``
    with at most ``maxfev`` evaluations; returns the best vertex and its value.

    These are the steps of scipy's ``minimize(method="Nelder-Mead")``
    with its defaults, in the same floating-point operations and sorts,
    so ``fun`` sees the same points in the same order, bit for bit: the
    first simplex is ``x0`` and ``x0`` with one coordinate scaled by
    1.05 (set to 0.00025 where it is 0); reflection 1, expansion 2,
    contraction and shrink 0.5; stop when every vertex is within 1e-4 of
    the best in each coordinate and in value.  ``fun`` may be passed a
    view of a simplex row, not a copy, so it must copy any point it keeps.
    """
    def f(x):
        nonlocal fev
        if fev >= maxfev:
            raise _BudgetExhausted
        fev += 1
        return fun(x)

    fev, n = 0, len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * sim[0, k] if sim[0, k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetExhausted:
        pass
    sim, fsim = _by_value(*_by_value(sim, fsim))  # scipy sorts the first simplex twice
    while fev < maxfev:
        if np.max(np.abs(sim[1:] - sim[0])) <= 1e-4 and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-4:
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetExhausted:
            pass
        sim, fsim = _by_value(sim, fsim)
    return sim[0], float(fsim[0])


def _draw_starts(p: int, count: int, seed: int) -> list[np.ndarray]:
    rng = default_rng(SeedSequence([seed & ((1 << 64) - 1), _STREAM_DRAWS, p]))
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
) -> tuple[QaoaParams, float, int]:
    """Maximize the expected cut over angles at depth ``cfg.p``.

    Returns ``(best_params, best_expectation, n_evaluations)``.  See
    the module docstring for the start schedule and budget rules.
    ``extra_starts`` are tried before the standard starts (this is the
    warm-start hook used by :func:`run_qaoa`).  At depth 2 or more every
    evaluation of the call runs in ``workspace``, the run's own (it must
    have been built for ``g``).  Without one, the qubit cap is checked
    once: here at depth 1, which needs no workspace, and at depth 2 or
    more by the one workspace allocated for the call and freed on
    return.  No evaluation of the call checks the cap again.
    """
    if workspace is None and cfg.p == 1:
        _check_cap(g.n)
    elif workspace is None:
        workspace = FlipSymmetricWorkspace(g)
    for warm in extra_starts:
        if warm.p != cfg.p:
            raise ValueError(f"start has depth {warm.p}, expected {cfg.p}")

    starts = [w.to_flat() for w in extra_starts]
    starts.append(np.zeros(2 * cfg.p))
    n_draws = max(0, cfg.restarts - len(starts))
    starts.extend(_draw_starts(cfg.p, n_draws, cfg.seed))

    evaluations, best_value, best_x = 0, -np.inf, starts[0]

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations, best_value, best_x
        evaluations += 1
        value = evaluate_params(
            g, QaoaParams.from_flat(x), workspace=workspace, _cap_checked=True
        )
        if value > best_value:
            best_value, best_x = value, np.array(x, dtype=float)
        return -value  # minimize() minimizes

    for x0 in starts[: cfg.budget]:  # seed best-seen with the starts before polishing any
        objective(x0)
    for x0 in starts:
        if evaluations == cfg.budget:
            break
        minimize(objective, x0, cfg.budget - evaluations)
    return QaoaParams.from_flat(best_x), float(best_value), evaluations


def _pad_params(params: QaoaParams, p: int) -> QaoaParams:
    if params.p > p:
        raise ValueError(f"warm-start depth {params.p} exceeds target depth {p}")
    pad = (0.0,) * (p - params.p)
    return QaoaParams(gammas=params.gammas + pad, betas=params.betas + pad)


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
    closed form).  Without it, ``cfg.warm_start`` controls the internal
    depth ladder (see module docstring); either way the run is one loop
    over its rungs, a lone rung at depth ``cfg.p`` when no ladder
    climbs.  ``n_evaluations`` counts objective evaluations only; the
    final state preparation is one further circuit application (one job
    in the pipeline's model), which this host skips when the workspace
    still holds that state.  ``elapsed`` covers the whole call.

    One workspace (see :class:`~qmaxcut.simulator.FlipSymmetricWorkspace`,
    which checks the qubit cap once, as it is built) serves every
    evaluation, the final state, extraction and sampling: the run peaks
    at about 1.6 times the full state's ``2**n * 16`` bytes, or 1.85
    with ``shots``, where the workspace also keeps the best state
    (tracemalloc, n=18).
    """
    t_start = time.perf_counter()
    # Keep the best state only when sampling: the in-place draw allocates
    # nothing state-sized, where the threshold scan allocates a half table.
    keep_best = cfg.shots > 0
    workspace = FlipSymmetricWorkspace(g, keep_best)
    ladder = warm_params is None and cfg.warm_start and cfg.budget // cfg.p >= max(2, cfg.restarts)
    depths = range(1, cfg.p + 1) if ladder else (cfg.p,)
    per_rung = cfg.budget // len(depths)
    params, total_evals = warm_params, 0
    for depth in depths:
        budget = per_rung if depth < cfg.p else cfg.budget - per_rung * (len(depths) - 1)
        extra = (_pad_params(params, depth),) if params is not None else ()
        params, expectation, used = optimize_params(
            g, replace(cfg, p=depth, budget=budget), extra_starts=extra, workspace=workspace
        )
        total_evals += used

    rng = None
    if cfg.shots:
        rng = default_rng(SeedSequence([cfg.seed & ((1 << 64) - 1), _STREAM_SHOTS]))
    assignment = workspace.cut(params, cfg.shots, rng)
    return QaoaResult(
        best_params=params,
        best_expectation=float(expectation),
        best_cut=assignment,
        n_evaluations=total_evals,
        elapsed=time.perf_counter() - t_start,
    )
