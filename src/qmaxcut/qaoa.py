"""Variational driver: classical angle optimization around the simulator.

The objective is the expected cut value of the layered ansatz state,
which we maximize.  At depth 1 it is computed in closed form from
per-edge degrees and triangle counts, in ``O(m)`` with no ``2**n``
state, but under the same qubit cap.  Deeper objectives simulate only
the flip-symmetric half of the register, ``2**(n-1)`` amplitudes (at
n=16, p=2 about 2 ms per evaluation against 4 ms for the full state;
peak 1.5 times the full state's bytes, cut table aside, against 2.0).
The final state preparation and cut extraction use the full-state
simulator.  Optimization is multi-start Nelder-Mead under a hard
evaluation budget:

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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .graph import CutAssignment, Graph, cut_values_by_basis, labels_from_index
from .simulator import (
    QaoaParams,
    _check_cap,
    _flip_symmetric_expectation,
    apply_qaoa_circuit,
    sample_bitstrings,
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
    cut_table: np.ndarray | None = None,
    cap: int | None = None,
) -> float:
    """Expected cut value of the ansatz state at the given angles.

    The qubit cap is checked first, before any table or state exists,
    so every depth refuses the same instances.  At depth 1 the value
    then comes from :func:`depth_one_expectation` and no state or cut
    table is built.  Deeper circuits are simulated on the half of the
    register that the global bit flip maps onto the other half (see
    :func:`qmaxcut.simulator._flip_symmetric_expectation`), reusing
    ``cut_table`` when one is passed; the cap is resolved only by the
    check above.
    """
    _check_cap(g.n, cap)
    if params.p == 1:
        return depth_one_expectation(g, params.gammas[0], params.betas[0])
    if cut_table is None:
        cut_table = cut_values_by_basis(g)
    return _flip_symmetric_expectation(g, params, cut_table)


class _BudgetExhausted(Exception):
    pass


class _Objective:
    """Counting/recording wrapper around the expectation objective."""

    def __init__(self, g: Graph, budget: int, cut_table: np.ndarray | None, cap: int | None):
        self._g = g
        self._table = cut_table
        self._cap = cap
        self.budget = budget
        self.n_evaluations = 0
        self.best_value = -np.inf
        self.best_x: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> float:
        if self.n_evaluations >= self.budget:
            raise _BudgetExhausted
        self.n_evaluations += 1
        value = evaluate_params(
            self._g, QaoaParams.from_flat(x), cut_table=self._table, cap=self._cap
        )
        if value > self.best_value:
            self.best_value = value
            self.best_x = np.asarray(x, dtype=float).copy()
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
    cut_table: np.ndarray | None = None,
    _stage: int | None = None,
) -> tuple[QaoaParams, float, int]:
    """Maximize the expected cut over angles at depth ``cfg.p``.

    Returns ``(best_params, best_expectation, n_evaluations)``.  See
    the module docstring for the start schedule and budget rules.
    ``extra_starts`` are tried before the standard starts (this is the
    warm-start hook used by :func:`run_qaoa`).  A missing ``cut_table``
    is built only at depth 2 or more, since depth 1 never reads it.
    """
    if cut_table is None and cfg.p > 1:
        cut_table = cut_values_by_basis(g)
    for warm in extra_starts:
        if warm.p != cfg.p:
            raise ValueError(f"start has depth {warm.p}, expected {cfg.p}")

    starts = [w.to_flat() for w in extra_starts]
    starts.append(np.zeros(2 * cfg.p))
    n_draws = max(0, cfg.restarts - len(starts))
    starts.extend(_draw_starts(cfg.p, n_draws, cfg.seed, _stage if _stage is not None else cfg.p))

    objective = _Objective(g, cfg.budget, cut_table, cfg.cap)
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


def _extract_assignment(sv, g: Graph, cfg: QaoaConfig, cut_table: np.ndarray) -> CutAssignment:
    """Pick the reported cut from the final state.

    ``shots == 0``: best cut among basis states whose exact probability
    is at least ``1 / 2**(n+1)`` (half the uniform weight; the set is
    never empty).  ``shots > 0``: best cut among sampled bitstrings.
    Ties resolve to the smallest basis index.
    """
    if cfg.shots == 0:
        candidates = np.flatnonzero(sv.probabilities() >= 1.0 / (1 << (g.n + 1)))
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed & ((1 << 64) - 1), _STREAM_SHOTS])
        )
        candidates = np.unique(sample_bitstrings(sv, cfg.shots, rng))
    values = cut_table[candidates]
    best = int(candidates[int(np.argmax(values))])  # first max = smallest index
    return CutAssignment(
        labels=labels_from_index(g.n, best), cut_value=int(cut_table[best])
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
    the final state preparation is one further circuit application.
    ``elapsed`` covers the whole call; ``per_stage_timings`` splits it
    into the ``optimize`` and ``extract`` stages.
    """
    t_start = time.perf_counter()
    _check_cap(g.n, cfg.cap)
    cut_table = cut_values_by_basis(g)
    total_evals = 0

    if warm_params is not None:
        extra = (_pad_params(warm_params, cfg.p),)
        params, expectation, total_evals = optimize_params(
            g, cfg, extra_starts=extra, cut_table=cut_table
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
                g, stage_cfg, extra_starts=extra, cut_table=cut_table, _stage=depth
            )
            total_evals += used
    else:
        params, expectation, total_evals = optimize_params(g, cfg, cut_table=cut_table)
    t_optimized = time.perf_counter()

    sv = apply_qaoa_circuit(g, params, cap=cfg.cap, cut_table=cut_table)
    assignment = _extract_assignment(sv, g, cfg, cut_table)
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
