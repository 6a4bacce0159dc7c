"""``qaoa.minimize`` against scipy's Nelder-Mead, its oracle.

Both minimizers run on the same objective, which records every point it
is passed; the two records must match byte for byte, in order and in
number, and so must the returned vertex and value.
"""

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from qmaxcut import QaoaConfig, QaoaParams, generate_random_graph
from qmaxcut.qaoa import _pad_params, evaluate_params, minimize, optimize_params
from qmaxcut.simulator import FlipSymmetricWorkspace


def assert_same_steps(fun, x0, maxfev):
    """Run both minimizers on ``fun``; return the number of evaluations."""
    ours, theirs = [], []

    def recording(points):
        def wrapped(x):
            points.append(np.asarray(x).tobytes())
            return fun(x)

        return wrapped

    x, value = minimize(recording(ours), x0.copy(), maxfev)
    res = scipy_minimize(
        recording(theirs), x0.copy(), method="Nelder-Mead", options={"maxfev": maxfev}
    )
    assert len(ours) == len(theirs) <= maxfev
    assert ours == theirs
    assert x.tobytes() == res.x.tobytes()
    assert repr(value) == repr(float(res.fun))
    return len(ours)


def _qaoa_cases():
    rng = np.random.default_rng(13)
    cases = []
    for start in ("warm", "zero", "random"):
        for _ in range(16):
            n = int(rng.integers(2, 15))
            cases.append((n, int(rng.integers(1, 4)), start, int(rng.integers(1, 151))))
    return cases + [(14, 3, "zero", 150), (2, 1, "random", 1), (12, 2, "warm", 150)]


@pytest.mark.parametrize(("n", "p", "start", "maxfev"), _qaoa_cases())
def test_qaoa_objective(n, p, start, maxfev):
    g = generate_random_graph(n, min(n * (n - 1) // 2, 2 * n), n + p)
    if start == "zero":
        x0 = np.zeros(2 * p)
    elif start == "random":  # the optimizer's own random-start ranges
        draws = np.random.default_rng(n * maxfev)
        x0 = np.concatenate([draws.uniform(0, 2 * np.pi, p), draws.uniform(0, np.pi, p)])
    else:  # the ladder's start: the shallower optimum padded by zero layers
        shallower, _, _ = optimize_params(g, QaoaConfig(p=max(1, p - 1), budget=20, restarts=1))
        x0 = _pad_params(shallower, p).to_flat()
    ws = FlipSymmetricWorkspace(g)

    def objective(x):
        return -evaluate_params(g, QaoaParams.from_flat(x), workspace=ws)

    assert_same_steps(objective, x0, maxfev)


DIMS = [1, 2, 3, 6, 15, 16, 17, 20]  # from 16: over 16 vertices, past argsort's insertion sort


def _x0(dim):
    return np.random.default_rng(dim).normal(size=dim)


@pytest.mark.parametrize("dim", DIMS)
def test_constant_ties_every_value_and_shrinks_every_step(dim):
    # A reflection that ties fails, so does the contraction: every step is
    # a reflection, a contraction and a shrink (dim + 2 evaluations), each
    # halving the simplex, until it is within the tolerance.
    evaluations = assert_same_steps(lambda x: 1.0, 100 * _x0(dim), 10_000)
    shrinks, rest = divmod(evaluations - (dim + 1), dim + 2)
    assert rest == 0 and shrinks >= 12


@pytest.mark.parametrize("dim", DIMS)
def test_tied_simplex_values(dim):
    # Only the first coordinate matters, rounded: most vertices tie.
    assert_same_steps(lambda x: round(float(x[0]) ** 2, 3), _x0(dim), 60 * dim)


@pytest.mark.parametrize("dim", DIMS)
def test_staircase_ties_expansions_and_contractions(dim):
    # Plateaus: an expanded or contracted point often ties the reflection.
    assert_same_steps(lambda x: float(np.floor(4 * np.abs(x - 0.3).sum())), _x0(dim), 60 * dim)


@pytest.mark.parametrize("dim", DIMS)
def test_slope_onto_a_floor_ties_the_expansion(dim):
    # Once reflection and expansion both reach the floor, their values tie.
    assert_same_steps(lambda x: max(float(x.sum()), -1.0), _x0(dim), 60 * dim)


@pytest.mark.parametrize("dim", DIMS)
def test_rough_objective_shrinks_often(dim):
    assert_same_steps(lambda x: float(np.sin(1e3 * x).sum()), _x0(dim), 60 * dim)


@pytest.mark.parametrize("dim", DIMS)
def test_stops_on_the_tolerances(dim):
    target = np.linspace(-1.0, 1.0, dim)
    maxfev = 100_000
    evaluations = assert_same_steps(lambda x: float(np.sum((x - target) ** 2)), _x0(dim), maxfev)
    assert evaluations < maxfev


def test_a_spread_of_exactly_the_tolerance_stops():
    # Vertices within 5e-5 of each other, values exactly 1e-4 apart.
    x0 = np.full(3, 0.001)
    evaluations = assert_same_steps(lambda x: 1e-4 if x[0] != x0[0] else 0.0, x0, 100)
    assert evaluations == 4


@pytest.mark.parametrize("maxfev", [1, 2, 3, 4, 5, 6, 7])
def test_budget_may_end_at_any_step(maxfev):
    # 1-4: the first simplex; 5: a reflection; 6: a contraction; 7: a shrink.
    assert_same_steps(lambda x: 1.0, np.array([0.5, 0.0, -1.0]), maxfev)
