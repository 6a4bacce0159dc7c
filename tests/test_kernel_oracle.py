"""The workspace's mixer plan against the per-call kernel it replaced.

:mod:`kernel_oracle` keeps the kernel that built its mixer blocks, views
and phase table afresh on every half-layer.  The same schedule of circuits
runs through two workspaces for the same graph, one preparing its states
with the plan and one with the oracle, and every output must agree: the
prepared states under ``==`` (which ignores the sign of a zero), and the
``repr`` of every expectation, probability vector and cut, the cuts that a
sampling workspace draws from its new best states included.  The
workspace is also held, within the canonical bounds, to the oracle's old
order, in which the first layer was not one gather and block 0 was a
complex product.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle
from harness import assert_within_the_canonical_bounds
from qmaxcut import Graph, QaoaParams, generate_random_graph, simulator
from qmaxcut.simulator import FlipSymmetricWorkspace, _circuit

SIZES = [*range(1, 15), 17, 18]  # 17 and 18 take the row-panel products


def _angles(rng, p):
    """``2p`` angles, about 30% of them exact zeros of either sign."""
    x = rng.uniform(-2 * math.pi, 2 * math.pi, 2 * p)
    zero = rng.random(2 * p) < 0.3
    x[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return QaoaParams(x[:p], x[p:])


def _simulated(params):
    """Whether the workspace simulates ``params``: its canonical form has
    more than one (cost, mixer) pair, so no closed form values it."""
    return len(_circuit(params)) > 2


def _schedule(g, seed, count):
    """``count`` circuits of depth 1-3 with repeats, and more drawn from
    the same stream while fewer than two of them are simulated.  The
    simulated ones come first, in rising order of value, so a sampling
    workspace draws the cut of each of them; the rest follow in the order
    drawn."""
    rng = np.random.default_rng(seed)
    circuits = [_angles(rng, int(rng.integers(1, 4))) for _ in range(count)]
    while sum(map(_simulated, circuits)) < 2:
        circuits.append(_angles(rng, int(rng.integers(1, 4))))
    probe = FlipSymmetricWorkspace(g)
    rising = sorted(filter(_simulated, circuits), key=probe.expectation)
    return rising + [c for c in circuits if not _simulated(c)] + circuits[::3]


def _outputs(g, shots, schedule, prepare):
    """Every output of one workspace that prepares its states with
    ``prepare`` and, with ``shots``, draws the cuts of its new best states
    from the shots stream of seed 7, with the cuts that fresh workspaces
    scan or draw from the same circuits; and the number of those draws."""
    ws = FlipSymmetricWorkspace(g, shots, 7)
    states, reprs, draws = [], [], 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_flip_symmetric_state", prepare)
        for i, params in enumerate(schedule):
            best = ws.best
            reprs.append(repr(ws.expectation(params)))
            if ws.best != best:
                draws += ws.drawn is not None
                reprs.append(repr(ws.drawn))
            if i % 4 == 3:
                reprs.append(ws.probabilities(params).tobytes())
                reprs.append(repr(ws.cut(params)))
                for stream in ((0, 0), (64, i), (64, 7)):
                    reprs.append(repr(FlipSymmetricWorkspace(g, *stream).cut(params)))
                states.append(ws._state_of(_circuit(params)).copy())
    return states, reprs, draws


@pytest.mark.parametrize("shots", [0, 64], ids=["scan", "keep-best"])
@pytest.mark.parametrize("n", SIZES)
def test_plan_matches_the_per_call_kernel(n, shots):
    g = generate_random_graph(n, min(n * (n - 1) // 2, 2 * n), n)
    schedule = _schedule(g, 100 * n + bool(shots), 16 if n <= 14 else 6)
    states, reprs, draws = _outputs(g, shots, schedule, simulator._flip_symmetric_state)
    oracle = kernel_oracle.flip_symmetric_state
    want_states, want_reprs, want_draws = _outputs(g, shots, schedule, oracle)
    assert reprs == want_reprs
    assert len(states) == len(want_states) > 0
    for state, want in zip(states, want_states):
        assert np.array_equal(state, want)
    assert draws == want_draws
    if shots and g.m:  # with no edge every circuit's value is 0: one best, never beaten
        assert draws >= 2


@pytest.mark.parametrize("n", [13, 14])
def test_plan_matches_the_per_call_kernel_in_row_panels(monkeypatch, n):
    # Row panels everywhere they fit: the plan reads the rule when built,
    # the oracle on each call.
    monkeypatch.setattr(simulator, "_PANEL_MIN_QUBITS", 0)
    monkeypatch.setattr(simulator, "_PANEL_MIN_LO", 8)
    g = generate_random_graph(n, 2 * n, n)
    schedule = _schedule(g, n, 8)
    states, reprs, _ = _outputs(g, 64, schedule, simulator._flip_symmetric_state)
    want_states, want_reprs, _ = _outputs(g, 64, schedule, kernel_oracle.flip_symmetric_state)
    assert reprs == want_reprs
    assert all(np.array_equal(a, b) for a, b in zip(states, want_states))


@pytest.mark.parametrize("n", range(1, 15))
def test_full_register_mixer_matches_the_per_call_kernel(n):
    # The plan's mixer (_Mixer) on the whole register, as the workspace
    # runs it on the half, against the oracle's kernel.
    rng = np.random.default_rng(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for beta in (0.0, -0.0, 0.37, math.pi / 2, 2.9, -2.9, float(rng.uniform(-7.0, 7.0))):
        got = kernel_oracle.mixer_layer(amps.copy(), beta, kernel_oracle.plan_mix)
        assert np.array_equal(got, kernel_oracle.mixer_layer(amps.copy(), beta, kernel_oracle.mix))


def _prepared(g, circuit, prepare):
    """The expectation, ``2 sum_y |w_y|**2 C(y)`` in numpy's order, and the
    half probabilities of ``circuit``'s state prepared by ``prepare``."""
    ws = FlipSymmetricWorkspace(g)
    prepare(circuit, ws)
    probs = np.square(np.abs(ws.state))
    return 2.0 * float(np.add.reduce(ws.low_table * probs)), probs


def assert_near_the_old_order(g, params):
    """The workspace's state of ``params``' form within the canonical
    bounds of the old order's (``kernel_oracle``, ``fused=False``)."""
    circuit = _circuit(params)
    value, probs = _prepared(g, circuit, simulator._flip_symmetric_state)
    old = partial(kernel_oracle.flip_symmetric_state, fused=False)
    want_value, want_probs = _prepared(g, circuit, old)
    assert_within_the_canonical_bounds(g, value, probs, want_value, want_probs)


NONZERO = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi).filter(bool)


@given(
    st.integers(min_value=2, max_value=14).flatmap(
        lambda n: st.builds(generate_random_graph, st.just(n),
                            st.integers(min_value=0, max_value=n * (n - 1) // 2),
                            st.integers(min_value=0, max_value=2**32))
    ),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda p: st.lists(NONZERO, min_size=2 * p, max_size=2 * p)
    ),
)
@example(Graph(3, ((0, 1), (1, 2))), [0.7, 0.31, 0.45, 0.22])  # one row of block 0
@settings(max_examples=150, deadline=None)
def test_first_layer_gather_matches_the_old_order(g, angles):
    # The first layer as one gather before the blocks, and block 0 as a
    # real product, against the start state, the cost phases, the blocks
    # with a complex block 0 and the top rotation after them.  No rounding
    # bound is widened: the canonical form's are held.
    p = len(angles) // 2
    assert_near_the_old_order(g, QaoaParams(angles[:p], angles[p:]))


@pytest.mark.parametrize("n", [17, 18])
@pytest.mark.parametrize("angles", [[0.7, 0.31, 0.45, 0.22], [-1.3, 2.9, 0.5, -0.4, 0.9, 1.7]])
def test_first_layer_gather_matches_the_old_order_in_one_buffer(n, angles):
    # From n=17 the gather's index is cast chunk by chunk into scratch and
    # the top rotation runs in row groups through it.
    p = len(angles) // 2
    assert_near_the_old_order(generate_random_graph(n, 3 * n, n),
                              QaoaParams(angles[:p], angles[p:]))
