"""The workspace's mixer plan against the per-call kernel it replaced.

:mod:`kernel_oracle` keeps the kernel that built its mixer blocks, views
and phase table afresh on every half-layer.  The same schedule of circuits
runs through two workspaces for the same graph, one preparing its states
with the plan and one with the oracle, and every output must agree: the
prepared states under ``==`` (which ignores the sign of a zero), and the
``repr`` of every expectation, probability vector and cut.
"""

import math

import numpy as np
import pytest

import kernel_oracle
from qmaxcut import QaoaParams, generate_random_graph, simulator
from qmaxcut.simulator import FlipSymmetricWorkspace, _circuit

SIZES = [*range(1, 15), 17, 18]  # 17 and 18 take the row-panel products


def _angles(rng, p):
    """``2p`` angles, about 30% of them exact zeros of either sign."""
    x = rng.uniform(-2 * math.pi, 2 * math.pi, 2 * p)
    zero = rng.random(2 * p) < 0.3
    x[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return QaoaParams(x[:p], x[p:])


def _schedule(g, seed, count):
    """``count`` circuits of depth 1-3 with repeats.  The first half is in
    rising order of value, so a workspace that keeps its best state takes
    a new snapshot on each of them."""
    rng = np.random.default_rng(seed)
    circuits = [_angles(rng, int(rng.integers(1, 4))) for _ in range(count)]
    values = {}
    probe = FlipSymmetricWorkspace(g)
    for params in circuits:
        values[params] = probe.expectation(params)
    half = count // 2
    rising = sorted(circuits[:half], key=values.__getitem__)
    return rising + circuits[half:] + circuits[::3]


def _outputs(g, keep_best, schedule, prepare):
    """Every output of one workspace that prepares its states with ``prepare``."""
    ws = FlipSymmetricWorkspace(g, keep_best)
    states, reprs, snapshots = [], [], 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_flip_symmetric_state", prepare)
        for i, params in enumerate(schedule):
            kept = ws.kept_circuit
            reprs.append(repr(ws.expectation(params)))
            snapshots += ws.kept_circuit != kept
            if i % 4 == 3:
                reprs.append(ws.probabilities(params).tobytes())
                reprs.append(repr(ws.cut(params)))
                reprs.append(repr(ws.cut(params, 64, i)))
                states.append(ws._state_of(_circuit(params)).copy())
    return states, reprs, snapshots


@pytest.mark.parametrize("keep_best", [False, True], ids=["scan", "keep-best"])
@pytest.mark.parametrize("n", SIZES)
def test_plan_matches_the_per_call_kernel(n, keep_best):
    g = generate_random_graph(n, min(n * (n - 1) // 2, 2 * n), n)
    schedule = _schedule(g, 100 * n + keep_best, 16 if n <= 14 else 6)
    states, reprs, snapshots = _outputs(g, keep_best, schedule, simulator._flip_symmetric_state)
    oracle = kernel_oracle.flip_symmetric_state
    want_states, want_reprs, _ = _outputs(g, keep_best, schedule, oracle)
    assert reprs == want_reprs
    assert len(states) == len(want_states) > 0
    for state, want in zip(states, want_states):
        assert np.array_equal(state, want)
    if keep_best and g.m:  # with no edge every circuit's value is 0: one snapshot
        assert snapshots >= 2


@pytest.mark.parametrize("n", [13, 14])
def test_plan_matches_the_per_call_kernel_in_row_panels(monkeypatch, n):
    # Row panels everywhere they fit: the plan reads the rule when built,
    # the oracle on each call.
    monkeypatch.setattr(simulator, "_PANEL_MIN_QUBITS", 0)
    monkeypatch.setattr(simulator, "_PANEL_MIN_LO", 8)
    g = generate_random_graph(n, 2 * n, n)
    schedule = _schedule(g, n, 8)
    states, reprs, _ = _outputs(g, True, schedule, simulator._flip_symmetric_state)
    want_states, want_reprs, _ = _outputs(g, True, schedule, kernel_oracle.flip_symmetric_state)
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
