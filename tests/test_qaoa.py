import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle
from qmaxcut import (
    Graph,
    QaoaConfig,
    QaoaParams,
    ResourceLimitError,
    cut_value,
    cut_values_by_basis,
    generate_random_graph,
    run_qaoa,
)
from qmaxcut import graph, qaoa, simulator
from qmaxcut.graph import CutAssignment, labels_from_index
from qmaxcut.qaoa import depth_one_expectation, evaluate_params, optimize_params
from qmaxcut.simulator import apply_qaoa_circuit, expectation_cut, sample_bitstrings

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
EDGE = Graph(2, ((0, 1),))
ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)
# The optimizer's zero start, its initial simplex and the ladder's padding
# all evaluate exact zeros, which the half-register kernel skips.
ANGLES_OR_ZERO = st.one_of(st.just(0.0), st.just(-0.0), ANGLES)


@st.composite
def oracle_graphs(draw):
    """Graphs on 1-10 vertices, biased toward m=0, complete and triangle-rich."""
    n = draw(st.integers(min_value=1, max_value=10))
    top = n * (n - 1) // 2
    kind = draw(st.sampled_from(["edgeless", "complete", "cliques", "dense", "any"]))
    if kind == "cliques" and n > 1:  # a union of random cliques: many triangles, uneven degrees
        edges = set()
        for members in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2), max_size=3)):
            edges.update(itertools.combinations(sorted(members), 2))
        return Graph(n, tuple(edges))
    m = {"edgeless": 0, "complete": top}.get(kind)
    if m is None:
        low = (3 * top) // 4 if kind == "dense" else 0
        m = draw(st.integers(min_value=low, max_value=top))
    return generate_random_graph(n, m, draw(st.integers(min_value=0, max_value=2**32)))


def _private_simulator_names(source):
    """Private names that ``source`` takes from ``qmaxcut.simulator``: by
    ``from .simulator import`` (or the absolute form), or as attributes of a
    module bound to ``simulator``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
            ("simulator", 1), ("qmaxcut.simulator", 0)
        ):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "simulator":
            names.add(node.attr)
    return {name for name in names if name.startswith("_")}


def test_qaoa_leaves_the_half_register_to_the_workspace():
    # The variational driver chooses angles; every decision about the
    # flip-symmetric half register belongs to FlipSymmetricWorkspace.
    source = Path(qaoa.__file__).read_text(encoding="utf-8")
    assert _private_simulator_names(source) == set()


def _forbid_cut_table(monkeypatch):
    def forbidden(g):
        raise AssertionError("cut table built")

    for module in (graph, qaoa, simulator):  # every module that may bind the name
        monkeypatch.setattr(module, "cut_values_by_basis", forbidden, raising=False)


def _extract_assignment(sv, g, cfg, cut_table):
    """Reference cut extraction on the full register, as ``run_qaoa`` once
    did it: the threshold scan over all ``2**n`` probabilities, or the
    sampled indices looked up in the full cut table."""
    if cfg.shots == 0:
        candidates = np.flatnonzero(sv.probabilities() >= 1.0 / (1 << (g.n + 1)))
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed & ((1 << 64) - 1), qaoa._STREAM_SHOTS])
        )
        candidates = np.unique(sample_bitstrings(sv, cfg.shots, rng))
    values = cut_table[candidates]
    best = int(candidates[int(np.argmax(values))])
    return CutAssignment(labels=labels_from_index(g.n, best), cut_value=int(cut_table[best]))


class TestDepthOneClosedForm:
    @given(
        oracle_graphs(),
        st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False),
        st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_statevector(self, g, gamma, beta):
        params = QaoaParams(gammas=(gamma,), betas=(beta,))
        statevector = expectation_cut(apply_qaoa_circuit(g, params), g)
        assert depth_one_expectation(g, gamma, beta) == pytest.approx(statevector, abs=1e-10)

    def test_evaluate_params_builds_no_cut_table(self, monkeypatch):
        _forbid_cut_table(monkeypatch)
        value = evaluate_params(EDGE, QaoaParams(gammas=(math.pi / 2,), betas=(math.pi / 8,)))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_cap_is_checked_before_the_cut_table_at_every_depth(self, monkeypatch):
        # Depth 2 is refused before any table exists; depth 1 builds none, so
        # it meets no cap and gives the value it gives below the cap.
        _forbid_cut_table(monkeypatch)
        g = Graph(8, ((0, 7),))
        one, two = (QaoaParams(gammas=(0.1,) * p, betas=(0.1,) * p) for p in (1, 2))
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "7")
        with pytest.raises(ResourceLimitError):
            evaluate_params(g, two)
        assert evaluate_params(g, one) == depth_one_expectation(g, 0.1, 0.1)

    def test_optimizer_checks_the_cap_before_its_workspace(self, monkeypatch):
        _forbid_cut_table(monkeypatch)
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "7")
        with pytest.raises(ResourceLimitError):
            optimize_params(Graph(8, ((0, 7),)), QaoaConfig(p=2, budget=10))

    def test_run_prepares_only_the_final_state(self, monkeypatch):
        prepared = []
        prepare = simulator._flip_symmetric_state

        def counting(circuit, ws):
            prepared.append(circuit)
            return prepare(circuit, ws)

        monkeypatch.setattr(simulator, "_flip_symmetric_state", counting)
        result = run_qaoa(TRIANGLE, QaoaConfig(p=1, budget=40, restarts=3, seed=0))
        assert result.n_evaluations > 1
        assert prepared == [simulator._circuit(result.best_params)]


@st.composite
def half_oracle_graphs(draw, max_n=13):
    """Graphs on 1-``max_n`` vertices with any edge count, n=1 and m=0 included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    return generate_random_graph(n, m, draw(st.integers(min_value=0, max_value=2**32)))


class TestFlipSymmetricHalf:
    @given(
        half_oracle_graphs(),
        st.integers(min_value=2, max_value=3).flatmap(
            lambda p: st.lists(ANGLES_OR_ZERO, min_size=2 * p, max_size=2 * p)
        ),
    )
    @example(Graph(1, ()), [0.3, 0.7, 0.2, 0.5])  # no low qubits for the mixer
    @settings(max_examples=200, deadline=None)
    def test_matches_full_statevector(self, g, angles):
        params = QaoaParams.from_flat(angles)
        sv = apply_qaoa_circuit(g, params)
        # The invariant the half path rests on: amp[b] == amp[~b].
        np.testing.assert_allclose(sv.amplitudes, sv.amplitudes[::-1], rtol=0, atol=1e-12)
        assert evaluate_params(g, params) == pytest.approx(expectation_cut(sv, g), abs=1e-10)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 9, 10])
    def test_matches_full_statevector_where_the_layout_changes(self, n, p):
        # n=1: no low qubits; n=5: no frame; n=6: a one-qubit real block;
        # n=9, 10: the last real block full, then one qubit past it.
        g = generate_random_graph(n, min(2 * n, n * (n - 1) // 2), n)
        angles = np.random.default_rng(10 * n + p).uniform(-2 * math.pi, 2 * math.pi, 2 * p)
        params = QaoaParams.from_flat(angles)
        expected = expectation_cut(apply_qaoa_circuit(g, params), g)
        assert evaluate_params(g, params) == pytest.approx(expected, abs=1e-10)

    def test_peak_memory_is_one_and_a_half_states(self):
        # n=18: the full state would be 4 MiB.  A fresh workspace holds the
        # half state, one half-size scratch buffer and the intp low half of
        # the cut table (1.25x; it builds the table itself), plus frame
        # vectors of 1/32 each.  Fresh buffers per call peaked at 1.53x,
        # the full-state evaluation at 2.03x.
        g = generate_random_graph(18, 34, 0)
        params = QaoaParams(gammas=(0.3, 0.5), betas=(0.2, 0.7))
        full_state = (1 << g.n) * 16
        tracemalloc.start()
        try:
            evaluate_params(g, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * full_state, f"peak {peak / full_state:.2f}x the state"

    def test_reused_workspace_allocates_no_state_sized_buffer(self):
        # n=18: the state would be 4 MiB; only small frame-sized
        # temporaries remain (about 0.06x).  The second circuit differs
        # from the first, so it is simulated, not read back.
        g = generate_random_graph(18, 34, 0)
        workspace = simulator.FlipSymmetricWorkspace(g)
        evaluate_params(g, QaoaParams(gammas=(0.3, 0.5), betas=(0.2, 0.7)), workspace=workspace)
        params = QaoaParams(gammas=(0.3, 0.6), betas=(0.2, 0.7))
        full_state = (1 << g.n) * 16
        tracemalloc.start()
        try:
            second = evaluate_params(g, params, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == evaluate_params(g, params)
        assert peak <= 0.1 * full_state, f"peak {peak / full_state:.3f}x the state"

    def test_workspace_of_another_graph_is_refused(self):
        workspace = simulator.FlipSymmetricWorkspace(TRIANGLE)
        other = Graph(3, ((0, 1),))
        with pytest.raises(ValueError):
            evaluate_params(other, QaoaParams((0.1, 0.2), (0.3, 0.4)), workspace=workspace)

    def test_optimizer_allocates_one_workspace_per_call(self, monkeypatch):
        built = []

        def counting(g):
            built.append(g.n)
            return simulator.FlipSymmetricWorkspace(g)

        monkeypatch.setattr(qaoa, "FlipSymmetricWorkspace", counting)
        g = generate_random_graph(7, 12, 1)
        _, _, n_evals = optimize_params(g, QaoaConfig(p=2, budget=40, restarts=3, seed=0))
        assert n_evals > 1
        assert built == [7]
        optimize_params(g, QaoaConfig(p=1, budget=10, restarts=3, seed=0))
        assert built == [7]

    def test_cap_is_resolved_once_per_evaluation(self, monkeypatch):
        calls = []
        resolve = graph.resolve_qubit_cap

        def counting():
            calls.append(None)
            return resolve()

        monkeypatch.setattr(graph, "resolve_qubit_cap", counting)
        evaluate_params(TRIANGLE, QaoaParams(gammas=(0.4, 0.1), betas=(0.3, 0.2)))
        assert len(calls) == 1


def _every_kernel_state(params, ws):
    """Reference for ``simulator._flip_symmetric_state``: the same layers,
    with every cost phase, mixer and top-qubit rotation run, whatever the
    angle."""
    g = ws.graph
    w, scratch = ws.state, ws.scratch
    rows = ws.start.size
    w.reshape(rows, -1)[...] = ws.start
    levels = np.arange(g.m + 1)
    for gamma, beta in zip(params.gammas, params.betas):
        np.take(np.exp(-1j * float(gamma) * levels), ws.low_table, out=scratch, mode="clip")
        w *= scratch
        mixed = kernel_oracle.mix(w, scratch, beta, g.n - 1)
        if mixed is not w:
            w, scratch = mixed, w
        np.multiply(
            w[::-1].reshape(rows, -1), math.sin(beta) * ws.flip, out=scratch.reshape(rows, -1)
        )
        w *= math.cos(beta)
        w += scratch
    return w, scratch


def _half_outputs(g, params):
    """State, expectation ``repr`` and probability bytes on the half register."""
    ws = simulator.FlipSymmetricWorkspace(g)
    state = simulator._flip_symmetric_state(simulator._circuit(params), ws)[0].copy()
    expectation = repr(ws.expectation(params))
    return state, expectation, ws.probabilities(params).tobytes()


class TestZeroAngleSkip:
    """A half-layer whose angle is exactly 0 is the identity and runs no kernel."""

    def assert_matches_every_kernel(self, g, params):
        state, expectation, probs = _half_outputs(g, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                simulator, "_flip_symmetric_state", lambda circuit, ws: _every_kernel_state(params, ws)
            )
            ref_state, ref_expectation, ref_probs = _half_outputs(g, params)
        # ``==``: a skipped kernel may leave a zero component with the other sign.
        assert np.array_equal(state, ref_state)
        assert expectation == ref_expectation
        assert probs == ref_probs

    @given(
        half_oracle_graphs(),
        st.integers(min_value=2, max_value=3).flatmap(
            lambda p: st.lists(ANGLES_OR_ZERO, min_size=2 * p, max_size=2 * p)
        ),
    )
    @example(Graph(1, ()), [0.0, 0.7, 0.2, 0.0])
    @example(Graph(3, ()), [0.0, 0.0, 0.0, 0.0])
    @settings(max_examples=200, deadline=None)
    def test_matches_every_kernel_run(self, g, angles):
        self.assert_matches_every_kernel(g, QaoaParams.from_flat(angles))

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "angles", [[0.0, 0.3, 0.0, 0.7, 0.0, -0.2], [1.1, 0.0, -0.0, 0.4], [0.5, -0.9, 2.2, 1.3]]
    )
    @pytest.mark.parametrize("n", [16, 18])
    def test_matches_every_kernel_run_at_large_n(self, n, angles):
        g = generate_random_graph(n, 2 * n, n)
        self.assert_matches_every_kernel(g, QaoaParams.from_flat(angles))

    @pytest.mark.parametrize(
        ("angles", "mixes"),
        [
            ([0.0, 0.0, 0.0, 0.0], 0),  # the all-zero start
            ([0.8, 0.0, 0.3, 0.0], 1),  # a depth-1 optimum padded for the ladder
            ([0.8, 0.5, 0.3, 0.2], 2),
        ],
    )
    def test_mixer_runs_only_for_nonzero_beta(self, monkeypatch, angles, mixes):
        calls = []
        mix = simulator._Mixer.__call__

        def counting(self, src, dst, beta):
            calls.append(beta)
            return mix(self, src, dst, beta)

        monkeypatch.setattr(simulator._Mixer, "__call__", counting)
        params = QaoaParams.from_flat(angles)
        evaluate_params(generate_random_graph(7, 12, 3), params)
        assert len(calls) == mixes
        assert calls == [beta for kind, beta in simulator._circuit(params) if kind == 1]


def _reference_expectation(ws, params):
    """``FlipSymmetricWorkspace.expectation`` without the circuit memo."""
    w, scratch = simulator._flip_symmetric_state(simulator._circuit(params), ws)
    np.multiply(ws.low_table, w, out=scratch)
    return 2.0 * float(np.real(np.vdot(w, scratch)))


def _reference_probabilities(ws, params):
    """``FlipSymmetricWorkspace.probabilities`` preparing every state."""
    w, spare = simulator._flip_symmetric_state(simulator._circuit(params), ws)
    probs = spare.view(np.float64)
    probs[: w.size] = np.abs(w) ** 2
    probs[w.size :] = probs[: w.size][::-1]
    return probs


def _reference_draw(probs, shots, rng):
    """The sampler as ``rng.choice``, with its copies."""
    probs /= probs.sum()
    return rng.choice(probs.size, size=shots, p=probs).astype(np.int64)


def _prepare_log(monkeypatch):
    """Log ``"prepare"`` per state preparation and ``"eval"`` as each
    objective evaluation returns, in order."""
    log = []
    prepare, evaluate = simulator._flip_symmetric_state, qaoa.evaluate_params

    def preparing(circuit, ws):
        log.append("prepare")
        return prepare(circuit, ws)

    def evaluating(*args, **kwargs):
        value = evaluate(*args, **kwargs)
        log.append("eval")
        return value

    monkeypatch.setattr(simulator, "_flip_symmetric_state", preparing)
    monkeypatch.setattr(qaoa, "evaluate_params", evaluating)
    return log


class TestSimulateEachCircuitOnce:
    """The circuit memo and the kept best state, against a reference that
    prepares every state, memoizes nothing and multiplies whole blocks."""

    @pytest.mark.parametrize("twins", [(0, 1), (2, 3)], ids=["cost", "mixer"])
    def test_simplex_twins_run_the_kernels_once(self, monkeypatch, twins):
        # Nelder-Mead's initial simplex around the zero start moves gamma_1
        # and gamma_2 (or beta_1 and beta_2) alone by 0.00025: one circuit.
        g = generate_random_graph(9, 16, 2)
        first, second = np.zeros(4), np.zeros(4)
        first[twins[0]] = second[twins[1]] = 0.00025
        expected = evaluate_params(g, QaoaParams.from_flat(second))
        log = _prepare_log(monkeypatch)
        workspace = simulator.FlipSymmetricWorkspace(g)
        values = [evaluate_params(g, QaoaParams.from_flat(x), workspace=workspace)
                  for x in (first, second)]
        assert log == ["prepare"]
        assert repr(values[1]) == repr(values[0]) == repr(expected)

    @pytest.mark.parametrize(
        ("shots", "after", "mode"),
        [
            pytest.param(64, [], "cold", id="64-after0"),
            pytest.param(0, ["prepare"], "cold", id="0-after1"),
            # The best state is kept across rungs: a ladder's last rung
            # starts from the previous rung's best, a circuit already kept.
            pytest.param(64, [], "ladder", id="64-ladder"),
            pytest.param(64, [], "warm", id="64-warm"),
        ],
    )
    def test_sampled_run_keeps_its_best_state(self, monkeypatch, shots, after, mode):
        g = generate_random_graph(9, 16, 4)
        p, budget = (3, 15) if mode == "ladder" else (2, 10)
        cfg = QaoaConfig(p=p, budget=budget, restarts=2, seed=3, shots=shots,
                         warm_start=mode == "ladder")
        warm = QaoaParams(gammas=(0.4,), betas=(0.3,)) if mode == "warm" else None
        circuits = []
        circuit = simulator._circuit

        def recording(params):
            circuits.append(circuit(params))
            return circuits[-1]

        monkeypatch.setattr(simulator, "_circuit", recording)
        log = _prepare_log(monkeypatch)
        result = run_qaoa(g, cfg, warm_params=warm)
        last = len(log) - log[::-1].index("eval")
        assert log.count("eval") == result.n_evaluations == budget
        assert log[last:] == after
        # Every distinct circuit evaluated is simulated exactly once; the
        # last circuit named is the extraction's.
        evaluated = circuits[:-1]
        assert log[:last].count("prepare") == len(set(evaluated)) < len(evaluated)

    def test_scanned_run_reads_a_held_final_state(self, monkeypatch):
        # Here the best circuit is also the last one simulated, so the
        # workspace still holds the final state: the scan prepares none.
        g = generate_random_graph(9, 16, 2)
        cfg = QaoaConfig(p=2, budget=10, restarts=2, seed=3, warm_start=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator.FlipSymmetricWorkspace, "probabilities", _reference_probabilities)
            reference = run_qaoa(g, cfg)
        log = _prepare_log(monkeypatch)
        result = run_qaoa(g, cfg)
        last = len(log) - log[::-1].index("eval")
        assert log.count("eval") == result.n_evaluations == 10
        assert log[last:] == []
        assert repr(result.best_cut) == repr(reference.best_cut)

    @pytest.mark.parametrize("shots", [0, 200])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 21))
    def test_run_matches_the_reference(self, n, p, shots):
        g = generate_random_graph(n, min(n * (n - 1) // 2, 3 * n), n)
        budget = 12 if n <= 16 else 6  # p=3 at budget 6 still climbs the ladder
        cfg = QaoaConfig(p=p, budget=budget, restarts=2, seed=n + p, shots=shots)
        result = run_qaoa(g, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator.FlipSymmetricWorkspace, "expectation", _reference_expectation)
            mp.setattr(simulator.FlipSymmetricWorkspace, "probabilities", _reference_probabilities)
            mp.setattr(simulator, "_draw", _reference_draw)
            mp.setattr(simulator, "_PANEL_MIN_QUBITS", 64)  # whole blocks only
            reference = run_qaoa(g, cfg)
        fields = ("best_params", "best_expectation", "best_cut", "n_evaluations")
        assert [repr(getattr(result, f)) for f in fields] == [
            repr(getattr(reference, f)) for f in fields
        ]


class TestEvaluateParams:
    def test_zero_angles_give_half_the_edges(self):
        params = QaoaParams(gammas=(0.0, 0.0), betas=(0.0, 0.0))
        for seed in range(5):
            g = generate_random_graph(7, 10, seed)
            assert evaluate_params(g, params) == pytest.approx(5.0, abs=1e-12)

    def test_single_edge_quarter_angles(self):
        # Closed form for one edge at depth 1: <C> = (1 + sin(4b) sin(g)) / 2,
        # so (pi/4, pi/8) lands at (2 + sqrt(2)) / 4, noticeably short of 1.
        params = QaoaParams(gammas=(math.pi / 4,), betas=(math.pi / 8,))
        expected = (2 + math.sqrt(2)) / 4
        assert evaluate_params(EDGE, params) == pytest.approx(expected, abs=1e-12)

    def test_single_edge_optimum(self):
        params = QaoaParams(gammas=(math.pi / 2,), betas=(math.pi / 8,))
        assert evaluate_params(EDGE, params) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
        st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_edge_closed_form(self, gamma, beta):
        params = QaoaParams(gammas=(gamma,), betas=(beta,))
        expected = 0.5 * (1.0 + math.sin(4 * beta) * math.sin(gamma))
        assert evaluate_params(EDGE, params) == pytest.approx(expected, abs=1e-9)

    def test_respects_cap(self, monkeypatch):
        # The cap bounds the simulated state: depth 2 up to n=7 under a cap of
        # 7; depth 1 simulates nothing and runs above it too.
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "7")
        one, two = QaoaParams((0.1,), (0.1,)), QaoaParams((0.1, 0.2), (0.1, 0.2))
        below, above = Graph(7, ((0, 6),)), Graph(8, ((0, 7),))
        evaluate_params(below, two)
        with pytest.raises(ResourceLimitError, match="n=8 exceed qubit cap 7"):
            evaluate_params(above, two)
        assert evaluate_params(above, one) == depth_one_expectation(above, 0.1, 0.1)


class TestQaoaConfig:
    def test_defaults(self):
        cfg = QaoaConfig(p=2)
        assert cfg.budget >= cfg.restarts
        assert cfg.shots == 0
        assert cfg.warm_start

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0},
            {"p": 1, "restarts": 0},
            {"p": 1, "budget": 2, "restarts": 3},
            {"p": 1, "shots": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QaoaConfig(**kwargs)


class TestOptimizeParams:
    def test_budget_of_one_start_each_returns_zero_point(self):
        # With budget == restarts only the predefined start points are scored;
        # on a triangle the all-zero point (uniform state, m/2) wins.
        cfg = QaoaConfig(p=1, budget=3, restarts=3, seed=0)
        params, value, n_evals = optimize_params(TRIANGLE, cfg)
        assert n_evals == 3
        assert params == QaoaParams(gammas=(0.0,), betas=(0.0,))
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_starts_beyond_the_budget_are_neither_evaluated_nor_polished(self, monkeypatch):
        # Three starts (two warm ones, then zero) against a budget of two:
        # only the warm starts are scored, so the zero point (1.5) never is.
        worse, better = QaoaParams((1.0,), (-0.5,)), QaoaParams((1.0,), (0.5,))
        seen = []
        evaluate = qaoa.evaluate_params

        def recording(g, params, **kwargs):
            seen.append(params)
            return evaluate(g, params, **kwargs)

        monkeypatch.setattr(qaoa, "evaluate_params", recording)
        cfg = QaoaConfig(p=1, budget=2, restarts=1, seed=0)
        params, value, n_evals = optimize_params(TRIANGLE, cfg, extra_starts=(worse, better))
        assert seen == [worse, better]
        assert n_evals == 2
        assert params == better
        assert value == evaluate(TRIANGLE, better)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_extra_start_of_another_depth_is_rejected(self, depth):
        start = QaoaParams((0.1,) * depth, (0.2,) * depth)
        with pytest.raises(ValueError, match=f"start has depth {depth}, expected 2"):
            optimize_params(TRIANGLE, QaoaConfig(p=2, budget=10), extra_starts=(start,))

    @pytest.mark.parametrize("p", [1, 2])
    def test_cap_is_resolved_once_per_call(self, monkeypatch, p):
        # The run's workspace holds the one check; no optimize_params call of
        # the run, on any rung of the ladder, resolves the cap again.
        calls = []
        resolve = graph.resolve_qubit_cap

        def counting():
            calls.append(None)
            return resolve()

        monkeypatch.setattr(graph, "resolve_qubit_cap", counting)
        result = run_qaoa(TRIANGLE, QaoaConfig(p=p, budget=30, restarts=3, seed=0))
        assert result.n_evaluations > 1
        assert len(calls) == 1

    def test_depth_one_above_the_cap_is_refused(self, monkeypatch):
        # Its evaluations need no state, but the run's workspace (built
        # before any of them) refuses the graph, so nothing is evaluated.
        seen = []
        monkeypatch.setattr(qaoa, "evaluate_params", lambda *args, **kwargs: seen.append(args))
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "7")
        with pytest.raises(ResourceLimitError):
            run_qaoa(Graph(8, ((0, 7),)), QaoaConfig(p=1, budget=10))
        assert seen == []

    def test_depth_one_builds_no_cut_table(self, monkeypatch):
        _forbid_cut_table(monkeypatch)
        g = generate_random_graph(8, 12, 0)
        _, value, _ = optimize_params(g, QaoaConfig(p=1, budget=20, restarts=3, seed=0))
        assert value >= g.m / 2 - 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_never_below_random_assignment_baseline(self, seed):
        n = 4 + seed % 5
        g = generate_random_graph(n, min(2 * n, n * (n - 1) // 2), seed)
        _, value, _ = optimize_params(g, QaoaConfig(p=1, budget=30, restarts=3, seed=seed))
        assert value >= g.m / 2 - 1e-9

    def test_evaluation_budget_is_hard(self):
        for budget in (5, 17, 60):
            cfg = QaoaConfig(p=2, budget=budget, restarts=4, seed=2)
            _, _, n_evals = optimize_params(TRIANGLE, cfg)
            assert n_evals <= budget

    def test_deterministic(self):
        cfg = QaoaConfig(p=2, budget=80, restarts=3, seed=7)
        g = generate_random_graph(6, 9, 4)
        assert optimize_params(g, cfg) == optimize_params(g, cfg)

    def test_value_matches_reported_params(self):
        cfg = QaoaConfig(p=2, budget=100, restarts=3, seed=5)
        g = generate_random_graph(6, 10, 8)
        params, value, _ = optimize_params(g, cfg)
        assert evaluate_params(g, params) == pytest.approx(value, abs=1e-9)


class TestRunQaoa:
    def test_triangle_depth_one_finds_maximum_cut(self):
        result = run_qaoa(TRIANGLE, QaoaConfig(p=1, budget=500, restarts=3, seed=0))
        assert result.best_cut.cut_value == 2

    def test_single_edge_reaches_near_optimal_expectation(self):
        result = run_qaoa(EDGE, QaoaConfig(p=1, budget=500, restarts=3, seed=0))
        assert result.best_expectation >= 0.99
        assert result.best_cut.cut_value == 1

    def test_edgeless_graph(self):
        result = run_qaoa(Graph(3, ()), QaoaConfig(p=1, budget=10, restarts=2, seed=0))
        assert result.best_cut.cut_value == 0
        assert result.best_expectation == pytest.approx(0.0, abs=1e-12)

    def test_result_invariants(self):
        g = generate_random_graph(7, 12, 2)
        cfg = QaoaConfig(p=2, budget=120, restarts=3, seed=3)
        result = run_qaoa(g, cfg)
        assert result.best_params.p == 2
        assert result.n_evaluations <= cfg.budget
        assert 0 <= result.best_cut.cut_value <= g.m
        assert cut_value(g, result.best_cut.labels) == result.best_cut.cut_value
        assert evaluate_params(g, result.best_params) == pytest.approx(
            result.best_expectation, abs=1e-9
        )
        assert result.elapsed >= 0.0

    def test_deterministic_up_to_timing(self):
        g = generate_random_graph(6, 8, 9)
        cfg = QaoaConfig(p=3, budget=90, restarts=3, seed=1)
        a = run_qaoa(g, cfg)
        b = run_qaoa(g, cfg)
        assert a.best_params == b.best_params
        assert a.best_expectation == b.best_expectation
        assert a.best_cut == b.best_cut
        assert a.n_evaluations == b.n_evaluations

    def test_warm_chain_never_loses_ground(self):
        # Feeding depth-p parameters into a depth-(p+1) run must not hurt:
        # the old point padded with zero-angle layers is evaluated as-is.
        for seed in (0, 1, 2):
            g = generate_random_graph(8, 14, seed)
            prev = None
            values = []
            for p in (1, 2, 3):
                cfg = QaoaConfig(p=p, budget=60, restarts=3, seed=seed, warm_start=True)
                result = run_qaoa(g, cfg, warm_params=prev)
                values.append(result.best_expectation)
                prev = result.best_params
            assert values[0] <= values[1] + 1e-9
            assert values[1] <= values[2] + 1e-9

    @given(oracle_graphs(), st.integers(min_value=1, max_value=3), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_never_below_half_the_edges_when_the_budget_passes_the_warm_start(
        self, g, p, ladder, data
    ):
        # The starts are scored in order, warm start first; any budget past
        # it also scores the all-zero start, the uniform state's m / 2.
        depth = data.draw(st.integers(min_value=0, max_value=p))
        angles = st.lists(ANGLES, min_size=depth, max_size=depth)
        warm = QaoaParams(data.draw(angles), data.draw(angles)) if depth else None
        budget = (warm is not None) + data.draw(st.integers(min_value=1, max_value=4))
        restarts = data.draw(st.integers(min_value=1, max_value=budget))
        cfg = QaoaConfig(p=p, budget=budget, restarts=restarts, warm_start=ladder)
        assert run_qaoa(g, cfg, warm_params=warm).best_expectation >= g.m / 2 - 1e-12

    def test_warm_params_deeper_than_target_rejected(self):
        deep = QaoaParams(gammas=(0.1, 0.2), betas=(0.3, 0.4))
        with pytest.raises(ValueError):
            run_qaoa(TRIANGLE, QaoaConfig(p=1, budget=20, restarts=2, seed=0), warm_params=deep)

    def test_internal_ladder_respects_total_budget(self):
        cfg = QaoaConfig(p=3, budget=90, restarts=3, seed=1, warm_start=True)
        result = run_qaoa(TRIANGLE, cfg)
        assert result.n_evaluations <= 90

    @pytest.mark.parametrize("seed", range(3))
    def test_last_rung_takes_what_the_others_leave(self, monkeypatch, seed):
        # 40 // 3 = 13 evaluations per rung, and the last rung also gets the
        # remainder, so the whole budget is offered and, on these graphs, spent.
        budgets = []
        optimize = qaoa.optimize_params

        def recording(g, cfg, **kwargs):
            budgets.append(cfg.budget)
            return optimize(g, cfg, **kwargs)

        monkeypatch.setattr(qaoa, "optimize_params", recording)
        result = run_qaoa(generate_random_graph(12, 20, seed), QaoaConfig(p=3, budget=40))
        assert budgets == [13, 13, 14]
        assert result.n_evaluations == 40

    def test_ladder_stands_down_when_a_rung_cannot_cover_the_restarts(self):
        # budget // p = 2 evaluations per rung cannot cover 3 restarts, so
        # depth 3 is optimized directly, as with the ladder switched off.
        g = generate_random_graph(6, 8, 0)
        result = run_qaoa(g, QaoaConfig(p=3, budget=6, restarts=3, seed=0))
        cold = run_qaoa(g, QaoaConfig(p=3, budget=6, restarts=3, seed=0, warm_start=False))
        fields = ("best_params", "best_expectation", "best_cut", "n_evaluations")
        assert [getattr(result, f) for f in fields] == [getattr(cold, f) for f in fields]

    def test_cold_start_supported(self):
        cfg = QaoaConfig(p=2, budget=60, restarts=3, seed=4, warm_start=False)
        result = run_qaoa(TRIANGLE, cfg)
        assert result.best_params.p == 2
        assert result.n_evaluations <= 60

    def test_sampled_extraction_is_deterministic_and_valid(self):
        g = generate_random_graph(6, 9, 5)
        cfg = QaoaConfig(p=1, budget=40, restarts=3, seed=6, shots=256)
        a = run_qaoa(g, cfg)
        b = run_qaoa(g, cfg)
        assert a.best_cut == b.best_cut
        assert cut_value(g, a.best_cut.labels) == a.best_cut.cut_value

    def test_shot_noise_cannot_invent_cuts(self):
        g = generate_random_graph(5, 7, 3)
        cfg = QaoaConfig(p=1, budget=40, restarts=3, seed=6, shots=64)
        result = run_qaoa(g, cfg)
        assert result.best_cut.cut_value <= 7


class TestRunOnTheHalf:
    """``run_qaoa`` on one half-register workspace, against the full register."""

    @given(
        half_oracle_graphs(max_n=12),
        st.integers(min_value=1, max_value=3).flatmap(
            lambda p: st.lists(
                st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False),
                min_size=2 * p,
                max_size=2 * p,
            )
        ),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=300)),
        st.integers(min_value=0, max_value=2**32),
    )
    @example(Graph(1, ()), [0.3, 0.7], 5, 0)
    @settings(max_examples=150, deadline=None)
    def test_extraction_matches_full_register_reference(self, g, angles, shots, seed):
        params = QaoaParams.from_flat(angles)
        cfg = QaoaConfig(p=params.p, budget=8, restarts=2, shots=shots, seed=seed)
        table = cut_values_by_basis(g)
        sv = apply_qaoa_circuit(g, params)
        workspace = simulator.FlipSymmetricWorkspace(g)
        np.testing.assert_allclose(
            workspace.probabilities(params),
            sv.probabilities(),
            rtol=0,
            atol=1e-12,
        )
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed & ((1 << 64) - 1), qaoa._STREAM_SHOTS])
        )
        assert workspace.cut(params, cfg.shots, rng) == _extract_assignment(sv, g, cfg, table)
        result = run_qaoa(g, cfg)
        full = apply_qaoa_circuit(g, result.best_params)
        assert result.best_cut == _extract_assignment(full, g, cfg, table)

    @pytest.mark.parametrize("mode", ["ladder", "cold", "warm"])
    @pytest.mark.parametrize("shots", [0, 64])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_run_builds_no_full_cut_table(self, monkeypatch, p, shots, mode):
        _forbid_cut_table(monkeypatch)
        g = generate_random_graph(7, 12, p)
        cfg = QaoaConfig(p=p, budget=24, restarts=3, seed=p, shots=shots, warm_start=mode != "cold")
        warm = QaoaParams(gammas=(0.4,), betas=(0.3,)) if mode == "warm" else None
        result = run_qaoa(g, cfg, warm_params=warm)
        assert cut_value(g, result.best_cut.labels) == result.best_cut.cut_value

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_run_allocates_one_workspace_and_no_full_state(self, monkeypatch, p):
        built = []

        def counting(g, *args):
            built.append(g.n)
            return simulator.FlipSymmetricWorkspace(g, *args)

        def forbidden(*args, **kwargs):
            raise AssertionError("full-register state allocated")

        monkeypatch.setattr(qaoa, "FlipSymmetricWorkspace", counting)
        monkeypatch.setattr(simulator, "init_uniform", forbidden)
        g = generate_random_graph(7, 12, 1)
        result = run_qaoa(g, QaoaConfig(p=p, budget=30, restarts=3, seed=0, shots=32))
        assert result.n_evaluations > p
        assert built == [7]

    @pytest.mark.parametrize("shots", [0, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("g", [Graph(1, ()), Graph(2, ()), EDGE], ids=["n1m0", "n2m0", "n2m1"])
    def test_tiny_registers_match_the_full_register(self, g, p, shots):
        # n=1: the table is one entry and vertex 0 is the top vertex;
        # n=2: one low vertex, then the top one with or without its edge.
        params = QaoaParams.from_flat(np.random.default_rng(p).uniform(-3.0, 3.0, 2 * p))
        full = expectation_cut(apply_qaoa_circuit(g, params), g)
        assert evaluate_params(g, params) == pytest.approx(full, abs=1e-12)
        cfg = QaoaConfig(p=p, budget=12, restarts=2, seed=p, shots=shots)
        result = run_qaoa(g, cfg)
        sv = apply_qaoa_circuit(g, result.best_params)
        assert result.best_expectation == pytest.approx(expectation_cut(sv, g), abs=1e-12)
        assert result.best_cut == _extract_assignment(sv, g, cfg, cut_values_by_basis(g))

    @pytest.mark.parametrize(("shots", "bound"), [(0, 1.7), (4096, 1.9)])
    def test_run_peak_memory(self, shots, bound):
        # n=18: the full state would be 4 MiB.  The workspace is 1.25x; the
        # threshold scan adds one intp half table (reads 1.60x), a sampled
        # run the buffer that keeps its best state, 0.5x, where the sampler
        # once copied its cumulative distribution (reads 1.85x).  The
        # full-register final state peaked at 2.27x either way.
        g = generate_random_graph(18, 34, 0)
        cfg = QaoaConfig(p=2, budget=6, restarts=2, seed=0, shots=shots)
        full_state = (1 << g.n) * 16
        tracemalloc.start()
        try:
            run_qaoa(g, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * full_state, f"peak {peak / full_state:.2f}x the state"


@pytest.mark.slow
def test_elapsed_grows_with_depth_at_fixed_budget():
    g = generate_random_graph(10, 20, 0)
    times = {}
    for p in (1, 3):
        cfg = QaoaConfig(p=p, budget=150, restarts=3, seed=0, warm_start=False)
        times[p] = run_qaoa(g, cfg).elapsed
    assert times[3] / times[1] >= 1.5
