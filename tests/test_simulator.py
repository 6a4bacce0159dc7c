import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import kernel_oracle
from harness import EDGE, TRIANGLE, VALUE_EPS, every_half, traced_peak
from qmaxcut import (
    CutAssignment,
    Graph,
    QaoaParams,
    cut_value,
    cut_values_by_basis,
    generate_random_graph,
    labels_from_index,
    resolve_qubit_cap,
    simulator,
)
from qmaxcut.graph import half_cut_values_by_basis, peak_bytes
from qmaxcut.simulator import (
    StateVector,
    apply_cost_layer,
    apply_mixer_layer,
    apply_qaoa_circuit,
    expectation_cut,
    init_uniform,
    sample_bitstrings,
)


def basis_state(n, index):
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits=n, amplitudes=amps)


def random_states():
    """Normalised complex states on 1..13 qubits (every ``n mod 4``)."""

    def build(n, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        return amps / np.linalg.norm(amps)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=13),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


def mixer_angles():
    return st.one_of(
        st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]),
        st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False),
    )


class TestQaoaParams:
    def test_p_and_point_round_trip(self):
        # The optimizer's flat layout [g1..gp, b1..bp], split and joined again.
        x = [0.1, 0.2, 0.3, 0.4]
        params = QaoaParams(gammas=x[:2], betas=x[2:])
        assert params.p == 2
        assert [*params.gammas, *params.betas] == x

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            QaoaParams(gammas=(0.1,), betas=(0.2, 0.3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QaoaParams(gammas=(), betas=())


class TestInitUniform:
    def test_amplitudes(self):
        sv = init_uniform(3)
        assert sv.n_qubits == 3
        assert np.all(sv.amplitudes == sv.amplitudes[0])
        assert sv.amplitudes[0] == pytest.approx(2 ** -1.5, abs=1e-15)

    def test_norm_is_one(self):
        assert init_uniform(6).norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_no_qubits(self, n):
        with pytest.raises(ValueError, match="at least one qubit"):
            init_uniform(n)

    def test_default_cap(self):
        assert resolve_qubit_cap() == 24


class TestStateVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(n_qubits=2, amplitudes=np.zeros(3, dtype=np.complex128))

    def test_rejects_no_qubits(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            StateVector(n_qubits=0, amplitudes=np.ones(1, dtype=np.complex128))

    def test_probabilities_sum_to_one(self):
        sv = init_uniform(4)
        assert sv.probabilities().sum() == pytest.approx(1.0, abs=1e-12)


class TestCostLayer:
    def test_gamma_zero_is_identity(self):
        sv = init_uniform(3)
        before = sv.amplitudes.copy()
        apply_cost_layer(sv, TRIANGLE, 0.0)
        np.testing.assert_array_equal(sv.amplitudes, before)

    def test_phase_on_basis_states(self):
        # A basis state only picks up the phase exp(-i * gamma * cut(b)).
        for index in range(4):
            sv = basis_state(2, index)
            apply_cost_layer(sv, EDGE, math.pi)
            expected = (-1.0) ** cut_value(EDGE, labels_from_index(2, index))
            assert sv.amplitudes[index] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "apply", [lambda sv, g: apply_cost_layer(sv, g, 0.3), expectation_cut],
    ids=["apply_cost_layer", "expectation_cut"],
)
@pytest.mark.parametrize("n", [2, 4])
def test_graph_of_another_size_is_refused(apply, n):
    with pytest.raises(ValueError, match=f"graph has {n} vertices but state has 3 qubits"):
        apply(init_uniform(3), Graph(n, ((0, 1),)))


def kron_power(m, k):
    """``m`` Kronecker-multiplied with itself ``k`` times."""
    out = np.ones((1, 1))
    for _ in range(k):
        out = np.kron(out, m)
    return out


REFERENCE = ("init_uniform", "apply_cost_layer", "apply_mixer_layer", "apply_qaoa_circuit",
             "expectation_cut")
WORKSPACE_ONLY = {"_Mixer", "_block_index", "_frame_classes", "_NIBBLE_CLASSES",
                  "_flip_symmetric_state", "_top_rotation", "_circuit", "FlipSymmetricWorkspace",
                  "half_cut_values_by_basis"}


@pytest.mark.parametrize("name", REFERENCE)
def test_the_full_register_reference_shares_no_kernel_with_the_workspace(name):
    # The function and every module-level function it names, transitively,
    # name nothing that the workspace runs.
    tree = ast.parse(Path(simulator.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names, todo = {name}, [name]
    while todo:
        found = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(functions[todo.pop()])}
        todo += (found & functions.keys()) - names
        names |= found
    shared = names & WORKSPACE_ONLY
    assert not shared, f"{name} reaches {sorted(shared)}"


class TestMixerLayer:
    def test_beta_zero_is_identity(self):
        sv = apply_cost_layer(init_uniform(3), TRIANGLE, 0.9)
        before = sv.amplitudes.copy()
        apply_mixer_layer(sv, 0.0)
        np.testing.assert_array_equal(sv.amplitudes, before)

    def test_equal_superposition_probabilities_are_fixed(self):
        sv = init_uniform(4)
        apply_mixer_layer(sv, 0.813)
        np.testing.assert_allclose(sv.probabilities(), np.full(16, 1 / 16), atol=1e-12)

    @given(random_states(), mixer_angles())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_qubit_reference(self, amps, beta):
        n = amps.size.bit_length() - 1
        sv = StateVector(n_qubits=n, amplitudes=amps.copy())
        buffer = sv.amplitudes
        assert apply_mixer_layer(sv, beta) is sv
        assert sv.amplitudes is buffer
        # The workspace's fused mixer (_Mixer), run in its frame on the whole register.
        expected = kernel_oracle.mixer_layer(amps.copy(), beta, kernel_oracle.plan_mix)
        np.testing.assert_allclose(sv.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_dense_exponential(self, n):
        # exp(-i b sum_q X_q) as one dense 2**n x 2**n matrix; X_q acts on bit q.
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        mixer = sum(np.kron(np.kron(np.eye(1 << (n - 1 - q)), x), np.eye(1 << q)) for q in range(n))
        rng = np.random.default_rng(n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        for beta in (0.37, -1.2, math.pi / 2, 2.9, float(rng.uniform(-7.0, 7.0))):
            got = apply_mixer_layer(StateVector(n, amps.copy()), beta).amplitudes
            np.testing.assert_allclose(got, expm(-1j * beta * mixer) @ amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.37, -1.2, math.pi / 2, 2.9])
    def test_real_rotation_in_the_frame_is_the_qubit_mixer(self, beta):
        # exp(-i b X) = E r E^-1 with E = diag(1, i) and a real rotation r.
        c, s = math.cos(beta), math.sin(beta)
        frame = np.diag([1.0, 1j])
        r = np.array([[c, s], [-s, c]])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            frame @ r @ np.linalg.inv(frame), expm(-1j * beta * x), rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("n", range(1, 14))
    def test_blocks_above_bit_three_are_real_powers_of_the_rotation(self, n):
        beta = 0.613
        c, s = math.cos(beta), math.sin(beta)
        r = np.array([[c, s], [-s, c]])
        qubit = np.array([[c, -1j * s], [-1j * s, c]])
        blocks = simulator._Mixer(n, *np.empty((2, 1 << n), dtype=np.complex128)).weigh(beta)
        assert [lo for lo, _ in blocks] == list(range(0, n, 4))
        for lo, block in blocks:
            k = min(4, n - lo)
            assert block.dtype == np.float64
            if lo == 0:  # R^{(x)k} acting on (re, im) pairs of the float64 view
                z = kron_power(qubit, k)
                expected = np.kron(z.real, [[1, 0], [0, 1]]) + np.kron(z.imag, [[0, 1], [-1, 0]])
            else:
                expected = kron_power(r, k)
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("forced", [False, True], ids=["rule", "panels everywhere"])
    @pytest.mark.parametrize("n", range(12, 22))
    def test_row_panels_match_the_whole_block_product(self, monkeypatch, n, forced):
        # The rule leaves n <= 16 on whole blocks; forcing panels checks the
        # panel path at those sizes too.
        rng = np.random.default_rng(n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        beta = rng.uniform(-3.0, 3.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_PANEL_MIN_QUBITS", 64)  # whole blocks only
            want = kernel_oracle.mix(amps.copy(), np.empty_like(amps), beta, n)
        if forced:
            monkeypatch.setattr(simulator, "_PANEL_MIN_QUBITS", 0)
            monkeypatch.setattr(simulator, "_PANEL_MIN_LO", 8)
        got = simulator._Mixer(n, amps, np.empty_like(amps))(beta)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_one_scratch_state(self):
        # n=16: the state is 1 MiB.  The layer allocates one state-sized
        # scratch buffer and nothing else of that size; per-qubit passes
        # written as numpy expressions peaked at 1.63x.
        sv = init_uniform(16)
        apply_cost_layer(sv, generate_random_graph(16, 30, 0), 0.4)
        peak, _ = traced_peak(apply_mixer_layer, sv, 0.7)
        assert peak <= 1.1 * sv.amplitudes.nbytes, (
            f"peak {peak / sv.amplitudes.nbytes:.2f}x the state"
        )


def assert_low_table_is_the_half(g):
    table = simulator.FlipSymmetricWorkspace(g).low_table
    assert table.dtype == np.min_scalar_type(g.m)
    assert np.array_equal(table, cut_values_by_basis(g)[: 1 << (g.n - 1)])


def assert_workspace_peak(g, shots, bound):
    """The tracemalloc peak of a workspace sampling ``shots`` lies between
    0.97 times its byte model and ``bound`` full states."""
    full_state = (1 << g.n) * 16
    peak, _ = traced_peak(simulator.FlipSymmetricWorkspace, g, shots)
    assert 0.97 * peak_bytes("workspace", g.n, g.m, shots) <= peak <= bound * full_state, (
        f"peak {peak / full_state:.4f}x the state"
    )


def complete_graph(n):
    return Graph(n, tuple((u, v) for v in range(n) for u in range(v)))


def explicit_table_graphs(n):
    """Edgeless, complete, a star on each end and the one edge between them."""
    return {
        "empty": Graph(n, ()),
        "complete": complete_graph(n),
        "star on 0": Graph(n, tuple((0, v) for v in range(1, n))),
        "star on n-1": Graph(n, tuple((u, n - 1) for u in range(n - 1))),
        "edge (0, n-1)": Graph(n, ((0, n - 1),) if n > 1 else ()),
    }


class TestHalfCutTable:
    """The workspace's low half of the cut table, built vertex by vertex,
    against the full table's per-edge adds."""

    @given(
        st.integers(min_value=1, max_value=14).flatmap(
            lambda n: st.builds(
                generate_random_graph,
                st.just(n),
                st.integers(min_value=0, max_value=n * (n - 1) // 2),
                st.integers(min_value=0, max_value=2**32),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_table(self, g):
        assert_low_table_is_the_half(g)

    @pytest.mark.parametrize("kind", list(explicit_table_graphs(1)))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 13])
    def test_matches_the_full_table_on_explicit_graphs(self, n, kind):
        assert_low_table_is_the_half(explicit_table_graphs(n)[kind])

    def test_matches_the_full_table_at_n18(self):
        assert_low_table_is_the_half(generate_random_graph(18, 60, 18))

    def test_workspace_peak_memory(self):
        # n=18: the full state would be 4 MiB.  Built in place, the
        # workspace reads 0.7324x, under a bound of 0.735.
        # The table's popcounts borrow the state buffer, and it is built in
        # its own dtype.
        assert_workspace_peak(generate_random_graph(18, 34, 0), 0, 0.735)

    def test_keep_best_workspace_peak_memory(self):
        # A sampling workspace adds only its sorted uniforms: with 4,096
        # shots it reads 0.7362x, under a bound of 0.745.
        # They are drawn before the state, so the stream's Python ints
        # (about 0.04x) never sit beside it.
        assert_workspace_peak(generate_random_graph(18, 34, 0), 4096, 0.745)

    def test_one_byte_table_wraps_around_exactly(self):
        # K_23 (m = 253) is the complete graph with the most edges a
        # one-byte table holds, so the doubling's differences wrap below
        # zero the most.  Its cut values have a closed form,
        # popcount(y) * (23 - popcount(y)), so no full table is needed.
        g = complete_graph(23)
        half = 1 << 22
        table = half_cut_values_by_basis(g, np.empty(half, dtype=np.uint8))
        assert table.dtype == np.uint8
        ones = np.zeros(half, dtype=np.uint8)
        j = 1
        while j < half:
            np.add(ones[:j], 1, out=ones[j : 2 * j])
            j *= 2
        ones = ones.astype(np.int16)
        assert np.array_equal(table, ones * (23 - ones))

    def test_two_byte_table_matches_the_full_table(self):
        g = generate_random_graph(11, 40, 5)
        table = half_cut_values_by_basis(g, np.empty(1 << 10, dtype=np.uint16))
        assert table.dtype == np.uint16
        assert np.array_equal(table, cut_values_by_basis(g)[: 1 << 10])

    def test_a_dtype_that_cannot_hold_m_is_refused(self):
        # m = 276 needs two bytes; refused before the table is allocated.
        with pytest.raises(ValueError, match="cannot hold"):
            half_cut_values_by_basis(complete_graph(24), np.empty(0, dtype=np.uint8))


@pytest.mark.parametrize("shots", [0, 64], ids=["scan", "sampled"])
@pytest.mark.parametrize("n", [1, 5, 9, 17])  # 0, 1, 2 and 4 mixer blocks, the last chunked
def test_the_buffers_keep_their_roles(n, shots):
    # Every preparation ends in ``state``, whichever buffer the mixer's
    # blocks end in: the workspace never trades one buffer for the other.
    # From n=17 the scratch buffer is 512 KiB, less than the half state.
    g = generate_random_graph(n, min(n * (n - 1) // 2, 2 * n), n)
    ws = simulator.FlipSymmetricWorkspace(g, shots, 3)
    state, scratch = ws.state, ws.scratch
    assert scratch.size == min(state.size, 1 << 15)
    circuits = [QaoaParams((0.4, 0.1), (0.3, 0.2)), QaoaParams((0.7,), (-0.5,)),
                QaoaParams((0.0,), (0.9,)), QaoaParams((0.2,), (0.0,))]
    for params in circuits:
        ws.expectation(params)
        ws.cut(params)
        ws.probabilities(params)
        ws.cut(circuits[0])
        assert ws.state is state and ws.scratch is scratch
        assert ws._state_of(simulator._circuit(params)) is state


# Circuits for the chunked layout: depth 2 and 3, one with zero angles,
# and one near the uniform state, a corner where the optimizer's first
# simplex lies at small budgets.
CHUNKED_CIRCUITS = [QaoaParams((0.7, 0.31), (0.45, 0.22)),
                    QaoaParams((0.2, -1.3, 0.5), (-0.4, 0.9, 1.7)),
                    QaoaParams((0.0, 0.3), (0.5, 0.0)),
                    QaoaParams((3.125e-05, 3.125e-05), (3.125e-05, 0.000125))]


@pytest.mark.parametrize("n", [17, 18, 20])
class TestOneBufferLayout:
    """From n=17 the workspace runs its kernels chunk by chunk through a
    512 KiB scratch buffer and reads probabilities in the state buffer:
    each output against its whole-array formula on a copy of the state."""

    def test_draws_and_scans_read_the_full_probabilities(self, n):
        g = generate_random_graph(n, 3 * n, n)
        low = simulator.FlipSymmetricWorkspace(g).low_table
        table = np.concatenate([low, low[::-1]])
        for params in CHUNKED_CIRCUITS:
            sampled, scanned = (simulator.FlipSymmetricWorkspace(g, *s) for s in ((4096, n), (0,)))
            w = sampled._state_of(simulator._circuit(params)).copy()
            p = np.square(np.abs(w))
            probs = np.concatenate([p, p[::-1]])
            drawn = simulator._draw(probs.copy(), sampled.uniforms)
            want = int(drawn[np.argmax(table[drawn])])
            assert sampled._drawn_cut(simulator._circuit(params)) == want
            candidates = np.flatnonzero(probs >= 1.0 / (1 << (n + 1)))
            best = int(candidates[np.argmax(table[candidates])])
            assert scanned.cut(params) == CutAssignment(labels_from_index(n, best),
                                                        int(table[best]))

    def test_expectation_is_the_order_fixed_sum(self, n):
        # Against the same sum in extended precision, the value errs by at
        # most 1.0 eps relative on these circuits.  The vdot differs from it
        # by up to 1,272.5 eps on one BLAS thread and 128 eps on two (n=20,
        # near the uniform state; 14.3 eps at most over 30 random circuits
        # at n=17-20, one thread).  The bounds leave 4x and 1.6x those.
        # A circuit whose canonical form is valued in closed form is held to
        # the every-kernel run's order-fixed sum within the canonical bound.
        g = generate_random_graph(n, 3 * n, n)
        ws = simulator.FlipSymmetricWorkspace(g)
        eps = np.finfo(float).eps
        for params in CHUNKED_CIRCUITS:
            value = ws.expectation(params)
            if len(simulator._circuit(params)) <= 2:
                kernel_oracle.flip_symmetric_state(every_half(params), ws)
                ws.held = None
                want = 2.0 * float(np.add.reduce(ws.low_table * np.square(np.abs(ws.state))))
                assert abs(value - want) <= VALUE_EPS * eps * g.m * g.n
                continue
            w = ws.state
            assert value == 2.0 * float(np.add.reduce(ws.low_table * np.square(np.abs(w))))
            re, im = w.real.astype(np.longdouble), w.imag.astype(np.longdouble)
            exact = 2 * float(np.sum(ws.low_table * (re * re + im * im)))
            assert abs(value - exact) <= 4 * eps * exact
            dot = 2.0 * float(np.vdot(w, ws.low_table * w).real)
            assert abs(value - dot) <= 2048 * eps * abs(dot)


@pytest.mark.parametrize("bits", range(14, 23))
def test_chunk_sums_added_pairwise_are_numpys_sum(bits):
    # The order-fixed expectation rests on numpy's pairwise summation: over
    # a power-of-two float64 array, np.add.reduce equals the sums of its
    # 2**14-entry chunks added pairwise, neighbours first, bit for bit.
    rng = np.random.default_rng(bits)
    for a in (rng.random(1 << bits), rng.normal(size=1 << bits)):
        sums = [float(np.add.reduce(a[i : i + (1 << 14)])) for i in range(0, a.size, 1 << 14)]
        while len(sums) > 1:
            sums = [x + y for x, y in zip(sums[::2], sums[1::2])]
        assert sums[0] == float(np.add.reduce(a))


class TestCircuit:
    def test_all_zero_angles_leave_uniform_state(self):
        params = QaoaParams(gammas=(0.0, 0.0), betas=(0.0, 0.0))
        sv = apply_qaoa_circuit(TRIANGLE, params)
        np.testing.assert_array_equal(sv.amplitudes, init_uniform(3).amplitudes)

    def test_single_layer_matches_manual_composition(self):
        params = QaoaParams(gammas=(0.8,), betas=(0.3,))
        auto = apply_qaoa_circuit(TRIANGLE, params)
        manual = apply_mixer_layer(apply_cost_layer(init_uniform(3), TRIANGLE, 0.8), 0.3)
        np.testing.assert_array_equal(auto.amplitudes, manual.amplitudes)

    def test_gamma_period_two_pi(self):
        params = QaoaParams(gammas=(0.4,), betas=(0.9,))
        shifted = QaoaParams(gammas=(0.4 + 2 * math.pi,), betas=(0.9,))
        a = apply_qaoa_circuit(TRIANGLE, params)
        b = apply_qaoa_circuit(TRIANGLE, shifted)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-9)


class TestExpectation:
    def test_basis_state_gives_exact_cut(self):
        for index in range(8):
            sv = basis_state(3, index)
            expected = cut_value(TRIANGLE, labels_from_index(3, index))
            assert expectation_cut(sv, TRIANGLE) == pytest.approx(expected, abs=1e-12)

    def test_edgeless_graph_gives_zero(self):
        assert expectation_cut(init_uniform(3), Graph(3, ())) == 0.0


class TestSampling:
    def test_deterministic_for_same_seed(self):
        sv = apply_qaoa_circuit(TRIANGLE, QaoaParams(gammas=(0.5,), betas=(0.2,)))
        np.testing.assert_array_equal(
            sample_bitstrings(sv, 64, seed=9), sample_bitstrings(sv, 64, seed=9)
        )

    def test_int_seed_draws_what_default_rng_draws(self):
        # The shots stream: default_rng(SeedSequence([seed mod 2**64, 2])).
        sv = apply_qaoa_circuit(TRIANGLE, QaoaParams(gammas=(0.5,), betas=(0.2,)))
        probs = sv.probabilities()
        for seed in (0, 1, 2**32, 2**64 - 1, 2**70 + 3, -1):
            rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, 2]))
            want = rng.choice(8, 64, p=probs / probs.sum())
            out = sample_bitstrings(sv, 64, seed=seed)
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, want)

    def test_a_seed_or_shots_that_is_not_an_int_is_refused(self):
        # Read by the one integer rule, not truncated: 9.7 is not seed 9.
        # Both are read whatever shots is: a scanning workspace refuses shots
        # 0.0, and seed "x" beside shots False, and takes any int seed.
        for sample in (lambda shots, seed: sample_bitstrings(init_uniform(3), shots, seed=seed),
                       lambda shots, seed: simulator.FlipSymmetricWorkspace(TRIANGLE, shots, seed)):
            with pytest.raises(ValueError, match=r"^seed must be an int, got 9\.7$"):
                sample(4, 9.7)
            with pytest.raises(ValueError, match=r"^seed must be an int, got 'x'$"):
                sample(False, "x")
            for shots in (2.5, 0.0):
                with pytest.raises(ValueError, match=rf"^shots must be an int, got {shots}$"):
                    sample(shots, 9.7)
        assert simulator.FlipSymmetricWorkspace(TRIANGLE, 0, -1).uniforms.size == 0

    @pytest.mark.parametrize("shots", [0, -1])
    def test_rejects_non_positive_shots(self, shots):
        with pytest.raises(ValueError, match="shots must be positive"):
            sample_bitstrings(init_uniform(2), shots, seed=0)
        if shots:  # a workspace built with shots=0 scans
            with pytest.raises(ValueError, match="shots must be positive"):
                simulator.FlipSymmetricWorkspace(TRIANGLE, shots)

    def test_a_sampling_workspace_cuts_with_its_own_shots(self):
        # An evaluated workspace built with 8 shots and seed 0 picks the best
        # cut among the 8 indices that numpy's choice draws on that stream,
        # 17, not the threshold scan's 18.
        g = generate_random_graph(12, 24, 0)
        params = QaoaParams((0.4, 0.2), (0.3, 0.1))
        workspace = simulator.FlipSymmetricWorkspace(g, 8, 0)
        workspace.expectation(params)
        probs = simulator.FlipSymmetricWorkspace(g).probabilities(params)
        rng = np.random.default_rng(np.random.SeedSequence([0, 2]))
        candidates = np.unique(rng.choice(1 << g.n, 8, p=probs / probs.sum()))
        table = cut_values_by_basis(g)
        best = int(candidates[np.argmax(table[candidates])])
        assert workspace.cut(params).labels == labels_from_index(g.n, best)
        assert workspace.cut(params).cut_value == table[best] == 17
        assert simulator.FlipSymmetricWorkspace(g).cut(params).cut_value == 18

    def test_basis_state_always_samples_itself(self):
        sv = basis_state(3, 5)
        assert set(sample_bitstrings(sv, 100, seed=0).tolist()) == {5}

    def test_uniform_two_qubit_frequencies(self):
        counts = np.bincount(
            sample_bitstrings(init_uniform(2), 40_000, seed=123), minlength=4
        )
        np.testing.assert_allclose(counts / 40_000, np.full(4, 0.25), atol=0.02)

    @pytest.mark.parametrize("bits", range(1, 21))
    def test_draw_is_generator_choice_draw_for_draw(self, bits):
        # The in-place sampler repeats numpy's Generator.choice(p=...) steps;
        # a numpy release that changes them must fail here, not move draws.
        # 4096 shots lie above the size for up to 11 bits.
        size = 1 << bits
        probs = np.random.default_rng(bits).random(size) ** 4
        probs[::7] = 0.0
        # choice's own steps on p = probs / probs.sum(): cumsum, then / cdf[-1].
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        for seed in range(20):
            want_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
            want = want_rng.choice(size, 4096, p=probs / probs.sum())
            left = probs.copy()
            got = simulator._draw(left, simulator._uniforms(4096, seed))
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            # Draws rarely land in a few-ulp gap, so pin the distribution itself.
            assert left.tobytes() == cdf.tobytes()

    @given(
        st.integers(min_value=0, max_value=7).flatmap(
            lambda bits: st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
                                  min_size=1 << bits, max_size=1 << bits)
        ).filter(any),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_sorted_uniforms_draw_the_sorted_draws(self, probs, shots, seed):
        # The workspace searches its uniforms in sorted order: the same
        # candidates as a draw in stream order, sorted.
        probs = np.array(probs)
        uniforms = simulator._uniforms(shots, seed)
        got = simulator._draw(probs.copy(), np.sort(uniforms))
        assert got.dtype == np.int64
        assert got.tobytes() == np.sort(simulator._draw(probs.copy(), uniforms)).tobytes()

    def test_draw_refuses_a_state_of_zeros(self):
        with pytest.raises(ValueError, match="positive finite sum"):
            sample_bitstrings(StateVector(2, np.zeros(4)), 8, seed=0)
