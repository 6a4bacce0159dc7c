import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import kernel_oracle
from qmaxcut import (
    Graph,
    QaoaParams,
    ResourceLimitError,
    StateVector,
    apply_cost_layer,
    apply_mixer_layer,
    apply_qaoa_circuit,
    cut_value,
    cut_values_by_basis,
    expectation_cut,
    generate_random_graph,
    graph,
    init_uniform,
    labels_from_index,
    resolve_qubit_cap,
    sample_bitstrings,
    simulator,
)

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
EDGE = Graph(2, ((0, 1),))


def basis_state(n, index):
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits=n, amplitudes=amps)


def reference_mixer_blocks(beta, n):
    """The mixer blocks as once built: per block, a weight array fancy-indexed
    by bit difference, then multiplied by the signs for the real blocks."""
    size = 1 << simulator.MIXER_BLOCK_QUBITS
    diffs = np.array([[bin(i ^ j).count("1") for j in range(size)] for i in range(size)])
    signs = np.array([[(-1.0) ** bin(i & ~j).count("1") for j in range(size)] for i in range(size)])

    def power(c, s, k):
        return np.array([c ** (k - d) * s**d for d in range(k + 1)])[diffs[: 1 << k, : 1 << k]]

    c, s = math.cos(beta), math.sin(beta)
    blocks = []
    for lo in range(0, n, 4):
        k = min(4, n - lo)
        if lo == 0:
            block = power(c, -1j * s, k)
        elif lo > 4 and k == 4:
            block = blocks[-1][1]
        else:
            block = power(c, s, k) * signs[: 1 << k, : 1 << k]
        blocks.append((lo, block))
    return blocks


def reference_mixer_layer(amps, beta):
    """The per-qubit mixer the fused kernel replaced: one strided 2x2 pass per qubit."""
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    for q in range(amps.size.bit_length() - 1):
        block = amps.reshape(-1, 2, 1 << q)
        lo = block[:, 0, :]
        hi = block[:, 1, :]
        new_lo = c * lo + s * hi
        hi *= c
        hi += s * lo
        lo[:] = new_lo
    return amps


def whole_block_mix(amps, scratch, beta, n):
    """The mixer before row panels: every block one matrix product over
    the whole register."""
    src, dst = amps, scratch
    for lo, block in kernel_oracle.mixer_blocks(beta, n):
        size = block.shape[0]
        if lo == 0:
            np.matmul(src.reshape(-1, size), block, out=dst.reshape(-1, size))
        else:
            shape = (-1, size, 2 << lo)
            np.matmul(
                block,
                src.view(np.float64).reshape(shape),
                out=dst.view(np.float64).reshape(shape),
            )
        src, dst = dst, src
    return src


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


def angle():
    return st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def graph_param_cases():
    def build(n, seed, p, flat):
        m = seed % (n * (n - 1) // 2 + 1)
        g = generate_random_graph(n, m, seed)
        return g, QaoaParams(gammas=tuple(flat[:p]), betas=tuple(flat[p : 2 * p]))

    return st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.integers(min_value=1, max_value=3).flatmap(
            lambda p: st.builds(
                build,
                st.just(n),
                st.integers(min_value=0, max_value=10**6),
                st.just(p),
                st.lists(angle(), min_size=2 * p, max_size=2 * p),
            )
        )
    )


class TestQaoaParams:
    def test_p_and_flat_round_trip(self):
        params = QaoaParams(gammas=(0.1, 0.2), betas=(0.3, 0.4))
        assert params.p == 2
        np.testing.assert_array_equal(params.to_flat(), [0.1, 0.2, 0.3, 0.4])
        assert QaoaParams.from_flat([0.1, 0.2, 0.3, 0.4]) == params

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            QaoaParams(gammas=(0.1,), betas=(0.2, 0.3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QaoaParams(gammas=(), betas=())

    def test_from_flat_rejects_odd_length(self):
        with pytest.raises(ValueError):
            QaoaParams.from_flat([0.1, 0.2, 0.3])


class TestInitUniform:
    def test_amplitudes(self):
        sv = init_uniform(3)
        assert sv.n_qubits == 3
        assert np.all(sv.amplitudes == sv.amplitudes[0])
        assert sv.amplitudes[0] == pytest.approx(2 ** -1.5, abs=1e-15)

    def test_norm_is_one(self):
        assert init_uniform(6).norm() == pytest.approx(1.0, abs=1e-12)

    def test_explicit_cap_refuses(self, monkeypatch):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "10")
        with pytest.raises(ResourceLimitError):
            init_uniform(11)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "4")
        with pytest.raises(ResourceLimitError):
            init_uniform(5)
        assert init_uniform(4).n_qubits == 4

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_no_qubits(self, n):
        with pytest.raises(ValueError, match="at least one qubit"):
            init_uniform(n)

    def test_garbage_env_cap_rejected(self, monkeypatch):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "many")
        with pytest.raises(ValueError):
            resolve_qubit_cap()

    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("QMAXCUT_QUBIT_CAP", raising=False)
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

    def test_accepts_precomputed_table(self):
        table = cut_values_by_basis(TRIANGLE)
        a = apply_cost_layer(init_uniform(3), TRIANGLE, 0.7, cut_table=table)
        b = apply_cost_layer(init_uniform(3), TRIANGLE, 0.7)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    @given(graph_param_cases())
    @settings(max_examples=40, deadline=None)
    def test_probabilities_untouched(self, case):
        g, params = case
        sv = apply_qaoa_circuit(g, params)
        before = sv.probabilities()
        apply_cost_layer(sv, g, 1.234)
        np.testing.assert_allclose(sv.probabilities(), before, atol=1e-12)


@pytest.mark.parametrize(
    "apply", [lambda sv, g: apply_cost_layer(sv, g, 0.3), expectation_cut],
    ids=["apply_cost_layer", "expectation_cut"],
)
@pytest.mark.parametrize("n", [2, 4])
def test_graph_of_another_size_is_refused(apply, n):
    with pytest.raises(ValueError, match=f"graph has {n} vertices but state has 3 qubits"):
        apply(init_uniform(3), Graph(n, ((0, 1),)))


class TestMixerLayer:
    def test_beta_zero_is_identity(self):
        sv = apply_cost_layer(init_uniform(3), TRIANGLE, 0.9)
        before = sv.amplitudes.copy()
        apply_mixer_layer(sv, 0.0)
        np.testing.assert_array_equal(sv.amplitudes, before)

    def test_quarter_turn_flips_a_qubit(self):
        sv = basis_state(1, 0)
        apply_mixer_layer(sv, math.pi / 2)
        np.testing.assert_allclose(sv.probabilities(), [0.0, 1.0], atol=1e-12)
        assert sv.amplitudes[1] == pytest.approx(-1j, abs=1e-12)

    def test_equal_superposition_probabilities_are_fixed(self):
        sv = init_uniform(4)
        apply_mixer_layer(sv, 0.813)
        np.testing.assert_allclose(sv.probabilities(), np.full(16, 1 / 16), atol=1e-12)

    def test_single_qubit_rotation_matches_closed_form(self):
        beta = 0.37
        sv = basis_state(1, 0)
        apply_mixer_layer(sv, beta)
        np.testing.assert_allclose(
            sv.amplitudes,
            [math.cos(beta), -1j * math.sin(beta)],
            atol=1e-12,
        )

    @given(random_states(), mixer_angles())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_qubit_reference(self, amps, beta):
        n = amps.size.bit_length() - 1
        sv = StateVector(n_qubits=n, amplitudes=amps.copy())
        buffer = sv.amplitudes
        assert apply_mixer_layer(sv, beta) is sv
        assert sv.amplitudes is buffer
        expected = reference_mixer_layer(amps.copy(), beta)
        np.testing.assert_allclose(sv.amplitudes, expected, rtol=0, atol=1e-12)

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

        def kron_power(m, k):
            out = np.ones((1, 1))
            for _ in range(k):
                out = np.kron(out, m)
            return out

        blocks = simulator._Mixer(n, ()).weigh(beta)
        assert [lo for lo, _ in blocks] == list(range(0, n, 4))
        for lo, block in blocks:
            k = min(4, n - lo)
            if lo == 0:
                expected = kron_power(qubit, k)
            else:
                assert block.dtype == np.float64
                expected = kron_power(r, k)
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 0.37, math.pi / 2, 2.9])
    @pytest.mark.parametrize("n", range(1, 14))
    def test_blocks_match_the_reference_blocks_bit_for_bit(self, n, beta):
        expected = reference_mixer_blocks(beta, n)
        blocks = simulator._Mixer(n, ()).weigh(beta)
        assert [lo for lo, _ in blocks] == [lo for lo, _ in expected]
        for (_, block), (_, want) in zip(blocks, expected):
            assert block.dtype == want.dtype and block.shape == want.shape
            assert block.tobytes() == want.tobytes()

    @pytest.mark.parametrize("forced", [False, True], ids=["rule", "panels everywhere"])
    @pytest.mark.parametrize("n", range(12, 22))
    def test_row_panels_match_the_whole_block_product(self, monkeypatch, n, forced):
        # The rule leaves n <= 16 on whole blocks; forcing panels checks the
        # panel path at those sizes too.
        if forced:
            monkeypatch.setattr(simulator, "_PANEL_MIN_QUBITS", 0)
            monkeypatch.setattr(simulator, "_PANEL_MIN_LO", 8)
        rng = np.random.default_rng(n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        beta = rng.uniform(-3.0, 3.0)
        want = whole_block_mix(amps.copy(), np.empty_like(amps), beta, n)
        scratch = np.empty_like(amps)
        got = simulator._Mixer(n, (amps, scratch))(amps, scratch, beta)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_one_scratch_state(self):
        # n=16: the state is 1 MiB.  The fused layer allocates one
        # state-sized scratch buffer and nothing else of that size; the
        # per-qubit passes peaked at 1.63x.
        sv = init_uniform(16)
        apply_cost_layer(sv, generate_random_graph(16, 30, 0), 0.4)
        tracemalloc.start()
        try:
            apply_mixer_layer(sv, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * sv.amplitudes.nbytes, (
            f"peak {peak / sv.amplitudes.nbytes:.2f}x the state"
        )


def assert_low_table_is_the_half(g):
    table = simulator.FlipSymmetricWorkspace(g).low_table
    assert table.dtype == np.intp
    assert np.array_equal(table, cut_values_by_basis(g)[: 1 << (g.n - 1)])


def explicit_table_graphs(n):
    """Edgeless, complete, a star on each end and the one edge between them."""
    return {
        "empty": Graph(n, ()),
        "complete": Graph(n, tuple((u, v) for v in range(n) for u in range(v))),
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
        # n=18: the full state would be 4 MiB.  The half state, the scratch
        # buffer and the intp table are 1.25x, the two frame vectors
        # 0.0625x, built in place (reads 1.3129x; building them from
        # frame-sized temporaries read 1.375x).  The table's popcounts
        # borrow the state buffer: a separate intp array for them would
        # be 1.5x.
        g = generate_random_graph(18, 34, 0)
        full_state = (1 << g.n) * 16
        tracemalloc.start()
        try:
            simulator.FlipSymmetricWorkspace(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.32 * full_state, f"peak {peak / full_state:.4f}x the state"


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

    def test_cap_applies(self, monkeypatch):
        monkeypatch.setenv("QMAXCUT_QUBIT_CAP", "5")
        with pytest.raises(ResourceLimitError):
            apply_qaoa_circuit(Graph(6, ((0, 1),)), QaoaParams(gammas=(0.1,), betas=(0.1,)))

    def test_cap_is_resolved_once_per_call(self, monkeypatch):
        calls = []
        resolve = graph.resolve_qubit_cap

        def counting():
            calls.append(None)
            return resolve()

        monkeypatch.setattr(graph, "resolve_qubit_cap", counting)
        apply_qaoa_circuit(TRIANGLE, QaoaParams(gammas=(0.4, 0.1), betas=(0.3, 0.2)))
        assert len(calls) == 1

    @given(graph_param_cases())
    @settings(max_examples=60, deadline=None)
    def test_norm_preserved(self, case):
        g, params = case
        sv = apply_qaoa_circuit(g, params)
        assert abs(sv.norm() - 1.0) < 1e-10

    @given(graph_param_cases())
    @settings(max_examples=40, deadline=None)
    def test_complement_symmetry(self, case):
        # Flipping every vertex label preserves all cut sizes, so the state
        # assigns equal probability to each bitstring and its complement.
        g, params = case
        probs = apply_qaoa_circuit(g, params).probabilities()
        mask = (1 << g.n) - 1
        flipped = probs[np.arange(1 << g.n) ^ mask]
        np.testing.assert_allclose(probs, flipped, atol=1e-9)

    def test_gamma_period_two_pi(self):
        params = QaoaParams(gammas=(0.4,), betas=(0.9,))
        shifted = QaoaParams(gammas=(0.4 + 2 * math.pi,), betas=(0.9,))
        a = apply_qaoa_circuit(TRIANGLE, params)
        b = apply_qaoa_circuit(TRIANGLE, shifted)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-9)


class TestExpectation:
    def test_uniform_state_gives_half_the_edges(self):
        for seed in range(5):
            g = generate_random_graph(6, 9, seed)
            sv = init_uniform(6)
            assert expectation_cut(sv, g) == pytest.approx(g.m / 2, abs=1e-9)

    def test_basis_state_gives_exact_cut(self):
        for index in range(8):
            sv = basis_state(3, index)
            expected = cut_value(TRIANGLE, labels_from_index(3, index))
            assert expectation_cut(sv, TRIANGLE) == pytest.approx(expected, abs=1e-12)

    def test_edgeless_graph_gives_zero(self):
        assert expectation_cut(init_uniform(3), Graph(3, ())) == 0.0

    @given(graph_param_cases())
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_edge_count(self, case):
        g, params = case
        value = expectation_cut(apply_qaoa_circuit(g, params), g)
        assert -1e-9 <= value <= g.m + 1e-9

    @given(graph_param_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_probability_weighted_sum(self, case):
        g, params = case
        sv = apply_qaoa_circuit(g, params)
        probs = sv.probabilities()
        oracle = sum(
            p * cut_value(g, labels_from_index(g.n, b)) for b, p in enumerate(probs)
        )
        assert expectation_cut(sv, g) == pytest.approx(oracle, abs=1e-9)


class TestSampling:
    def test_deterministic_for_same_seed(self):
        sv = apply_qaoa_circuit(TRIANGLE, QaoaParams(gammas=(0.5,), betas=(0.2,)))
        np.testing.assert_array_equal(
            sample_bitstrings(sv, 64, seed=9), sample_bitstrings(sv, 64, seed=9)
        )

    def test_accepts_generator(self):
        sv = init_uniform(2)
        rng = np.random.default_rng(5)
        out = sample_bitstrings(sv, 16, seed=rng)
        assert out.shape == (16,)
        assert out.dtype == np.int64

    @pytest.mark.parametrize("shots", [0, -1])
    def test_rejects_non_positive_shots(self, shots):
        with pytest.raises(ValueError, match="shots must be positive"):
            sample_bitstrings(init_uniform(2), shots, seed=0)

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
            want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = want_rng.choice(size, 4096, p=probs / probs.sum())
            left = probs.copy()
            got = simulator._draw(left, 4096, rng)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert rng.random() == want_rng.random()
            # Draws rarely land in a few-ulp gap, so pin the distribution itself.
            assert left.tobytes() == cdf.tobytes()

    def test_workspace_sampling_needs_an_rng(self):
        ws = simulator.FlipSymmetricWorkspace(generate_random_graph(6, 8, 0))
        params = QaoaParams(gammas=(0.5,), betas=(0.2,))
        with pytest.raises(ValueError, match="rng"):
            ws.cut(params, shots=16)
        ws.cut(params)  # exact enumeration draws nothing

    def test_draw_refuses_a_state_of_zeros(self):
        with pytest.raises(ValueError, match="positive finite sum"):
            sample_bitstrings(StateVector(2, np.zeros(4)), 8, seed=0)
