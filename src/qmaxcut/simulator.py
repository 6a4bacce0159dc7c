"""Dense statevector simulation of the Max-Cut phase-separator circuit.

The register holds ``2**n`` complex128 amplitudes; basis index ``b``
encodes vertex ``i`` in bit ``i`` (see :mod:`qmaxcut.graph`).  The cost
operator is diagonal in this basis -- basis state ``b`` has eigenvalue
equal to its cut value -- so a cost layer is a pure phase multiply and
a mixer layer is one 2x2 rotation per qubit, applied four qubits at a
time.  One layer with angles ``(gamma, beta)`` applies
``exp(-i*beta*X_q)`` on every qubit after the phase
``exp(-i*gamma*C(b))`` on every amplitude.

Allocation is gated by a qubit cap (default 24) to keep an accidental
large ``n`` from taking the host down.  A full-state circuit (the
public functions below) holds the state, one state-sized scratch
buffer or temporary at a time (the mixer's second buffer, the cost
layer's phase gather, the expectation's product) and the int32 cut
table, a quarter of the state: about 2.25 times ``2**n * 16`` bytes
(2.25 measured under tracemalloc at n=20), so about 580 MiB at the
default cap; ``run_qaoa``'s final state reaches that peak.  Objective
evaluations at depth 2 or more run on the flip-symmetric half of the
register instead (depth 1 has a closed form in :mod:`qmaxcut.qaoa`):
the half state and two half-size buffers, 1.51 times ``2**n * 16``
bytes at n=20 with the cut table passed in (1.76 with it), and about
half the time of a full-state evaluation (n=16, p=2: 1.9-2.1 ms
against 3.8-4.0 ms; n=20: 42-44 ms against 90-95 ms, on a 2-vCPU Xeon
with one BLAS thread).  The ``QMAXCUT_QUBIT_CAP`` environment variable
overrides the default; an explicit ``cap=`` argument beats both.
Brute force's ``2**n`` cut table follows the same cap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .graph import Graph, cut_values_by_basis

DEFAULT_QUBIT_CAP = 24
MIXER_BLOCK_QUBITS = 4
_BLOCK_BIT_DIFFERENCES = np.array(
    [
        [bin(i ^ j).count("1") for j in range(1 << MIXER_BLOCK_QUBITS)]
        for i in range(1 << MIXER_BLOCK_QUBITS)
    ]
)


def resolve_qubit_cap(cap: int | None = None) -> int:
    """Effective qubit cap: explicit arg, else env override, else default."""
    if cap is not None:
        return int(cap)
    env = os.environ.get("QMAXCUT_QUBIT_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"QMAXCUT_QUBIT_CAP must be an integer, got {env!r}"
            ) from None
    return DEFAULT_QUBIT_CAP


def _check_cap(n: int, cap: int | None):
    limit = resolve_qubit_cap(cap)
    if n > limit:
        raise ResourceLimitError(
            f"state and cut table for n={n} exceed qubit cap {limit} "
            f"(would allocate 2**{n} amplitudes or cut values)"
        )


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles: ``gammas[l]`` drives cost layer ``l``, ``betas[l]`` the mixer."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        gammas = tuple(float(x) for x in self.gammas)
        betas = tuple(float(x) for x in self.betas)
        if len(gammas) != len(betas):
            raise ValueError(
                f"need one beta per gamma, got {len(gammas)} gammas / {len(betas)} betas"
            )
        if not gammas:
            raise ValueError("at least one layer required")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)

    @property
    def p(self) -> int:
        return len(self.gammas)

    def to_flat(self) -> np.ndarray:
        """Flat vector ``[g1..gp, b1..bp]`` for the classical optimizer."""
        return np.array(self.gammas + self.betas, dtype=float)

    @classmethod
    def from_flat(cls, x) -> "QaoaParams":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size == 0 or x.size % 2:
            raise ValueError(f"flat parameter vector must have even length, got shape {x.shape}")
        p = x.size // 2
        return cls(gammas=tuple(x[:p]), betas=tuple(x[p:]))


@dataclass
class StateVector:
    """Mutable register of ``2**n_qubits`` complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got n={self.n_qubits}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes for n={self.n_qubits}, "
                f"got shape {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def init_uniform(n: int, *, cap: int | None = None) -> StateVector:
    """Uniform superposition over all ``2**n`` basis states."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    _check_cap(n, cap)
    size = 1 << n
    amps = np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128)
    return StateVector(n_qubits=n, amplitudes=amps)


def apply_cost_layer(
    sv: StateVector,
    g: Graph,
    gamma: float,
    *,
    cut_table: np.ndarray | None = None,
) -> StateVector:
    """Phase ``exp(-i*gamma*C(b))`` on every amplitude, in place.

    Cut values are integers in ``[0, m]``, so the distinct phases are
    precomputed once and gathered through the cut-value table.  Pass
    ``cut_table`` (from :func:`qmaxcut.graph.cut_values_by_basis`) to
    amortize the table across layers and evaluations.  Returns the
    mutated state for chaining.
    """
    if g.n != sv.n_qubits:
        raise ValueError(
            f"graph has {g.n} vertices but state has {sv.n_qubits} qubits"
        )
    if cut_table is None:
        cut_table = cut_values_by_basis(g)
    phases = np.exp(-1j * float(gamma) * np.arange(g.m + 1))
    sv.amplitudes *= phases[cut_table]
    return sv


def _rotation_power(c: float, s: complex, k: int) -> np.ndarray:
    """``R = [[c, s], [s, c]]`` Kronecker-multiplied with itself ``k`` times.

    Entry ``(i, j)`` of the power is ``c**(k-d) * s**d``, where ``d`` is
    the number of bits in which ``i`` and ``j`` differ.
    """
    size = 1 << k
    weights = np.array([c ** (k - d) * s**d for d in range(k + 1)])
    return weights[_BLOCK_BIT_DIFFERENCES[:size, :size]]


def apply_mixer_layer(sv: StateVector, beta: float) -> StateVector:
    """``exp(-i*beta*X_q)`` on every qubit ``q``, in place.

    Per qubit this is the 2x2 rotation ``R = [[cos b, -i sin b], [-i sin
    b, cos b]]``.  All rotations commute, so the qubits are taken in
    blocks of ``MIXER_BLOCK_QUBITS`` from bit 0 upward and each block
    applies ``R`` Kronecker-multiplied with itself (a symmetric 16x16
    matrix) as one matrix product over the whole state; a last block of
    ``n mod MIXER_BLOCK_QUBITS`` qubits gets its own smaller power.  The
    blocks alternate between the state and one state-sized scratch
    buffer, so the layer reads and writes the state ``ceil(n / 4)`` times
    instead of ``n`` times.  ``sv.amplitudes`` keeps its array object.
    Returns the mutated state for chaining.
    """
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    full = _rotation_power(c, s, MIXER_BLOCK_QUBITS)
    n = sv.n_qubits
    src, dst = sv.amplitudes, np.empty_like(sv.amplitudes)
    for lo in range(0, n, MIXER_BLOCK_QUBITS):
        k = min(MIXER_BLOCK_QUBITS, n - lo)
        block = full if k == MIXER_BLOCK_QUBITS else _rotation_power(c, s, k)
        if lo == 0:
            # Stride 1: rows of 2**k amplitudes times the symmetric block.
            shape = (-1, 1 << k)
            np.matmul(src.reshape(shape), block, out=dst.reshape(shape))
        else:
            shape = (-1, 1 << k, 1 << lo)
            np.matmul(block, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    if src is not sv.amplitudes:
        sv.amplitudes[...] = src
    return sv


def apply_qaoa_circuit(
    g: Graph,
    params: QaoaParams,
    *,
    cap: int | None = None,
    cut_table: np.ndarray | None = None,
) -> StateVector:
    """Prepare the layered ansatz state for ``g`` at the given angles.

    Starts from the uniform superposition and applies ``p`` layers,
    cost phase first and mixer second within each layer.
    """
    sv = init_uniform(g.n, cap=cap)
    if cut_table is None:
        cut_table = cut_values_by_basis(g)
    for gamma, beta in zip(params.gammas, params.betas):
        apply_cost_layer(sv, g, gamma, cut_table=cut_table)
        apply_mixer_layer(sv, beta)
    return sv


def _flip_symmetric_expectation(
    g: Graph, params: QaoaParams, cut_table: np.ndarray
) -> float:
    """Expected cut of the ansatz state, simulated on half the register.

    The cost operator and every ``X_q`` commute with the global flip
    ``X^{(x)n}``, and the uniform start is flip-invariant, so amplitude
    ``b`` equals amplitude ``~b`` after every layer: with qubit ``n - 1``
    as the pivot the full state is ``concat(a, a[::-1])`` for its low
    half ``a``.  Each layer phases ``a`` through the low half of the cut
    table, runs the fused mixer on qubits ``0..n-2`` over ``a`` in place,
    and rotates qubit ``n - 1`` as ``a <- cos(b) a - i sin(b) a[::-1]``
    through one half-size scratch buffer.  Since ``C(~b) = C(b)``, the
    expectation is ``2 * sum_y |a_y|^2 C(y)``.  The caller checks the
    qubit cap and owns ``cut_table``.
    """
    n = g.n
    low_table = cut_table[: 1 << (n - 1)]
    a = np.full(low_table.size, 1.0 / math.sqrt(1 << n), dtype=np.complex128)
    flipped = np.empty_like(a)
    levels = np.arange(g.m + 1)
    for gamma, beta in zip(params.gammas, params.betas):
        a *= np.exp(-1j * float(gamma) * levels)[low_table]
        if n > 1:
            apply_mixer_layer(StateVector(n - 1, a), beta)
        np.multiply(a[::-1], -1j * math.sin(beta), out=flipped)
        a *= math.cos(beta)
        a += flipped
    return 2.0 * float(np.real(np.vdot(a, low_table * a)))


def expectation_cut(
    sv: StateVector,
    g: Graph,
    *,
    cut_table: np.ndarray | None = None,
) -> float:
    """Expected cut value of the state: ``sum_b |amp_b|^2 * C(b)``."""
    if g.n != sv.n_qubits:
        raise ValueError(
            f"graph has {g.n} vertices but state has {sv.n_qubits} qubits"
        )
    if cut_table is None:
        cut_table = cut_values_by_basis(g)
    return float(np.real(np.vdot(sv.amplitudes, cut_table * sv.amplitudes)))


def sample_bitstrings(
    sv: StateVector,
    shots: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Draw ``shots`` basis indices from the state's probabilities.

    ``seed`` is an integer (or a ready numpy Generator); identical
    ``(state, shots, seed)`` give identical draws.  Returns an int64
    array of length ``shots``.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(int(seed))
    probs = sv.probabilities()
    probs = probs / probs.sum()
    return rng.choice(probs.size, size=shots, p=probs).astype(np.int64)
