"""Dense statevector simulation of the Max-Cut phase-separator circuit.

The register holds ``2**n`` complex128 amplitudes; basis index ``b``
encodes vertex ``i`` in bit ``i`` (see :mod:`qmaxcut.graph`).  The cost
operator is diagonal in this basis -- basis state ``b`` has eigenvalue
equal to its cut value -- so a cost layer is a pure phase multiply and
a mixer layer is one 2x2 rotation per qubit, applied four qubits at a
time (above bit 3 as real matrices, see :func:`_mixer_blocks`).  One
layer with angles ``(gamma, beta)`` applies ``exp(-i*beta*X_q)`` on
every qubit after the phase ``exp(-i*gamma*C(b))`` on every amplitude.

Allocation is gated by a qubit cap (default 24) to keep an accidental
large ``n`` from taking the host down.  A full-state circuit (the
public functions below, which the tests use as the half register's
reference; they run the same mixer kernel, :func:`_mix`) holds
the state, one state-sized scratch buffer or temporary at a time (the
mixer's second buffer, the cost layer's phase gather, the
expectation's product) and the int32 cut table, a quarter of the
state: about 2.25 times ``2**n * 16`` bytes (2.26 measured under
tracemalloc at n=20), so about 580 MiB at the default cap.
``run_qaoa`` uses none of them: its evaluations at depth 2 or more
(depth 1 has a closed form in :mod:`qmaxcut.qaoa`), its final state,
the probabilities and the cut it picks from them are all prepared on
the flip-symmetric half of the register, by one
:class:`FlipSymmetricWorkspace`: the half state, one half-size scratch
buffer and the low half of the cut table as ``intp``, 1.25 times
``2**n * 16`` bytes.  That table is built vertex by vertex in
``O(2**n)`` (:func:`qmaxcut.graph.half_cut_values_by_basis`), not by
one add per edge.  An evaluation that builds its own workspace peaks at
1.38 times that at n=18; one on a reused workspace allocates 0.06 times
it.  The mixer's blocks above bit 3 run in real arithmetic, and from
``2**17`` amplitudes the large blocks multiply row panels that stay in
cache (:func:`_mix`).  The cap has one setting, read only by
:func:`resolve_qubit_cap`: the ``QMAXCUT_QUBIT_CAP`` environment
variable, else the default; no function takes a cap argument.  Brute
force's ``2**n`` cut table follows the same cap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .graph import (
    CutAssignment,
    Graph,
    cut_values_by_basis,
    half_cut_values_by_basis,
    labels_from_index,
)

DEFAULT_QUBIT_CAP = 24
MIXER_BLOCK_QUBITS = 4
# Per block size k = 0..MIXER_BLOCK_QUBITS, the index of a block's entry
# (i, j) into its weights [w_0..w_k] and their negations [-w_k..-w_0] (see
# _mixer_blocks): for block 0 the bit difference d of i and j; for a real
# block d, or ~d (that is -(d+1), reading -w_d) where the entry is negative,
# which it is when an odd number of bits are set in i and clear in j.
_BLOCK_INDEX = tuple(
    np.array([[bin(i ^ j).count("1") for j in range(1 << k)] for i in range(1 << k)])
    for k in range(MIXER_BLOCK_QUBITS + 1)
)
_REAL_BLOCK_INDEX = tuple(
    np.where([[bin(i & ~j).count("1") % 2 for j in range(len(d))] for i in range(len(d))], ~d, d)
    for d in _BLOCK_INDEX
)
_I_POWERS = np.array([1, 1j, -1, -1j])
_NIBBLE_FRAME = _I_POWERS[_BLOCK_INDEX[-1][0] % 4]  # i**popcount(j)
# Row panels for the large real mixer blocks (see _mix): their width in
# float64 columns, and the smallest register and lowest block bit they
# serve.  Chosen from the per-block timings in _mix's docstring.
_PANEL_WIDTH = 256
_PANEL_MIN_QUBITS = 17
_PANEL_MIN_LO = 12


def resolve_qubit_cap() -> int:
    """The qubit cap: ``QMAXCUT_QUBIT_CAP`` if set, else :data:`DEFAULT_QUBIT_CAP`.

    This is the only place the cap is read; every check in the package
    resolves it here, at the time of the check.
    """
    env = os.environ.get("QMAXCUT_QUBIT_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"QMAXCUT_QUBIT_CAP must be an integer, got {env!r}"
            ) from None
    return DEFAULT_QUBIT_CAP


def _check_cap(n: int):
    limit = resolve_qubit_cap()
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


def init_uniform(n: int) -> StateVector:
    """Uniform superposition over all ``2**n`` basis states."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    _check_cap(n)
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


def _mixer_blocks(beta: float, n: int) -> list[tuple[int, np.ndarray]]:
    """``(lo, block)`` for each block of the ``n``-qubit mixer, bit 0 upward.

    Block 0 (bits 0-3) is ``R = [[cos b, -i sin b], [-i sin b, cos b]]``
    Kronecker-multiplied with itself ``k`` times, a complex symmetric
    matrix whose entry ``(i, j)`` is ``c**(k-d) * s**d`` for ``c = cos
    b``, ``s = -i sin b`` and ``d`` the number of bits in which ``i`` and
    ``j`` differ.  The blocks above bit 3 act in the frame of
    :func:`_frame`, where the qubit's rotation is the real ``r = [[cos b,
    sin b], [-sin b, cos b]]`` (``R = E r E^-1`` with ``E = diag(1,
    i)``): entry ``(i, j)`` of the power of ``r`` is ``cos**(k-d) *
    sin**d`` times ``-1`` per bit set in ``i`` and clear in ``j``.  Each
    block is one gather from its weights ``w_d`` (and, for a real block,
    their negations) through a module-level index table.  A last block
    of ``n mod MIXER_BLOCK_QUBITS`` qubits gets its own smaller power.
    """
    c, s = math.cos(beta), math.sin(beta)
    blocks = []
    for lo in range(0, n, MIXER_BLOCK_QUBITS):
        k = min(MIXER_BLOCK_QUBITS, n - lo)
        if lo == 0:
            weights = [c ** (k - d) * (-1j * s) ** d for d in range(k + 1)]
            block = np.array(weights)[_BLOCK_INDEX[k]]
        elif lo > MIXER_BLOCK_QUBITS and k == MIXER_BLOCK_QUBITS:
            block = blocks[-1][1]  # the full real block again
        else:
            weights = [c ** (k - d) * s**d for d in range(k + 1)]
            block = np.array(weights + [-w for w in weights[::-1]])[_REAL_BLOCK_INDEX[k]]
        blocks.append((lo, block))
    return blocks


def _mix(amps: np.ndarray, scratch: np.ndarray, beta: float, n: int) -> np.ndarray:
    """The mixer on ``n`` qubits of ``amps``, given in the frame; returns
    whichever of ``amps`` and ``scratch`` holds the result.

    Each block is one matrix product over the whole register, from one
    buffer into the other, so a layer reads and writes the register
    ``ceil(n / 4)`` times.  Block 0 has stride 1: rows of 16 amplitudes
    times the symmetric complex block.  A real block acts on the real
    and imaginary parts alike, so it multiplies the float64 view, whose
    innermost axis is twice as long: half the flops of a complex product.

    A real block of at least 4 rows at bit ``_PANEL_MIN_LO`` or above, on
    a register of at least ``_PANEL_MIN_QUBITS`` qubits, multiplies row
    panels instead: the view ``(..., size, 2**(lo+1) / P, P)`` with its
    two inner axes swapped, ``P = _PANEL_WIDTH`` columns per product, so
    one product's operand stays in cache.  Every output entry is the same
    sum over the same ``size`` products, so the bits do not change.  Per
    block, median of interleaved runs, one BLAS thread, 2-vCPU Xeon with
    4 MiB L2, whole block against panels of 256 (``n`` is the register's
    qubits, the run's minus one):

    =====  ==========  =========  ========  ======
    ``n``  lo/qubits   whole, us  panels    rule
    =====  ==========  =========  ========  ======
    14     12/2        20         1.16x     whole
    15     12/3        45         1.07x     whole
    16     12/4        219        0.99x     whole
    17     12/4        492        0.87x     panels
    17     16/1        212        1.11x     whole
    18     12/4        827        0.82x     panels
    18     16/2        602        0.69x     panels
    19     12/4        1840       0.88x     panels
    19     16/3        1717       0.70x     panels
    20     12/4        3589       0.90x     panels
    20     16/4        4829       0.71x     panels
    =====  ==========  =========  ========  ======

    Blocks at bit 8 read 1.01-1.04x at every ``n`` from 14 to 21.  The
    one-row-pair block at bit 20 (``n = 21``) read 0.83x in one series
    and 1.30x in another, so it stays whole.
    """
    src, dst = amps, scratch
    for lo, block in _mixer_blocks(beta, n):
        size = block.shape[0]
        if lo == 0:
            np.matmul(src.reshape(-1, size), block, out=dst.reshape(-1, size))
        elif n >= _PANEL_MIN_QUBITS and lo >= _PANEL_MIN_LO and size >= 4:
            shape = (-1, size, (2 << lo) // _PANEL_WIDTH, _PANEL_WIDTH)
            np.matmul(
                block,
                src.view(np.float64).reshape(shape).swapaxes(1, 2),
                out=dst.view(np.float64).reshape(shape).swapaxes(1, 2),
            )
        else:
            shape = (-1, size, 2 << lo)
            np.matmul(
                block,
                src.view(np.float64).reshape(shape),
                out=dst.view(np.float64).reshape(shape),
            )
        src, dst = dst, src
    return src


def _frame(n: int) -> np.ndarray:
    """The mixer's frame ``e[y] = i**popcount(y >> 4)`` on ``n`` qubits.

    An amplitude ``a`` is held as ``conj(e) * a`` while the blocks above
    bit 3 run (see :func:`_mixer_blocks`).  The frame depends only on
    those bits, so it has one entry per row of 16 amplitudes,
    ``2**max(0, n - 4)`` entries, built four bits at a time; its entries
    are exact units.  The array is new, so the caller may write to it.
    """
    bits = max(0, n - MIXER_BLOCK_QUBITS)
    frame = _NIBBLE_FRAME[: 1 << min(bits, MIXER_BLOCK_QUBITS)].copy()
    for lo in range(MIXER_BLOCK_QUBITS, bits, MIXER_BLOCK_QUBITS):
        high = _NIBBLE_FRAME[: 1 << min(MIXER_BLOCK_QUBITS, bits - lo)]
        frame = np.multiply.outer(high, frame).ravel()
    return frame


def apply_mixer_layer(sv: StateVector, beta: float) -> StateVector:
    """``exp(-i*beta*X_q)`` on every qubit ``q``, in place.

    All rotations commute, so the qubits are taken in blocks of
    ``MIXER_BLOCK_QUBITS``, each applied as one matrix product (see
    :func:`_mixer_blocks`).  The state is moved into the frame in place,
    mixed through one state-sized scratch buffer, and moved back; the
    frame is built again for the way back, so that it never coexists
    with the scratch buffer.  ``sv.amplitudes`` keeps its array object.
    Returns the mutated state for chaining.
    """
    n = sv.n_qubits
    rows = sv.amplitudes.reshape(1 << max(0, n - MIXER_BLOCK_QUBITS), -1)
    rows *= _frame(n).conj()[:, None]
    scratch = np.empty_like(sv.amplitudes)
    if _mix(sv.amplitudes, scratch, beta, n) is scratch:
        sv.amplitudes[...] = scratch
    del scratch
    rows *= _frame(n)[:, None]
    return sv


def apply_qaoa_circuit(g: Graph, params: QaoaParams) -> StateVector:
    """Prepare the layered ansatz state for ``g`` at the given angles.

    Starts from the uniform superposition and applies ``p`` layers,
    cost phase first and mixer second within each layer; the cut table
    is built once and shared by every cost layer.
    """
    sv = init_uniform(g.n)
    cut_table = cut_values_by_basis(g)
    for gamma, beta in zip(params.gammas, params.betas):
        apply_cost_layer(sv, g, gamma, cut_table=cut_table)
        apply_mixer_layer(sv, beta)
    return sv


class FlipSymmetricWorkspace:
    """One graph's circuits simulated on the flip-symmetric half of the
    register: their expectations, final probabilities and picked cut.

    Holds the half state and one half-size scratch buffer, the low half
    of the cut table as ``intp`` (``np.take`` would copy an int32 index
    array into a fresh ``intp`` one on every call), and two frame
    vectors of ``2**max(0, n - 5)`` entries: the start state in the
    frame, and the top qubit's flip term.  The table is built here by
    :func:`~qmaxcut.graph.half_cut_values_by_basis`, vertex by vertex in
    ``O(2**n)``, with the state buffer as its scratch (every state
    prepared here overwrites it first); no full table is built.  About
    1.25 times the full state's ``2**n * 16`` bytes.  The constructor
    checks the qubit cap before it allocates any of them.

    Skipping exact zero angles makes distinct angle vectors the same
    circuit (:func:`_circuit`): the optimizer's zero start evaluated
    again as Nelder-Mead's ``x0``, and the simplex points that move
    ``gamma_1`` or ``gamma_2`` (``beta_1`` or ``beta_2``) alone.
    ``values`` maps each circuit simulated here to its expectation, so a
    repeat returns the same float without running a kernel; it grows by
    one entry per distinct circuit.  ``held`` names the circuit whose
    state ``state`` holds, ``None`` while it holds no known state.

    With ``keep_best`` a third half-size buffer, ``kept``, holds the
    state of the best circuit simulated so far (``kept_circuit``, with
    value ``best``): each simulation that beats it swaps the two state
    buffers, so nothing is copied.  The final state is then prepared
    again only when the best value came from a repeat, and
    :meth:`probabilities` reads it from either buffer that holds it.
    """

    def __init__(self, g: Graph, keep_best: bool = False):
        _check_cap(g.n)
        half = 1 << (g.n - 1)
        self.graph = g
        self.state = np.empty(half, dtype=np.complex128)
        self.scratch = np.empty_like(self.state)
        self.low_table = half_cut_values_by_basis(g, self.state.view(np.intp))
        # Built in place: no frame-sized temporary beside the two vectors.
        # conj(e[y]) * e[~y] = i**bits * e[y]**2 over the frame's bits above bit 3.
        self.start = _frame(g.n - 1)[:, None]
        self.flip = np.square(self.start)
        self.flip *= -1j * _I_POWERS[max(0, g.n - 1 - MIXER_BLOCK_QUBITS) % 4]
        np.conjugate(self.start, out=self.start)
        self.start /= math.sqrt(1 << g.n)
        self.values: dict[tuple, float] = {}
        self.held = self.kept_circuit = None
        self.kept = np.empty_like(self.state) if keep_best else None
        self.best = -math.inf

    def _prepare(self, circuit: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Prepare ``circuit``'s state in ``state``, tagged with ``circuit``."""
        self.held = None
        self.state, self.scratch = _flip_symmetric_state(circuit, self)
        self.held = circuit
        return self.state, self.scratch

    def expectation(self, params: QaoaParams) -> float:
        """Expected cut of the ansatz state, simulated on half the register.

        Since ``|w| = |a|`` and ``C(~b) = C(b)``, the expectation is ``2 *
        sum_y |w_y|^2 C(y)`` over the low half (see
        :func:`_flip_symmetric_state`).  A circuit already simulated here
        returns its stored value and runs no kernel.
        """
        circuit = _circuit(params)
        value = self.values.get(circuit)
        if value is None:
            w, scratch = self._prepare(circuit)
            np.multiply(self.low_table, w, out=scratch)
            value = self.values[circuit] = 2.0 * float(np.real(np.vdot(w, scratch)))
            if self.kept is not None and value > self.best:
                self.best = value
                self.state, self.kept = self.kept, self.state
                self.held, self.kept_circuit = self.kept_circuit, circuit
        return value

    def probabilities(self, params: QaoaParams) -> np.ndarray:
        """Probabilities of all ``2**n`` basis states, ``concat(p, p[::-1])``.

        ``p = |w|**2`` is the low half's (the frame's entries are exact
        units, so ``|w| = |a|``); the full vector, ``2**n`` float64, fills a
        spare half-state buffer exactly, so nothing state-sized is
        allocated.  It is valid until another state is prepared here.  The
        state is read from ``kept`` or ``state`` when either holds the same
        circuit, and prepared otherwise.
        """
        circuit = _circuit(params)
        if circuit == self.kept_circuit:
            w, spare = self.kept, self.state
            self.held = None
        elif circuit == self.held:
            w, spare = self.state, self.scratch
        else:
            w, spare = self._prepare(circuit)
        probs = spare.view(np.float64)
        low = probs[: w.size]
        np.abs(w, out=low)
        np.square(low, out=low)
        probs[w.size :] = low[::-1]
        return probs

    def cut(
        self, params: QaoaParams, shots: int = 0, rng: np.random.Generator | None = None
    ) -> CutAssignment:
        """The cut picked from ``params``' final state (see :meth:`probabilities`).

        ``shots == 0``: best cut among basis states whose exact probability
        is at least ``1 / 2**(n+1)`` (half the uniform weight; the set is
        never empty).  ``shots > 0``: best cut among ``shots`` bitstrings
        drawn by ``rng`` from all ``2**n`` probabilities.  Ties resolve to
        the smallest basis index.  The state's probabilities and cut values
        are both flip-symmetric, so the smallest index among tied maxima
        always lies in the low half: the threshold scan reads the low half
        alone, and a sampled index ``c`` reads the cut of ``min(c, ~c)``.
        """
        n, last, table = self.graph.n, (1 << self.graph.n) - 1, self.low_table
        probs = self.probabilities(params)
        if shots == 0:
            # -1 is below every cut, so no state under the threshold wins.
            values = np.where(probs[: table.size] >= 1.0 / (1 << (n + 1)), table, -1)
            best = int(np.argmax(values))  # first max = smallest index
        else:
            # Sorted, so the first max is the smallest index (np.unique would
            # also import numpy.ma, 23 ms, on its first call).
            candidates = np.sort(_draw(probs, shots, rng))
            values = table[np.minimum(candidates, last - candidates)]
            best = int(candidates[int(np.argmax(values))])
        return CutAssignment(
            labels=labels_from_index(n, best), cut_value=int(table[min(best, last - best)])
        )


def _circuit(params: QaoaParams) -> tuple[tuple[int, float], ...]:
    """The half-layers that :func:`_flip_symmetric_state` runs for
    ``params``, in order: ``(0, gamma)`` for a cost layer and ``(1,
    beta)`` for a mixer layer.  This is the one place that decides which
    half-layers run, so equal circuits run the same kernels on the same
    floats and prepare the same bits.

    A half-layer whose angle is exactly 0 (either sign) is left out.  That
    is exact: at ``gamma = 0`` every phase is ``1 +- 0j``, and at ``beta
    = 0`` every mixer block is an identity of 1s and signed 0s and the
    top-qubit step is ``w * 1 + (+-0)``, so running them changes no
    nonzero bit of the state; only the sign of a zero component may
    differ, and nothing reads it.  Only exact zeros are left out, and
    adjacent layers are never merged, which would change the rounding.
    """
    return tuple(
        (kind, angle)
        for layer in zip(params.gammas, params.betas)
        for kind, angle in enumerate(layer)
        if angle
    )


def _flip_symmetric_state(
    circuit: tuple[tuple[int, float], ...], ws: FlipSymmetricWorkspace
) -> tuple[np.ndarray, np.ndarray]:
    """The state of ``circuit`` (see :func:`_circuit`), its low half in the
    mixer's frame, prepared in ``ws``.

    The cost operator and every ``X_q`` commute with the global flip
    ``X^{(x)n}``, and the uniform start is flip-invariant, so amplitude
    ``b`` equals amplitude ``~b`` after every layer: with qubit ``n - 1``
    as the pivot the full state is ``concat(a, a[::-1])`` for its low
    half ``a``.  The half is held in the mixer's frame, ``w = conj(e) *
    a`` (see :func:`_frame`); the cost layer is diagonal, so it commutes
    with the frame.  A cost half-layer phases ``w`` through the low half
    of the cut table; a mixer half-layer mixes qubits ``0..n-2``
    (:func:`_mix`) and rotates qubit ``n - 1`` as ``w <- cos(b) w +
    sin(b) f * w[::-1]``, where ``f = -i conj(e) e[::-1]`` (``ws.flip``)
    is ``-i`` seen through the frame, one unit per row of 16 amplitudes.
    Returns ``(w, spare)``: the two buffers of ``ws``, whichever holds
    ``w`` first.  Nothing state-sized is allocated.
    """
    g = ws.graph
    w, scratch = ws.state, ws.scratch
    rows = ws.start.size
    w.reshape(rows, -1)[...] = ws.start
    levels = np.arange(g.m + 1)
    for kind, angle in circuit:
        if kind == 0:
            np.take(np.exp(-1j * angle * levels), ws.low_table, out=scratch, mode="clip")
            w *= scratch
        else:
            mixed = _mix(w, scratch, angle, g.n - 1)
            if mixed is not w:
                w, scratch = mixed, w
            np.multiply(
                w[::-1].reshape(rows, -1), math.sin(angle) * ws.flip, out=scratch.reshape(rows, -1)
            )
            w *= math.cos(angle)
            w += scratch
    return w, scratch


def expectation_cut(sv: StateVector, g: Graph) -> float:
    """Expected cut value of the state: ``sum_b |amp_b|^2 * C(b)``."""
    if g.n != sv.n_qubits:
        raise ValueError(
            f"graph has {g.n} vertices but state has {sv.n_qubits} qubits"
        )
    return float(np.real(np.vdot(sv.amplitudes, cut_values_by_basis(g) * sv.amplitudes)))


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
    return _draw(sv.probabilities(), shots, rng)


def _draw(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``shots`` indices drawn from ``probs``, which is overwritten.

    The same draws as ``rng.choice(probs.size, shots, p=probs / sum)``,
    whose steps these are (numpy 2.x), without its copies: the
    normalized ``probs`` becomes its own cumulative distribution.
    """
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"probabilities must have a positive finite sum, got {total}")
    probs /= total
    np.cumsum(probs, out=probs)
    probs /= probs[-1]
    return probs.searchsorted(rng.random(shots), side="right").astype(np.int64, copy=False)
