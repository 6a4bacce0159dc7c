"""Dense statevector simulation of the Max-Cut phase-separator circuit.

The register holds ``2**n`` complex128 amplitudes; basis index ``b``
encodes vertex ``i`` in bit ``i`` (see :mod:`qmaxcut.graph`).  The cost
operator is diagonal in this basis -- basis state ``b`` has eigenvalue
equal to its cut value -- so a cost layer is a pure phase multiply and
a mixer layer is one 2x2 rotation per qubit, applied four qubits at a
time (above bit 3 as real matrices, see :class:`_Mixer`).  One
layer with angles ``(gamma, beta)`` applies ``exp(-i*beta*X_q)`` on
every qubit after the phase ``exp(-i*gamma*C(b))`` on every amplitude.

The two ``2**n`` allocations here, :func:`init_uniform` and
:class:`FlipSymmetricWorkspace`, check the qubit cap first (see
:mod:`qmaxcut.graph`) to keep an accidental large ``n`` from taking the
host down.  A full-state circuit (the public functions below, which the
tests use as the half register's reference; they run the same mixer
kernel, :class:`_Mixer`) holds the state, one state-sized scratch buffer
or temporary at a time (the mixer's second buffer, the cost layer's
phase gather, the expectation's product) and the int32 cut table, a
quarter of the state: about 2.25 times ``2**n * 16`` bytes (2.26 measured under
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
1.38 times that at n=18.  One on a reused workspace allocates 0.063
times it, the same as before the workspace held its plan: both are the
top qubit's rotation, its ``sin(b) * f`` (one entry per row of 16
amplitudes) and the buffer numpy takes for that broadcast product
(8,192 entries, so the whole half state below n=15).  The
plan (the mixer's blocks and the views of each buffer, the phase
table) is built with the workspace, so an evaluation rebuilds nothing
that does not depend on its angles.  The mixer's blocks above bit 3 run
in real arithmetic, and from ``2**17`` amplitudes the large blocks
multiply row panels that stay in cache (:class:`_Mixer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    CutAssignment,
    Graph,
    _check_cap,
    cut_values_by_basis,
    half_cut_values_by_basis,
    labels_from_index,
)

MIXER_BLOCK_QUBITS = 4
# Per block size k = 0..MIXER_BLOCK_QUBITS, the index of a block's entry
# (i, j) into its weights [w_0..w_k] and their negations [-w_k..-w_0] (see
# _Mixer): for block 0 the bit difference d of i and j; for a real block d,
# or 2k+1-d (reading -w_d) where the entry is negative, which it is when an
# odd number of bits are set in i and clear in j.
_BLOCK_INDEX = tuple(
    np.array([[bin(i ^ j).count("1") for j in range(1 << k)] for i in range(1 << k)])
    for k in range(MIXER_BLOCK_QUBITS + 1)
)
_REAL_BLOCK_INDEX = tuple(
    np.where([[bin(i & ~j).count("1") % 2 for j in range(len(d))] for i in range(len(d))],
             2 * k + 1 - d, d)
    for k, d in enumerate(_BLOCK_INDEX)
)
_I_POWERS = np.array([1, 1j, -1, -1j])
_NIBBLE_FRAME = _I_POWERS[_BLOCK_INDEX[-1][0] % 4]  # i**popcount(j)
# Row panels for the large real mixer blocks (see _Mixer): their width in
# float64 columns, and the smallest register and lowest block bit they
# serve.  Chosen from the per-block timings in _Mixer's docstring.
_PANEL_WIDTH = 256
_PANEL_MIN_QUBITS = 17
_PANEL_MIN_LO = 12


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles: ``gammas[l]`` drives cost layer ``l``, ``betas[l]`` the mixer."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        gammas = tuple(map(float, self.gammas))
        betas = tuple(map(float, self.betas))
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
        """Inverse of :meth:`to_flat`; the layer rules refuse an odd or empty ``x``."""
        flat = np.asarray(x, dtype=float).tolist()
        return cls(gammas=flat[: len(flat) // 2], betas=flat[len(flat) // 2 :])


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
    _check_cap(n)
    return _uniform(n)


def _uniform(n: int) -> StateVector:
    size = 1 << max(n, 0)  # StateVector refuses n < 1
    amps = np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128)
    return StateVector(n_qubits=n, amplitudes=amps)


def _cut_table(sv: StateVector, g: Graph, table: np.ndarray | None = None) -> np.ndarray:
    """``table``, else ``g``'s full cut table, for a state on ``g``'s vertices."""
    if g.n != sv.n_qubits:
        raise ValueError(f"graph has {g.n} vertices but state has {sv.n_qubits} qubits")
    return cut_values_by_basis(g) if table is None else table


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
    cut_table = _cut_table(sv, g, cut_table)
    phases = np.exp(-1j * float(gamma) * np.arange(g.m + 1))
    sv.amplitudes *= phases[cut_table]
    return sv


class _Mixer:
    """The mixer on ``n`` qubits, given in the frame, between any two of
    ``buffers``: everything but the angle is built once, so a call only
    weighs its blocks and multiplies.

    The qubits are taken ``MIXER_BLOCK_QUBITS`` at a time, bit 0 upward,
    and each block is one matrix product over the whole register, from
    one buffer into the other, so a call reads and writes the register
    ``ceil(n / 4)`` times and returns whichever buffer holds the result.
    Block 0 (bits 0-3) is ``R = [[cos b, -i sin b], [-i sin b, cos b]]``
    Kronecker-multiplied with itself ``k`` times, a complex symmetric
    matrix whose entry ``(i, j)`` is ``c**(k-d) * s**d`` for ``c = cos
    b``, ``s = -i sin b`` and ``d`` the number of bits in which ``i`` and
    ``j`` differ; it multiplies rows of 16 amplitudes, stride 1.  The
    blocks above bit 3 act in the frame of :func:`_frame`, where the
    qubit's rotation is the real ``r = [[cos b, sin b], [-sin b, cos
    b]]`` (``R = E r E^-1`` with ``E = diag(1, i)``): entry ``(i, j)`` of
    the power of ``r`` is ``cos**(k-d) * sin**d`` times ``-1`` per bit
    set in ``i`` and clear in ``j``.  A real block acts on the real and
    imaginary parts alike, so it multiplies the float64 view, whose
    innermost axis is twice as long: half the flops of a complex product.
    A last block of ``n mod MIXER_BLOCK_QUBITS`` qubits gets its own
    smaller power; every full real block is the same array.

    A call computes each weight ``w_d`` (and, for a real block, its
    negation) as one Python scalar and gathers each block size from them
    with one ``np.take`` into a preallocated array; each buffer's operand
    view for each block is built here, keyed by buffer, so the call
    allocates nothing but the small weight arrays.

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

    def __init__(self, n: int, buffers) -> None:
        self.qubits = [min(MIXER_BLOCK_QUBITS, n - lo) for lo in range(0, n, MIXER_BLOCK_QUBITS)]
        self.real = {k: np.empty((1 << k, 1 << k)) for k in self.qubits[1:]}
        self.blocks = [
            (lo, self.real[k] if lo else np.empty((1 << k, 1 << k), dtype=np.complex128))
            for lo, k in zip(range(0, n, MIXER_BLOCK_QUBITS), self.qubits)
        ]
        self.views = {id(b): [self._view(n, lo, b) for lo in range(0, n, MIXER_BLOCK_QUBITS)]
                      for b in buffers}

    @staticmethod
    def _view(n: int, lo: int, buffer: np.ndarray) -> np.ndarray:
        """``buffer`` shaped as the operand of the product of the block at bit ``lo``."""
        size = 1 << min(MIXER_BLOCK_QUBITS, n - lo)
        if lo == 0:
            return buffer.reshape(-1, size)
        if n >= _PANEL_MIN_QUBITS and lo >= _PANEL_MIN_LO and size >= 4:
            shape = (-1, size, (2 << lo) // _PANEL_WIDTH, _PANEL_WIDTH)
            return buffer.view(np.float64).reshape(shape).swapaxes(1, 2)
        return buffer.view(np.float64).reshape(-1, size, 2 << lo)

    def weigh(self, beta: float) -> list[tuple[int, np.ndarray]]:
        """Fill the blocks for ``beta``; returns them as ``(lo, block)``."""
        if not self.qubits:
            return self.blocks
        c, s = math.cos(beta), math.sin(beta)
        k = self.qubits[0]
        weights = [c ** (k - d) * (-1j * s) ** d for d in range(k + 1)]
        np.array(weights).take(_BLOCK_INDEX[k], out=self.blocks[0][1], mode="clip")
        for k, block in self.real.items():
            weights = [c ** (k - d) * s**d for d in range(k + 1)]
            np.array(weights + [-w for w in weights[::-1]]).take(
                _REAL_BLOCK_INDEX[k], out=block, mode="clip"
            )
        return self.blocks

    def __call__(self, src: np.ndarray, dst: np.ndarray, beta: float) -> np.ndarray:
        """Mix ``src`` through ``dst``; returns whichever holds the result."""
        self.weigh(beta)
        a, b = self.views[id(src)], self.views[id(dst)]
        for i, (lo, block) in enumerate(self.blocks):
            if lo == 0:
                np.matmul(a[i], block, out=b[i])
            else:
                np.matmul(block, a[i], out=b[i])
            a, b = b, a
        return dst if len(self.blocks) % 2 else src


def _frame(n: int) -> np.ndarray:
    """The mixer's frame ``e[y] = i**popcount(y >> 4)`` on ``n`` qubits.

    An amplitude ``a`` is held as ``conj(e) * a`` while the blocks above
    bit 3 run (see :class:`_Mixer`).  The frame depends only on
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
    :class:`_Mixer`, which the workspace runs too).  The state is moved
    into the frame in place, mixed through one state-sized scratch
    buffer, and moved back; the frame is built again for the way back,
    so that it never coexists with the scratch buffer.
    ``sv.amplitudes`` keeps its array object.  Returns the mutated state
    for chaining.
    """
    n = sv.n_qubits
    rows = sv.amplitudes.reshape(1 << max(0, n - MIXER_BLOCK_QUBITS), -1)
    rows *= _frame(n).conj()[:, None]
    scratch = np.empty_like(sv.amplitudes)
    if _Mixer(n, (sv.amplitudes, scratch))(sv.amplitudes, scratch, beta) is scratch:
        sv.amplitudes[...] = scratch
    del scratch
    rows *= _frame(n)[:, None]
    return sv


def apply_qaoa_circuit(g: Graph, params: QaoaParams) -> StateVector:
    """Prepare the layered ansatz state for ``g`` at the given angles.

    Starts from the uniform superposition and applies ``p`` layers,
    cost phase first and mixer second within each layer; the cut table
    is built once and shared by every cost layer; building it checks
    the qubit cap for the state as well, once per call.
    """
    cut_table = cut_values_by_basis(g)
    sv = _uniform(g.n)
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

    It also builds the plan that every circuit run here shares, since
    none of it depends on the angles: the mixer (:class:`_Mixer`, its
    block arrays and each buffer's operand views), each buffer's rows of
    16 amplitudes and their reverse, both keyed by buffer so they follow
    the swaps below, the ``-i * levels`` vector of the cut values and the
    phase table it fills.

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
        buffers = [b for b in (self.state, self.scratch, self.kept) if b is not None]
        rows = self.start.size
        self.rows = {id(b): (b.reshape(rows, -1), b[::-1].reshape(rows, -1)) for b in buffers}
        self.mixer = _Mixer(g.n - 1, buffers)
        self.levels = -1j * np.arange(g.m + 1)
        self.phases = np.empty_like(self.levels)

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
            value = self.values[circuit] = 2.0 * float(np.vdot(w, scratch).real)
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
        drawn by ``rng``, then required, from all ``2**n`` probabilities.
        Ties resolve to the smallest basis index.  The state's
        probabilities and cut values are both flip-symmetric, so the
        smallest index among tied maxima always lies in the low half: the
        threshold scan reads the low half alone, and a sampled index ``c``
        reads the cut of ``min(c, ~c)``.
        """
        n, last, table = self.graph.n, (1 << self.graph.n) - 1, self.low_table
        probs = self.probabilities(params)
        if shots == 0:
            # -1 is below every cut, so no state under the threshold wins.
            values = np.where(probs[: table.size] >= 1.0 / (1 << (n + 1)), table, -1)
            best = int(np.argmax(values))  # first max = smallest index
        else:
            if rng is None:
                raise ValueError(f"shots={shots} needs an rng to draw them")
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
    return tuple([
        half for gamma, beta in zip(params.gammas, params.betas)
        for half in ((0, gamma), (1, beta)) if half[1]
    ])


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
    (``ws.mixer``) and rotates qubit ``n - 1`` as ``w <- cos(b) w +
    sin(b) f * w[::-1]``, where ``f = -i conj(e) e[::-1]`` (``ws.flip``)
    is ``-i`` seen through the frame, one unit per row of 16 amplitudes.
    Returns ``(w, spare)``: two buffers of ``ws``, whichever holds ``w``
    first.  Its buffers and views come from the workspace's plan: it
    allocates only the top rotation's ``sin(b) * f``, one entry per row
    of 16 amplitudes, beside the buffer numpy takes for that product.
    """
    w, scratch = ws.state, ws.scratch
    np.copyto(ws.rows[id(w)][0], ws.start)
    for kind, angle in circuit:
        if kind == 0:
            np.exp(np.multiply(ws.levels, angle, out=ws.phases), out=ws.phases)
            ws.phases.take(ws.low_table, out=scratch, mode="clip")
            w *= scratch
        else:
            if ws.mixer(w, scratch, angle) is scratch:
                w, scratch = scratch, w
            np.multiply(ws.rows[id(w)][1], math.sin(angle) * ws.flip, out=ws.rows[id(scratch)][0])
            w *= math.cos(angle)
            w += scratch
    return w, scratch


def expectation_cut(sv: StateVector, g: Graph) -> float:
    """Expected cut value of the state: ``sum_b |amp_b|^2 * C(b)``."""
    return float(np.real(np.vdot(sv.amplitudes, _cut_table(sv, g) * sv.amplitudes)))


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
