"""Dense statevector simulation of the Max-Cut phase-separator circuit.

The register holds ``2**n`` complex128 amplitudes; basis index ``b``
encodes vertex ``i`` in bit ``i`` (see :mod:`qmaxcut.graph`).  The cost
operator is diagonal in this basis -- basis state ``b`` has eigenvalue
equal to its cut value -- so a cost layer is a pure phase multiply and
a mixer layer is one 2x2 rotation per qubit.  One layer with angles
``(gamma, beta)`` applies ``exp(-i*beta*X_q)`` on every qubit after the
phase ``exp(-i*gamma*C(b))`` on every amplitude.

The two ``2**n`` allocations here, :func:`init_uniform` and
:class:`FlipSymmetricWorkspace`, check the qubit cap first (see
:mod:`qmaxcut.graph`) to keep an accidental large ``n`` from taking the
host down; :func:`~qmaxcut.graph.peak_bytes` gives the bytes of each.

The full-register functions (:class:`StateVector`, :func:`init_uniform`,
:func:`apply_cost_layer`, :func:`apply_mixer_layer`,
:func:`apply_qaoa_circuit`, :func:`expectation_cut`,
:func:`sample_bitstrings`) are not API: the package does not export
them.  They are the tests' first-principles oracle for the workspace,
kept here because the benchmark's tracer resolves them in this module:
one 2x2 product per qubit and the full cut table, built on each call,
with no kernel, frame or plan shared with the workspace.

``run_qaoa`` uses none of them: its evaluations at depth 2 or more,
its final state, the probabilities and the cut it picks from them are
all computed for each circuit's canonical form (:func:`_circuit`) on
the flip-symmetric half of the register, by one
:class:`FlipSymmetricWorkspace` (its docstring says which buffer holds
which state, and which plan it builds once).  Nothing state-sized is
kept or allocated beyond its half state: its scratch buffer is as large
only up to ``n = 16`` and 512 KiB above, where every kernel runs chunk
by chunk through it; a cost half-layer gathers its phases
``_GATHER_CHUNK`` table entries at a time, since ``np.take`` copies
each chunk's indices into ``intp``; a sampled run keeps the cut it drew
from its best state, not the state; and the cut is picked inside the
state buffer, which the probabilities overwrite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    _GATHER_CHUNK,
    _PCG64,
    _SCRATCH_ENTRIES,
    CutAssignment,
    Graph,
    _check_cap,
    _cut_values,
    _index,
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
# The shots stream's tag (see _uniforms); the optimizer's starts use tag 1.
_STREAM_SHOTS = 2


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles: ``gammas[l]`` drives cost layer ``l``, ``betas[l]`` the
    mixer.  Every angle must be finite: NaN or inf would yield a NaN state."""

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
        if not all(map(math.isfinite, gammas + betas)):
            raise ValueError(f"angles must be finite, got gammas {gammas}, betas {betas}")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)

    @property
    def p(self) -> int:
        return len(self.gammas)


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
    _check_cap(n, "full state")
    size = 1 << max(n, 0)  # StateVector refuses n < 1
    amps = np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128)
    return StateVector(n_qubits=n, amplitudes=amps)


def _cut_table(sv: StateVector, g: Graph) -> np.ndarray:
    """``g``'s full cut table, for a state on ``g``'s vertices; a graph
    above the qubit cap is refused with the full state's bytes."""
    if g.n != sv.n_qubits:
        raise ValueError(f"graph has {g.n} vertices but state has {sv.n_qubits} qubits")
    _check_cap(g.n, "full state")
    return _cut_values(g)


def apply_cost_layer(sv: StateVector, g: Graph, gamma: float) -> StateVector:
    """Phase ``exp(-i*gamma*C(b))`` on every amplitude, in place.

    Cut values are integers in ``[0, m]``, so the ``m + 1`` distinct
    phases are computed once and gathered through ``g``'s full cut table
    (that of :func:`qmaxcut.graph.cut_values_by_basis`), built afresh on
    each call.  Returns the mutated state for chaining.
    """
    return _phase(sv, g, _cut_table(sv, g), gamma)


def _phase(sv: StateVector, g: Graph, table: np.ndarray, gamma: float) -> StateVector:
    """:func:`apply_cost_layer` through ``g``'s full cut table ``table``."""
    sv.amplitudes *= np.exp(-1j * float(gamma) * np.arange(g.m + 1))[table]
    return sv


class _Mixer:
    """The mixer on ``n`` qubits, given in the frame, on ``state`` through
    ``scratch``: everything but the angle is built once, so a call only
    weighs its blocks and multiplies.

    The qubits are taken ``MIXER_BLOCK_QUBITS`` at a time, bit 0 upward,
    and each block is one matrix product over the whole register, from
    one buffer into the other, ``state`` first: a call reads and writes
    the register ``ceil(n / 4)`` times and always ends in ``out``.  A
    ``scratch`` smaller than ``state`` makes each block a run of products
    of slices of its operand (:func:`_pieces`) into ``scratch``, each
    copied back, so ``out`` is ``state``; every output entry is the same
    sum over the same products, so the bits do not change.
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
    with one ``np.take`` into a preallocated array; each block's operand
    and output views are built here, so the call allocates nothing but
    the small weight arrays.

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

    def __init__(self, n: int, state: np.ndarray, scratch: np.ndarray) -> None:
        self.qubits = [min(MIXER_BLOCK_QUBITS, n - lo) for lo in range(0, n, MIXER_BLOCK_QUBITS)]
        self.real = {k: np.empty((1 << k, 1 << k)) for k in self.qubits[1:]}
        self.blocks = [
            (lo, self.real[k] if lo else np.empty((1 << k, 1 << k), dtype=np.complex128))
            for lo, k in zip(range(0, n, MIXER_BLOCK_QUBITS), self.qubits)
        ]
        self.in_place = scratch.size < state.size
        if self.in_place:
            self.views = [_pieces(self._view(n, lo, state), scratch) for lo, _ in self.blocks]
            self.out = state
        else:
            buffers = (state, scratch)
            self.views = [[(self._view(n, lo, buffers[i % 2]),
                            self._view(n, lo, buffers[1 - i % 2]))]
                          for i, (lo, _) in enumerate(self.blocks)]
            self.out = buffers[len(self.blocks) % 2]

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

    def __call__(self, beta: float) -> np.ndarray:
        """Mix ``state`` by ``beta``; returns ``out``, which holds the result."""
        for (lo, block), pieces in zip(self.weigh(beta), self.views):
            for a, b in pieces:
                if lo == 0:
                    np.matmul(a, block, out=b)
                else:
                    np.matmul(block, a, out=b)
                if self.in_place:
                    a[...] = b
        return self.out


def _pieces(view: np.ndarray, scratch: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """A mixer block's operand ``view`` on the state, cut into the slices
    whose products fit in ``scratch``, each beside an array of its shape
    there: runs of rows for block 0 (``(rows, 16)``, whose product mixes
    each row), else runs of the matrices along the last batch axis of
    ``(..., matrices, size, columns)``, or runs of columns of each matrix
    when one matrix alone does not fit."""
    room = scratch.view(view.dtype)
    if view.ndim == 2:
        step = room.size // view.shape[1]
        slices = [view[i : i + step] for i in range(0, len(view), step)]
    else:
        *lead, count, size, columns = view.shape
        step = room.size // (size * columns)
        if step:
            slices = [view[i][j : j + step] for i in np.ndindex(*lead)
                      for j in range(0, count, step)]
        else:
            step = room.size // size
            slices = [view[i][:, j : j + step] for i in np.ndindex(*lead, count)
                      for j in range(0, columns, step)]
    return [(piece, room[: piece.size].reshape(piece.shape)) for piece in slices]


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

    Per qubit, one product of ``R = [[cos b, -i sin b], [-i sin b, cos
    b]]`` with the state viewed as ``(-1, 2, 2**q)``: the pairs of
    amplitudes that differ in bit ``q`` alone.  The products alternate
    between the state and one state-sized scratch buffer, and the result
    is copied back when it ends in the scratch.  ``sv.amplitudes`` keeps
    its array object.  Returns the mutated state for chaining.
    """
    c, s = math.cos(beta), -1j * math.sin(beta)
    rotation = np.array([[c, s], [s, c]])
    src, dst = sv.amplitudes, np.empty_like(sv.amplitudes)
    for q in range(sv.n_qubits):
        np.matmul(rotation, src.reshape(-1, 2, 1 << q), out=dst.reshape(-1, 2, 1 << q))
        src, dst = dst, src
    if src is not sv.amplitudes:
        sv.amplitudes[...] = src
    return sv


def apply_qaoa_circuit(g: Graph, params: QaoaParams) -> StateVector:
    """Prepare the layered ansatz state for ``g`` at the given angles.

    Starts from the uniform superposition (:func:`init_uniform`) and
    applies ``p`` layers, :func:`apply_cost_layer` first and
    :func:`apply_mixer_layer` second within each layer.  The cut table is
    built once, and the cap is checked once, by :func:`init_uniform`:
    its ``"full state"`` model counts the table.
    """
    sv, table = init_uniform(g.n), _cut_values(g)
    for gamma, beta in zip(params.gammas, params.betas):
        apply_mixer_layer(_phase(sv, g, table, gamma), beta)
    return sv


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


class FlipSymmetricWorkspace:
    """One graph's circuits simulated on the flip-symmetric half of the
    register: their expectations, final probabilities and picked cut.

    Holds the half state and one scratch buffer of ``min(2**(n-1),
    _SCRATCH_ENTRIES)`` complex entries (512 KiB from ``n = 17``), the
    low half of the cut table in the narrowest unsigned dtype that holds
    ``m``, and two frame vectors, one entry per row of 16 amplitudes: the
    start state in the frame, and the top qubit's flip term, rescaled by
    each mixer half-layer.  The table is built here by
    :func:`~qmaxcut.graph.half_cut_values_by_basis` with the state buffer
    as its scratch (every state prepared here overwrites it first).  The
    qubit cap check names their bytes (:func:`~qmaxcut.graph.peak_bytes`)
    before any is allocated.

    It also builds the plan that every circuit run here shares, since
    none of it depends on the angles: the mixer (:class:`_Mixer`, its
    block arrays and their operand views), the state's rows of 16
    amplitudes that the start state writes (``rows``), the top rotation's
    products and sums (:func:`_top_rotation`, ``top``), the state's
    chunks of ``_GATHER_CHUNK`` entries beside the table's and a chunk
    of ``scratch`` (``gathers``; an ``intp`` copy of the table when it is
    one chunk), the ``-i * levels`` vector of the cut values and the
    phase table it fills.

    ``values`` maps each canonical form valued here (:func:`_circuit`,
    so distinct angle vectors can be one form) to its expectation, so a
    repeat returns the same float without running a kernel; it grows by
    one entry per distinct form.

    The buffer roles, the same for every circuit: every preparation
    (:func:`_flip_symmetric_state`) ends in ``state``, which holds the
    last circuit prepared here (``held``, ``None`` while it holds no
    known state).  ``scratch`` takes each chunk of phases of any cost
    half-layer but the first.  Up to ``n = 16`` it also takes every
    other mixer block's product, and the top rotation reads the mixer's
    result (``mixer.out``) and writes its flipped half into the other
    buffer.  From ``n = 17``, where it is smaller than ``state``, every
    block's product goes through it slice by slice and back into
    ``state``, the top rotation's products take its two halves, and the
    expectation's chunks of ``|w|**2`` take its first ``_GATHER_CHUNK``
    float64.  The probabilities that a draw, a scan or
    :meth:`probabilities` reads are written over ``state`` itself,
    ``|w|`` going through ``scratch``, after which it holds no state;
    only then is ``state`` written outside a preparation.
    :meth:`_state_of`, the one lookup, reads a circuit's state from
    ``state``, prepared there unless held.

    With ``shots > 0`` it owns the shots stream of a run with that
    ``shots`` and ``seed``: it draws the uniforms once, sorted
    (``uniforms``, empty without shots), :meth:`cut` draws with them, and
    when a simulation beats the best circuit so far (``best``) it draws
    that state's cut while ``state`` holds it and keeps the winning
    index (``drawn``), which is all a sampled run keeps of it.  Only a
    simulated best is drawn from at once: one valued in closed form (see
    :meth:`expectation`) has no state here, and is prepared and drawn
    from at :meth:`cut`, should it still be the best then.
    """

    def __init__(self, g: Graph, shots: int = 0, seed: int = 0):
        # Drawn first, so the stream's Python ints never sit beside the
        # state; they are shots-sized, not 2**n, so the cap comes after.
        self.uniforms = np.sort(_uniforms(shots, seed))
        _check_cap(g.n, "workspace", g.m, self.uniforms.size)
        half = 1 << (g.n - 1)
        self.graph = g
        self.state = np.empty(half, dtype=np.complex128)
        self.scratch = np.empty(min(half, _SCRATCH_ENTRIES), dtype=np.complex128)
        self.low_table = half_cut_values_by_basis(g, self.state.view(np.min_scalar_type(g.m)))
        # Built in place: no frame-sized temporary beside the two vectors.
        # f[y] = -i * conj(e[y]) * e[~y] = unit * e[y]**2, for the unit -i *
        # i**bits over the frame's bits above bit 3, real or imaginary: one
        # part of ``flip`` is nonzero, and its signs are f's.
        unit = -1j * _I_POWERS[max(0, g.n - 1 - MIXER_BLOCK_QUBITS) % 4]
        self.start = _frame(g.n - 1)[:, None]
        self.flip = np.square(self.start)
        self.flip *= unit
        self.flip_part = self.flip.view(np.float64)[:, int(unit.real == 0)]
        np.conjugate(self.start, out=self.start)
        self.start /= math.sqrt(1 << g.n)
        self.values: dict[tuple, float] = {}
        self.held = self.best = self.drawn = None
        self.mixer = _Mixer(g.n - 1, self.state, self.scratch)
        self.rows = self.state.reshape(self.start.size, -1)
        self.top = _top_rotation(self.mixer.out, self.state, self.scratch, self.flip)
        # A table of one chunk or less is kept as intp too, no larger than
        # the copy each of its gathers would make: they then convert nothing.
        index = self.low_table if half > _GATHER_CHUNK else self.low_table.astype(np.intp)
        self.gathers = [(index[i : i + _GATHER_CHUNK], self.state[i : i + _GATHER_CHUNK],
                         self.scratch[: min(half, _GATHER_CHUNK)])
                        for i in range(0, half, _GATHER_CHUNK)]
        self.levels = -1j * np.arange(g.m + 1)
        self.phases = np.empty_like(self.levels)

    def _state_of(self, circuit: tuple) -> np.ndarray:
        """``state``, once it holds ``circuit``'s state: prepared there
        unless it already held it."""
        if circuit != self.held:
            self.held = None
            _flip_symmetric_state(circuit, self)
            self.held = circuit
        return self.state

    def expectation(self, params: QaoaParams) -> float:
        """Expected cut of the ansatz state, valued by its canonical form
        (:func:`_circuit`).

        The empty form is the uniform state, ``m / 2``; one (cost, mixer)
        pair is valued by :func:`depth_one_expectation`.  Any other is
        simulated on half the register: since ``|w| = |a|`` and ``C(~b) =
        C(b)``, the expectation is ``2 * sum_y |w_y|^2 C(y)`` over the low
        half (see :func:`_flip_symmetric_state`), one ``vdot`` up to ``n =
        16``, the order-fixed sum of :meth:`_chunked_sum` above; it reads
        its state by the class docstring's buffer rule.  A form already
        valued here returns its stored value and runs no kernel.
        """
        circuit = _circuit(params)
        value = self.values.get(circuit)
        if value is None:
            if not circuit:
                value = 0.5 * self.graph.m
            elif len(circuit) == 2:
                value = depth_one_expectation(self.graph, circuit[0][1], circuit[1][1])
            else:
                w = self._state_of(circuit)
                if w.size > self.scratch.size:
                    value = 2.0 * self._chunked_sum()
                else:
                    np.multiply(self.low_table, w, out=self.scratch)
                    value = 2.0 * float(np.vdot(w, self.scratch).real)
            self.values[circuit] = value
            if self.uniforms.size and value > self.values.get(self.best, -math.inf):
                self.best = circuit
                self.drawn = self._drawn_cut(circuit) if len(circuit) > 2 else None
        return value

    def _chunked_sum(self) -> float:
        """``sum_y |w_y|^2 C(y)`` over the state held, chunk by chunk
        through ``scratch``: ``p = |w|**2`` as :meth:`_probabilities`
        writes it, times the table, each ``_GATHER_CHUNK`` entries summed
        by ``np.add.reduce`` and the sums added pairwise, neighbours first.
        That is numpy's own pairwise order on a power-of-two array, so the
        value equals ``np.add.reduce(low_table * p)`` over the whole half,
        bit for bit, and it does not depend on the BLAS or its threads."""
        p = self.scratch.view(np.float64)[:_GATHER_CHUNK]
        sums = []
        for table, w, _ in self.gathers:
            np.square(np.abs(w, out=p), out=p)
            p *= table
            sums.append(float(np.add.reduce(p)))
        while len(sums) > 1:
            sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
        return sums[0]

    def _probabilities(self, circuit: tuple) -> np.ndarray:
        """The state buffer as ``2**n`` float64 whose low half holds ``p =
        |w|**2`` of ``circuit``'s state (the frame's entries are exact
        units, so ``|w| = |a|``) and whose high half holds ``p[::-1]``.

        ``|w|`` goes through ``scratch`` chunk by chunk, and each chunk of
        ``p`` lands on amplitudes already read, so no state is read after
        it: the workspace then holds none (``held`` is ``None``)."""
        w = self._state_of(circuit)
        self.held = None
        probs, magnitudes = self.state.view(np.float64), self.scratch.view(np.float64)
        for i in range(0, w.size, _GATHER_CHUNK):
            chunk = w[i : i + _GATHER_CHUNK]
            np.abs(chunk, out=magnitudes[: chunk.size])
            np.square(magnitudes[: chunk.size], out=probs[i : i + chunk.size])
        probs[w.size :] = probs[: w.size][::-1]
        return probs

    def probabilities(self, params: QaoaParams) -> np.ndarray:
        """Probabilities of all ``2**n`` basis states, ``concat(p, p[::-1])``
        for the low half's ``p = |w|**2``.

        The full vector, ``2**n`` float64, is the state buffer's float64
        view, so nothing state-sized is allocated.  It is valid until the
        workspace's next call, and it replaces the state the workspace
        held, so a later read of that circuit's state prepares it again.
        """
        return self._probabilities(_circuit(params))

    def _drawn_cut(self, circuit: tuple) -> int:
        """The basis index of the best cut among those drawn from
        ``circuit``'s probabilities with the sorted ``uniforms``, the
        smallest among ties: a drawn index ``c`` reads the cut of
        ``min(c, ~c)`` (see :meth:`cut`)."""
        candidates = _draw(self._probabilities(circuit), self.uniforms)
        last = (1 << self.graph.n) - 1
        values = self.low_table[np.minimum(candidates, last - candidates)]
        return int(candidates[int(np.argmax(values))])  # first max = smallest index

    def cut(self, params: QaoaParams) -> CutAssignment:
        """The cut picked from ``params``' final state (see :meth:`probabilities`).

        Without shots: best cut among basis states whose exact probability
        is at least ``1 / 2**(n+1)`` (half the uniform weight; the set is
        never empty).  With shots: best cut among the bitstrings drawn
        from all ``2**n`` probabilities with the sorted ``uniforms`` (see
        :func:`_draw`), so the candidates come sorted; ``drawn`` for ``best``.
        Ties resolve to the smallest basis index.  The state's
        probabilities and cut values are both flip-symmetric, so the
        smallest index among tied maxima always lies in the low half: the
        threshold scan reads the low half alone, and a sampled index ``c``
        reads the cut of ``min(c, ~c)``.  The scan writes its masked
        table, ``intp``, over the high half of the probabilities, which it
        does not read, so it allocates only its boolean mask.
        """
        n, last, table = self.graph.n, (1 << self.graph.n) - 1, self.low_table
        circuit = _circuit(params)
        if not self.uniforms.size:
            # -1 is below every cut, so no state under the threshold wins.
            probs = self._probabilities(circuit)
            values = probs[table.size :].view(np.intp)[: table.size]
            values.fill(-1)
            np.copyto(values, table, where=probs[: table.size] >= 1.0 / (1 << (n + 1)))
            best = int(np.argmax(values))  # first max = smallest index
        elif circuit == self.best and self.drawn is not None:
            best = self.drawn
        else:
            best = self._drawn_cut(circuit)
        return CutAssignment(
            labels=labels_from_index(n, best), cut_value=int(table[min(best, last - best)])
        )


def _circuit(params: QaoaParams) -> tuple[tuple[int, float], ...]:
    """The canonical form of ``params``' circuit: the half-layers that
    the workspace runs, in order, ``(0, gamma)`` for a cost layer and
    ``(1, beta)`` for a mixer layer.  This is the one place that decides
    which half-layers run, so equal circuits run the same kernels on the
    same floats, prepare the same bits and share one stored value.

    Four identities define it.  A half-layer whose angle is exactly 0
    (either sign) is left out, which changes no bit: its phases are ``1
    +- 0j`` and its mixer blocks identities of 1s and signed 0s, so only
    the sign of a zero component may differ, and nothing reads it.
    Adjacent half-layers of one kind commute, so they merge into one of
    their summed angle, left out when the sum is exactly 0 (``gamma``,
    ``beta = 0``, ``-gamma`` leaves nothing).  A leading mixer half-layer
    is left out, as ``exp(-i*beta*X)`` on ``|+>`` is a global phase, and
    so is a trailing cost half-layer, a phase that no probability sees.
    A form thus alternates, cost first and mixer last; a circuit with no
    zero angle is its own.  The last three identities are exact but
    change the rounding, and a form of at most one (cost, mixer) pair is
    valued in closed form (:meth:`FlipSymmetricWorkspace.expectation`).
    Whatever its form, an evaluation is one job of
    :func:`qmaxcut.pipeline.hybrid_cost`.
    """
    halves = [half for gamma, beta in zip(params.gammas, params.betas)
              for half in ((0, gamma), (1, beta)) if half[1]]
    if len(halves) == 2 * len(params.gammas):  # no zero angle: its own form
        return tuple(halves)
    form: list[tuple[int, float]] = []
    for kind, angle in halves:
        if form and form[-1][0] == kind:
            angle += form.pop()[1]
        if angle and (form or not kind):
            form.append((kind, angle))
    if form and not form[-1][0]:
        form.pop()
    return tuple(form)


def _flip_symmetric_state(circuit: tuple[tuple[int, float], ...],
                          ws: FlipSymmetricWorkspace) -> None:
    """The state of ``circuit``, its low half in the mixer's frame,
    prepared in ``ws``.  The workspace passes canonical forms (see
    :func:`_circuit`), but any sequence of half-layers is prepared as it
    stands, a mixer half-layer first or two of a kind in a row included.

    The cost operator and every ``X_q`` commute with the global flip
    ``X^{(x)n}``, and the uniform start is flip-invariant, so amplitude
    ``b`` equals amplitude ``~b`` after every layer: with qubit ``n - 1``
    as the pivot the full state is ``concat(a, a[::-1])`` for its low
    half ``a``.  The half is held in the mixer's frame, ``w = conj(e) *
    a`` (see :func:`_frame`); the cost layer is diagonal, so it commutes
    with the frame.  A cost half-layer phases ``w`` through the low half
    of the cut table; a mixer half-layer mixes qubits ``0..n-2``
    (``ws.mixer``) and rotates qubit ``n - 1`` as ``w <- cos(b) w +
    sin(b) f * w[::-1]``, where ``f = -i conj(e) e[::-1]`` is ``-i``
    seen through the frame, one unit per row of 16 amplitudes: one real
    or imaginary unit for the whole register times the row's sign ``e**2
    = +-1``.  ``ws.flip`` keeps the signs of ``f`` in its one nonzero
    part; each mixer half-layer sets that part's magnitude to ``|sin b|``
    and adds the product to ``cos(b) w``, or subtracts it when ``sin b <
    0`` (``ws.top``, :func:`_top_rotation`).  A circuit that opens with a
    cost half-layer gathers its phases straight into ``w`` and multiplies
    them by the start state; any other writes the start state first.  These products have the
    operands of ``start * phases`` and ``sin(b) f * w[::-1]`` up to the
    order of a product and exact signs, so the bits are theirs.

    ``w`` ends in ``ws.state`` (see the workspace's buffer roles), and a
    later cost half-layer multiplies it chunk by chunk.  Its buffers and
    views come from the workspace's plan: it allocates only what numpy
    takes for its own use: an ``intp`` copy of each gather chunk's
    indices, when the table is more than one chunk, and the buffer of a
    broadcast product.
    """
    rows = ws.rows
    if not circuit or circuit[0][0]:  # no cost half-layer to write the start state
        np.copyto(rows, ws.start)
    for i, (kind, angle) in enumerate(circuit):
        if kind == 0:
            np.exp(np.multiply(ws.levels, angle, out=ws.phases), out=ws.phases)
            # Every index is in range; numpy's "wrap" loop is the faster one.
            for table, state, phases in ws.gathers:
                if i:  # a later half-layer: each chunk's phases through scratch
                    ws.phases.take(table, out=phases, mode="wrap")
                    state *= phases
                else:
                    ws.phases.take(table, out=state, mode="wrap")
            if not i:  # the phases times the start state: no fill pass
                np.multiply(rows, ws.start, out=rows)
        else:
            ws.mixer(angle)
            s, c = math.sin(angle), math.cos(angle)
            np.copysign(abs(s), ws.flip_part, out=ws.flip_part)  # |sin(b)| * f
            add = np.add if s > 0 else np.subtract
            for products, sums in ws.top:
                for mirror, flip, flipped in products:
                    np.multiply(mirror, flip, out=flipped)
                for mixed, flipped, out in sums:
                    mixed *= c
                    add(mixed, flipped, out=out)


def _top_rotation(mixed: np.ndarray, state: np.ndarray, scratch: np.ndarray,
                  flip: np.ndarray) -> list[tuple[list, list]]:
    """The top qubit's rotation on the mixer's result ``mixed``, ending in
    ``state``, as groups of products ``(mirror, flip, flipped)``, each
    written ``flipped = mirror * flip``, then sums ``(mixed, flipped,
    out)``, each ``out = mixed * cos(b) +- flipped``.

    With a half-size ``scratch``, one group over the whole register:
    ``mixed`` reversed times ``flip`` into the other buffer, then the sum
    into ``state``.  With a smaller one, ``mixed`` is ``state``, and each
    group takes a run of rows ``A`` and its mirror run ``B``: the
    products of ``A``'s and ``B``'s reversed rows go into the two halves
    of ``scratch`` before either run is written, the runs taken from the
    ends inward.  Either way every entry is the same product and sum of
    the same operands in the same order, so the bits do not depend on
    the layout."""
    rows = flip.size
    if scratch.size == state.size:
        flipped = state if mixed is scratch else scratch
        return [([(mixed[::-1].reshape(rows, -1), flip, flipped.reshape(rows, -1))],
                 [(mixed, flipped, state)])]
    step = scratch.size // 32  # rows of 16 amplitudes in half of scratch
    w, mirror = state.reshape(rows, -1), state[::-1].reshape(rows, -1)
    halves = scratch.reshape(2, step, -1)
    groups = []
    for r in range(0, rows // 2, step):
        a, b = slice(r, r + step), slice(rows - r - step, rows - r)
        groups.append(([(mirror[a], flip[a], halves[0]), (mirror[b], flip[b], halves[1])],
                       [(w[a], halves[0], w[a]), (w[b], halves[1], w[b])]))
    return groups


def expectation_cut(sv: StateVector, g: Graph) -> float:
    """Expected cut value of the state: ``sum_b |amp_b|^2 * C(b)``."""
    return float(np.real(np.vdot(sv.amplitudes, _cut_table(sv, g) * sv.amplitudes)))


def sample_bitstrings(sv: StateVector, shots: int, seed: int) -> np.ndarray:
    """Draw ``shots`` basis indices from the state's probabilities, with
    the shots stream of the int ``seed`` (see :func:`_draw`): the draws
    that ``run_qaoa`` with ``QaoaConfig(seed=seed, shots=shots)`` makes
    from the same state.  Returns an int64 array of length ``shots``.
    """
    uniforms = _uniforms(shots, seed)
    if not uniforms.size:
        raise ValueError("shots must be positive to sample, got 0")
    return _draw(sv.probabilities(), uniforms)


def _uniforms(shots: int, seed: int) -> np.ndarray:
    """The ``shots`` uniform floats of the shots stream of ``seed``: the one
    place a seed becomes that stream, and the one reader of ``shots`` and
    ``seed`` for a workspace and :func:`sample_bitstrings`, whatever
    ``shots`` is.  Both are read by :func:`~qmaxcut.graph._index` (a float
    or a string is refused), ``shots`` must not be negative (0 draws
    none), and the stream is ``_PCG64(seed, _STREAM_SHOTS)``, numpy's
    ``default_rng(SeedSequence([seed mod 2**64, 2]))``.
    """
    shots, rng = _index(shots, "shots"), _PCG64(_index(seed, "seed"), _STREAM_SHOTS)
    if shots < 0:
        raise ValueError(f"shots must be positive, or 0 for none, got {shots}")
    return rng.random(shots)


def _draw(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One index drawn from ``probs``, which is overwritten, per float of
    ``uniforms`` (:func:`_uniforms`), in their order: sorted floats give
    sorted indices.

    The same draws as the stream's ``Generator.choice(probs.size,
    shots, p=probs / sum)``, whose steps these are (numpy 2.x), without
    its copies: the normalized ``probs`` becomes its own cumulative
    distribution.
    """
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"probabilities must have a positive finite sum, got {total}")
    probs /= total
    np.cumsum(probs, out=probs)
    probs /= probs[-1]
    return probs.searchsorted(uniforms, side="right").astype(np.int64, copy=False)
