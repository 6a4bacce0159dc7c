"""Dense statevector simulation of the Max-Cut phase-separator circuit.

Basis state ``b`` (vertex ``i`` in bit ``i``, see :mod:`qmaxcut.graph`)
has the cost eigenvalue ``C(b)``, its cut value.  One layer with angles
``(gamma, beta)`` multiplies each amplitude by ``exp(-i*gamma*C(b))``,
then applies ``exp(-i*beta*X_q)`` on every qubit.

``run_qaoa`` simulates in one :class:`FlipSymmetricWorkspace`.  The
full-register functions (:class:`StateVector`, :func:`init_uniform`,
:func:`apply_cost_layer`, :func:`apply_mixer_layer`,
:func:`apply_qaoa_circuit`, :func:`expectation_cut`,
:func:`sample_bitstrings`) are not exported: they are the tests'
first-principles oracle for the workspace, sharing no kernel with it,
and stay here because the benchmark's tracer resolves them here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .graph import (
    _GATHER_CHUNK,
    _PCG64,
    _FLIP_ROWS,
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
_I_POWERS = np.array([1, 1j, -1, -1j])
_NIBBLE_CLASSES = np.array([bin(j).count("1") for j in range(16)], dtype=np.uint8)  # popcounts
# Block 0's rows of the state per product (see _Mixer), and the row panels
# for the large blocks above bit 3: their width in float64 columns, and the
# smallest register and lowest block bit they serve.  Chosen from per-block
# timings (README, "Performance").
_BLOCK0_ROWS = 64
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
    """``g``'s full cut table, for a state on ``g``'s vertices."""
    if g.n != sv.n_qubits:
        raise ValueError(f"graph has {g.n} vertices but state has {sv.n_qubits} qubits")
    _check_cap(g.n, "full state")
    return _cut_values(g)


def apply_cost_layer(sv: StateVector, g: Graph, gamma: float) -> StateVector:
    """Phase ``exp(-i*gamma*C(b))`` on every amplitude, in place, returning
    ``sv``: the ``m + 1`` distinct phases, gathered through ``g``'s full
    cut table, built afresh on each call."""
    return _phase(sv, g, _cut_table(sv, g), gamma)


def _phase(sv: StateVector, g: Graph, table: np.ndarray, gamma: float) -> StateVector:
    """:func:`apply_cost_layer` through ``g``'s full cut table ``table``."""
    sv.amplitudes *= np.exp(-1j * float(gamma) * np.arange(g.m + 1))[table]
    return sv


class _Mixer:
    """The mixer on ``n`` qubits, given in the frame, on ``state`` through
    ``scratch``: everything but the angle is built once, so a call only
    weighs its blocks and multiplies, and allocates only the weights.

    The qubits are taken ``MIXER_BLOCK_QUBITS`` at a time, bit 0 upward,
    and each block is one real matrix product over the float64 view of
    the whole register, from one buffer into the other, ending in ``out``
    from ``state``, or in ``state`` from ``out`` (``opening``, see
    :func:`_flip_symmetric_state`).  With ``c = cos b``, ``s = sin b``
    and ``d`` the number of bits in which ``i`` and ``j`` differ, block 0
    (bits 0-3) is ``R = [[c, -i s], [-i s, c]]`` Kronecker-multiplied with
    itself ``k`` times, whose entry ``(i, j)`` is ``w_d = c**(k-d) *
    s**d`` times ``(-i)**d``; it is held as the real matrix that
    multiplies a row of ``2**k`` amplitudes as ``2**(k+1)`` floats, entry
    ``(i, j)`` becoming ``[[re, im], [-im, re]]``, half of them zeros.
    The blocks above bit 3 act in the frame of :func:`_frame_classes`,
    where the qubit's rotation is the real ``r = [[c, s], [-s, c]]`` (``R
    = E r E^-1`` with ``E = diag(1, i)``): entry ``(i, j)`` of the power
    of ``r`` is ``w_d`` times ``-1`` per bit set in ``i`` and clear in
    ``j``.  A last block of ``n mod MIXER_BLOCK_QUBITS`` qubits gets its
    own power.  One ``take`` from the weights ``[w_0..w_k, -w_k..-w_0]``
    of each block size and a 0 fills every block (:func:`_block_index`).

    Block 0 multiplies stacks of ``_BLOCK0_ROWS`` rows, so each product is
    in OpenBLAS's small-matrix range; a register of one row multiplies by
    ``np.einsum``, since BLAS's one-row kernel rounds differently from one
    CPU kernel to another.  Every product is thus a ``dgemm``.  Two
    layouts keep every output entry the same sum over the same products,
    so the bits do not change.  A ``scratch`` smaller than ``state`` makes
    each block a run of products of slices of its operand (:func:`_pieces`),
    each copied back, so ``out`` is ``state``.  A block above bit 3 of at
    least 4 rows at bit ``_PANEL_MIN_LO`` or above, on at least
    ``_PANEL_MIN_QUBITS`` qubits, multiplies row panels of ``_PANEL_WIDTH``
    columns, so one product's operand stays in cache.
    """

    def __init__(self, n: int, state: np.ndarray, scratch: np.ndarray) -> None:
        self.sizes, self.index, spans = _block_index(n)
        self.entries = np.empty(self.index.size)
        self.blocks = [(lo, self.entries[start : start + size * size].reshape(size, size))
                       for lo, start, size in spans]
        self.one_row = state.size <= 1 << MIXER_BLOCK_QUBITS
        self.in_place = scratch.size < state.size
        if self.in_place:
            pieces = [_pieces(self._view(n, lo, state), scratch) for lo, _ in self.blocks]
            self.out, self.views = state, (pieces, pieces)
        else:
            self.out = (state, scratch)[len(self.blocks) % 2]
            other = state if self.out is scratch else scratch
            self.views = self._chain(n, state, scratch), self._chain(n, self.out, other)
        self.ends = (self.out, state)

    def _chain(self, n: int, first: np.ndarray, second: np.ndarray) -> list:
        """Each block's operand and product, the buffers alternating from ``first``."""
        buffers = (first, second)
        return [[(self._view(n, lo, buffers[i % 2]), self._view(n, lo, buffers[1 - i % 2]))]
                for i, (lo, _) in enumerate(self.blocks)]

    @staticmethod
    def _view(n: int, lo: int, buffer: np.ndarray) -> np.ndarray:
        """``buffer`` shaped as the operand of the product of the block at bit ``lo``."""
        size = 1 << min(MIXER_BLOCK_QUBITS, n - lo)
        floats = buffer.view(np.float64)
        if lo == 0:
            return floats.reshape(-1, min(_BLOCK0_ROWS, buffer.size // size), 2 * size)
        if n >= _PANEL_MIN_QUBITS and lo >= _PANEL_MIN_LO and size >= 4:
            shape = (-1, size, (2 << lo) // _PANEL_WIDTH, _PANEL_WIDTH)
            return floats.reshape(shape).swapaxes(1, 2)
        return floats.reshape(-1, size, 2 << lo)

    def weigh(self, beta: float) -> list[tuple[int, np.ndarray]]:
        """Fill the blocks for ``beta``; returns them as ``(lo, block)``."""
        c, s = math.cos(beta), math.sin(beta)
        weights = []
        for k in self.sizes:
            w = [c ** (k - d) * s**d for d in range(k + 1)]
            weights += w + [-x for x in w[::-1]]
        np.array(weights + [0.0]).take(self.index, out=self.entries, mode="clip")
        return self.blocks

    def __call__(self, beta: float, opening: bool = False) -> np.ndarray:
        """Mix by ``beta``, from ``state`` or, ``opening``, from ``out``;
        returns ``out`` or ``state``, whichever holds the result."""
        for (lo, block), pieces in zip(self.weigh(beta), self.views[opening]):
            for a, b in pieces:
                if lo:
                    np.matmul(block, a, out=b)
                elif self.one_row:
                    np.einsum("...j,jk->...k", a, block, out=b)
                else:
                    np.matmul(a, block, out=b)
                if self.in_place:
                    a[...] = b
        return self.ends[opening]


@cache
def _block_index(n: int) -> tuple[tuple[int, ...], np.ndarray, tuple[tuple[int, int, int], ...]]:
    """The plan of the blocks of the mixer on ``n`` qubits (see
    :class:`_Mixer`), built once per size: the block sizes ``k`` whose
    weights ``[w_0..w_k, -w_k..-w_0]`` make up its weights vector, in
    order, a 0 ending it; the index into that vector of every entry of
    the blocks, flat, block 0 first, then one block per size above bit 3;
    and per block ``(lo, start, rows)``, where its square matrix starts in
    the flat entries.  An entry reads ``w_d``, or ``-w_d`` at ``2k+1-d``
    where it is negative, or the 0."""
    qubits = [min(MIXER_BLOCK_QUBITS, n - lo) for lo in range(0, n, MIXER_BLOCK_QUBITS)]
    sizes = tuple(dict.fromkeys(qubits))
    *weights_at, zero = np.cumsum([0] + [2 * k + 2 for k in sizes]).tolist()
    weights_at = dict(zip(sizes, weights_at))
    parts, starts = [], {}
    for i, k in enumerate([*qubits[:1], *dict.fromkeys(qubits[1:])]):
        d = np.array([[bin(a ^ b).count("1") for b in range(1 << k)] for a in range(1 << k)])
        if i:  # a real power of r: -1 per bit set in the row and clear in the column
            odd = [[bin(a & ~b).count("1") % 2 for b in range(1 << k)] for a in range(1 << k)]
            signs = np.where(odd, -1, 1)
        else:  # (-i)**d as [[re, im], [-im, re]]
            unit = _I_POWERS[-d % 4]
            pairs = np.array([[unit.real, unit.imag], [-unit.imag, unit.real]])
            signs = pairs.transpose(2, 0, 3, 1).reshape(2 << k, 2 << k)
            d = np.kron(d, np.ones((2, 2), dtype=int))
        starts[i and k] = sum(part.size for part in parts), len(signs)  # block 0 keyed 0
        at = weights_at[k] + np.where(signs < 0, 2 * k + 1 - d, d)
        parts.append(np.where(signs == 0, zero, at).ravel())
    los = range(0, n, MIXER_BLOCK_QUBITS)
    spans = tuple((lo, *starts[lo and k]) for lo, k in zip(los, qubits))
    return sizes, np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp), spans


def _pieces(view: np.ndarray, scratch: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """A mixer block's operand ``view`` on the state, cut into the slices
    whose products fit in ``scratch``, each beside an array of its shape
    there: runs of the matrices along the last batch axis of ``(...,
    matrices, size, columns)``, or runs of columns of each matrix when one
    matrix alone does not fit."""
    room = scratch.view(view.dtype)
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


def _frame_classes(n: int) -> np.ndarray:
    """The mixer's frame ``e[y] = i**k[y]`` on ``n`` qubits as its classes
    ``k[y] = popcount(y >> 4) mod 4``, a new uint8 array: ``2**max(0, n -
    4)`` entries, one per row of 16 amplitudes, built four bits at a
    time.  An amplitude ``a`` is held as ``conj(e) * a`` while the blocks
    above bit 3 run (see :class:`_Mixer`)."""
    bits = max(0, n - MIXER_BLOCK_QUBITS)
    classes = _NIBBLE_CLASSES[: 1 << min(bits, MIXER_BLOCK_QUBITS)].copy()
    for lo in range(MIXER_BLOCK_QUBITS, bits, MIXER_BLOCK_QUBITS):
        high = _NIBBLE_CLASSES[: 1 << min(MIXER_BLOCK_QUBITS, bits - lo)]
        classes = np.add.outer(high, classes).ravel()
    classes &= 3
    return classes


def apply_mixer_layer(sv: StateVector, beta: float) -> StateVector:
    """``exp(-i*beta*X_q)`` on every qubit ``q``, in place, returning ``sv``.

    Per qubit, one product of ``R = [[cos b, -i sin b], [-i sin b, cos
    b]]`` with the state viewed as ``(-1, 2, 2**q)``, alternating between
    the state and one state-sized scratch buffer; the result is copied
    back when it ends in the scratch.
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
    """The layered ansatz state for ``g`` at ``params``: the uniform
    superposition (:func:`init_uniform`), then per layer
    :func:`apply_cost_layer` and :func:`apply_mixer_layer`, the cut table
    built once, under :func:`init_uniform`'s ``"full state"`` check."""
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
    first, then the mixer).  Costs ``O(m)`` and allocates no state; the
    exponents are read as float64 (:attr:`Graph.edge_exponents`).
    """
    d_u, d_v, d_uv, f = g.edge_exponents
    c = math.cos(gamma)
    linear = 0.25 * math.sin(4 * beta) * math.sin(gamma) * (c**d_u + c**d_v)
    quadratic = 0.25 * math.sin(2 * beta) ** 2 * c**d_uv
    triangles = 1.0 - math.cos(2 * gamma) ** f
    return 0.5 * g.m + float(np.sum(linear - quadratic * triangles))


class FlipSymmetricWorkspace:
    """One graph's circuits simulated on the flip-symmetric half of the
    register (:func:`_flip_symmetric_state`): their expectations, final
    probabilities and picked cut.

    The constructor draws ``uniforms`` (below), checks the qubit cap
    (:func:`~qmaxcut.graph._check_cap`) and allocates the rest of what
    :func:`~qmaxcut.graph.peak_bytes` counts for ``"workspace"``, the low
    half of the cut table built with the state buffer as its scratch
    (:func:`~qmaxcut.graph.half_cut_values_by_basis`).  It builds once
    the plan that no angle changes: the mixer (:class:`_Mixer`), the top
    rotation (:func:`_top_rotation`), the chunks that each phase gather
    reads and writes, and the phases.  ``index`` holds, per half entry
    ``y``, ``k(y) * (m+1)**2 + C(y) * (m+1) + C(~y)``, ``k`` the frame
    class of its row (:func:`_frame_classes`) and ``~y`` its mirror in
    the half: the first layer's one gather (:func:`_flip_symmetric_state`)
    reads its ``4 (m+1)**2`` entries ``pairs`` through it, and each top
    rotation the signs of its flip term from its classes.  It is ``intp``
    where the half is one gather chunk or less, like the table's copy
    there, so neither gather converts it.

    The buffer roles, the same for every circuit: every preparation
    (:func:`_flip_symmetric_state`) ends in ``state``, which holds the
    last circuit prepared here (``held``, ``None`` while it holds no
    known state).  The first layer's gather writes the mixer's ``out``,
    from which the blocks end in ``state``, and ``pairs`` lies in the
    other buffer where it fits.  ``scratch`` takes each chunk of phases
    of any later cost half-layer.  Up to ``n = 16`` it also takes every
    other mixer block's product, and the top rotation reads the mixer's
    result (``mixer.out``) and writes its flipped half into the other
    buffer.  From ``n = 17``, where it is smaller than ``state``, every
    block's product goes through it slice by slice and back into
    ``state``, the top rotation's products take two quarters of it and
    its flip term a third, and the expectation's chunks of ``|w|**2``
    take its first ``_GATHER_CHUNK`` float64.  The probabilities that a
    draw, a scan or :meth:`probabilities` reads are written over
    ``state`` itself, ``|w|`` going through ``scratch``, after which it
    holds no state; only then is ``state`` written outside a
    preparation.  :meth:`_state_of`, the one lookup, reads a circuit's
    state from ``state``, prepared there unless held.

    ``values`` holds each form's expectation (see :meth:`expectation`).
    The workspace owns the shots stream of a run with its ``shots`` and
    ``seed``: ``uniforms`` holds the stream's draws, sorted (empty without
    shots); :meth:`expectation` keeps the best form so far (``best``) and
    its drawn cut (``drawn``), and :meth:`cut` draws with them.
    """

    def __init__(self, g: Graph, shots: int = 0, seed: int = 0):
        # Drawn first, so the stream's Python ints never sit beside the
        # state; they are shots-sized, not 2**n, so the cap comes after.
        self.uniforms = np.sort(_uniforms(shots, seed))
        _check_cap(g.n, "workspace", g.m, self.uniforms.size)
        half, levels = 1 << (g.n - 1), g.m + 1
        self.graph = g
        self.state = np.empty(half, dtype=np.complex128)
        self.scratch = np.empty(min(half, _SCRATCH_ENTRIES), dtype=np.complex128)
        self.low_table = half_cut_values_by_basis(g, self.state.view(np.min_scalar_type(g.m)))
        self.values: dict[tuple, float] = {}
        self.held = self.best = self.drawn = None
        self.mixer = _Mixer(g.n - 1, self.state, self.scratch)
        self.top, self.flip = _top_rotation(self.mixer.out, self.state, self.scratch)
        # f = -i * conj(e) * e[~y] per frame class k: unit * (-1)**k, for the
        # unit -i * i**bits over the frame's bits above bit 3.
        unit = -1j * _I_POWERS[max(0, g.n - 1 - MIXER_BLOCK_QUBITS) % 4]
        self.flips = unit * np.array([1.0, -1.0, 1.0, -1.0])
        per_class = levels * levels
        dtype = np.intp if half <= _GATHER_CHUNK else np.min_scalar_type(4 * per_class - 1)
        # (k(y) (m+1) + C(y)) (m+1) + C(~y); each table is cast in the state
        # buffer, which holds nothing until the first preparation.
        self.index, values = np.empty(half, dtype), self.state.view(dtype)[:half]
        classes = _frame_classes(g.n - 1)
        self.index.reshape(classes.size, -1)[...] = classes[:, None]
        for table in (self.low_table, self.low_table[::-1]):
            self.index *= levels
            np.copyto(values, table)
            self.index += values
        self.per_class, self.run_index = per_class, self.index[: 16 * self.flip.size : 16]
        other = self.scratch if self.mixer.out is self.state else self.state
        fits = 4 * per_class <= other.size
        room = other if fits else np.empty(4 * per_class, np.complex128)
        self.pairs = room[: 4 * per_class].reshape(4, levels, levels)
        # An index that is not intp is cast chunk by chunk past the table, if
        # there is room, not into a copy that np.take would make.
        spare = other.view(np.intp)[8 * per_class if fits else 0 :][:_GATHER_CHUNK]
        cast = spare if dtype != np.intp and spare.size == _GATHER_CHUNK else None
        self.openings = [(self.index[i : i + _GATHER_CHUNK], cast,
                          self.mixer.out[i : i + _GATHER_CHUNK])
                         for i in range(0, half, _GATHER_CHUNK)]
        # A table of one chunk or less is kept as intp too, no larger than
        # the copy each of its gathers would make: they then convert nothing.
        table = self.low_table if half > _GATHER_CHUNK else self.low_table.astype(np.intp)
        self.gathers = [(table[i : i + _GATHER_CHUNK], self.state[i : i + _GATHER_CHUNK],
                         self.scratch[: min(half, _GATHER_CHUNK)])
                        for i in range(0, half, _GATHER_CHUNK)]
        self.levels = -1j * np.arange(levels)
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
        """Expected cut of the ansatz state, valued once per canonical form
        (:func:`_circuit`): a form in ``values`` returns its stored value
        and runs no kernel.

        The empty form is the uniform state, ``m / 2``; one (cost, mixer)
        pair is valued by :func:`depth_one_expectation`.  Any other is
        simulated on half the register: since ``|w| = |a|`` and ``C(~b) =
        C(b)``, the expectation is ``2 * sum_y |w_y|^2 C(y)`` over the low
        half, one ``vdot`` up to ``n = 16`` and :meth:`_chunked_sum` above.
        With shots, a form that beats ``best`` becomes it, and if it was
        simulated (more than one pair) its cut is drawn at once, while
        ``state`` holds it (``drawn``); one valued in closed form has no
        state here, so :meth:`cut` prepares it, should it still be the best.
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
        """The state buffer as ``2**n`` float64: ``p = |w|**2`` of
        ``circuit``'s state in the low half (the frame's entries are exact
        units, so ``|w| = |a|``), ``p[::-1]`` in the high half.  Each chunk
        of ``p`` lands on amplitudes already read."""
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
        (:meth:`_probabilities`), valid until the workspace's next call."""
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
        with the sorted ``uniforms`` (:func:`_draw`), or ``drawn`` for
        ``best``.  Ties resolve to the smallest basis index, which lies in
        the low half, as probabilities and cut values are flip-symmetric:
        the scan reads the low half alone, writing its masked ``intp``
        table over the high half of the probabilities, and a sampled index
        ``c`` reads the cut of ``min(c, ~c)``.
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
    (either sign) is left out, which changes no bit unless it is one of
    the first two, which :func:`_flip_symmetric_state` fuses: its phases
    are ``1 +- 0j`` and its mixer blocks identities of 1s and signed 0s,
    so only the sign of a zero component may differ, and nothing reads it.
    Adjacent half-layers of one kind commute, so they merge into one of
    their summed angle, left out when the sum is exactly 0 (``gamma``,
    ``beta = 0``, ``-gamma`` leaves nothing).  A leading mixer half-layer
    is left out, as ``exp(-i*beta*X)`` on ``|+>`` is a global phase, and
    so is a trailing cost half-layer, a phase that no probability sees.
    A form thus alternates, cost first and mixer last; a circuit with no
    zero angle is its own.  The last three identities are exact but
    change the rounding.
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
    prepared in ``ws``'s buffers by its plan, so it allocates only numpy's
    own temporaries (:func:`~qmaxcut.graph.peak_bytes` leaves them out).
    The workspace passes canonical forms (:func:`_circuit`), but any
    sequence of half-layers is prepared as it stands.

    The cost operator and every ``X_q`` commute with the global flip
    ``X^{(x)n}``, and the uniform start is flip-invariant, so the full
    state is ``concat(a, a[::-1])`` for its low half ``a`` (qubit ``n - 1``
    clear) after every layer.  The half is held in the mixer's frame, ``w
    = conj(e) * a`` (:func:`_frame_classes`), with which the diagonal cost
    layer commutes.  A cost half-layer phases ``w`` through the low half of
    the cut table; a mixer half-layer mixes qubits ``0..n-2`` (``ws.mixer``)
    and rotates qubit ``n - 1`` as ``w <- cos(b) w + sin(b) f * w[::-1]``,
    where ``f = -i conj(e) e[::-1]`` is ``-i`` seen through the frame: one
    real or imaginary unit for the whole register times each row's sign
    ``e**2 = (-1)**k``.  Each later mixer half-layer gathers ``|sin b| f``
    over the first run of rows into ``ws.flip`` from the classes in
    ``ws.index``, and adds each run's products to ``cos(b) w``, or
    subtracts them when the sign of ``sin b`` times that of the run's
    first row is negative (``ws.top``, :func:`_top_rotation`).  These
    products have the operands of ``sin(b) f * w[::-1]`` up to exact
    signs, so the bits are theirs.

    The first layer is one gather.  Every circuit opens with a cost
    half-layer ``gamma`` and a mixer half-layer ``beta``, either of them
    0 where the circuit does not start so, and the top rotation commutes
    with the mixer's blocks, so it runs first.  On the start state ``s =
    conj(e) / sqrt(2**n)`` phased by ``phi[c] = exp(-i gamma c)`` it is
    exact algebra, since ``f[y] s[~y] = -i s[y]``: ``w[y] = s[y] (cos(b)
    phi[C(y)] - i sin(b) phi[C(~y)])``.  So ``ws.pairs`` holds that value
    for each frame class and pair of cut values, and ``ws.index`` gathers
    it into the mixer's ``out``, from which the blocks end in ``state``.
    """
    halves = list(circuit)
    gamma = halves.pop(0)[1] if halves and halves[0][0] == 0 else 0.0
    beta = halves.pop(0)[1] if halves and halves[0][0] == 1 else 0.0
    scale = 1.0 / math.sqrt(1 << ws.graph.n)
    phases = np.exp(np.multiply(ws.levels, gamma, out=ws.phases), out=ws.phases)
    pairs = ws.pairs
    # Copied into place first: a broadcast add would buffer its operands.
    np.copyto(pairs[0], np.multiply(phases, math.cos(beta) * scale)[:, None])
    np.copyto(pairs[1], np.multiply(phases, -1j * math.sin(beta) * scale))
    pairs[0] += pairs[1]
    np.multiply(pairs[0], -1j, out=pairs[1])  # (-i)**k times pairs[0], exact
    np.negative(pairs[:2], out=pairs[2:])
    flat = pairs.reshape(-1)
    # Every index is in range; numpy's "wrap" loop is the faster one.
    for index, cast, out in ws.openings:
        if cast is not None:
            np.copyto(cast, index)
            index = cast
        flat.take(index, out=out, mode="wrap")
    ws.mixer(beta, opening=True)
    for kind, angle in halves:
        if kind == 0:
            np.exp(np.multiply(ws.levels, angle, out=ws.phases), out=ws.phases)
            for table, state, chunk in ws.gathers:
                ws.phases.take(table, out=chunk, mode="wrap")
                state *= chunk
        else:
            ws.mixer(angle)
            s, c = math.sin(angle), math.cos(angle)
            np.take(ws.flips * abs(s), ws.run_index // ws.per_class, out=ws.flip)
            positive = s > 0
            for products, sums in ws.top:
                for mirror, flip, flipped in products:
                    np.multiply(mirror, flip, out=flipped)
                for mixed, flipped, out, negated in sums:
                    mixed *= c
                    (np.subtract if negated == positive else np.add)(mixed, flipped, out=out)


def _top_rotation(mixed: np.ndarray, state: np.ndarray,
                  scratch: np.ndarray) -> tuple[list[tuple[list, list]], np.ndarray]:
    """The top qubit's rotation on the mixer's result ``mixed``, ending in
    ``state``, and its flip term ``flip``: groups of products ``(mirror,
    flip, flipped)``, each written ``flipped = mirror * flip``, then sums
    ``(mixed, flipped, out, negated)``, each ``out = mixed * cos(b) +-
    flipped``.

    Each product takes a run of up to ``_FLIP_ROWS`` rows of 16 amplitudes
    that starts at a multiple of its length, so ``(-1)**k`` over the run
    is ``(-1)**k`` over the first run times its value on the run's first
    row, which is ``-1`` for a ``negated`` run: ``flip`` holds the term
    over the first run alone.  With a half-size ``scratch``, one group over
    the whole register, ``flip`` an array of its own.  With a smaller one,
    ``mixed`` is ``state``, and each group takes a run ``A`` and its mirror
    run ``B``, from the ends inward: the products of ``A``'s and ``B``'s
    reversed rows go into two quarters of ``scratch`` before either run is
    written, and ``flip`` lies in a third.  Every entry is the same
    product and sum of the same operands either way, up to exact signs, so
    the bits do not depend on the layout."""
    rows = max(1, state.size >> 4)
    run = min(rows, _FLIP_ROWS)
    negated = {r: bin(r).count("1") % 2 == 1 for r in range(0, rows, run)}
    if scratch.size == state.size:
        flip = np.empty(run, dtype=np.complex128)
        column = flip[:, None]
        flipped = state if mixed is scratch else scratch
        mirror, w, f, out = (b.reshape(rows, -1) for b in (mixed[::-1], mixed, flipped, state))
        runs = [slice(r, r + run) for r in range(0, rows, run)]
        return [([(mirror[a], column, f[a]) for a in runs],
                 [(w[a], f[a], out[a], negated[a.start]) for a in runs])], flip
    first, second, third, _ = scratch.reshape(4, run, -1)
    flip = third.reshape(-1)[:run]
    column = flip[:, None]
    w, mirror = state.reshape(rows, -1), state[::-1].reshape(rows, -1)
    groups = []
    for r in range(0, rows // 2, run):
        a, b = slice(r, r + run), slice(rows - r - run, rows - r)
        groups.append(([(mirror[a], column, first), (mirror[b], column, second)],
                       [(w[a], first, w[a], negated[a.start]),
                        (w[b], second, w[b], negated[b.start])]))
    return groups, flip


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
    """The ``shots`` uniform floats of the shots stream of ``seed``,
    ``_PCG64(seed, _STREAM_SHOTS)``: the one place a seed becomes that
    stream, and the one reader of ``shots`` and ``seed`` for a workspace
    and :func:`sample_bitstrings`.  Both are read by
    :func:`~qmaxcut.graph._index`, and ``shots`` must not be negative.
    """
    shots, seed = _index(shots, "shots"), _index(seed, "seed")
    if shots < 0:
        raise ValueError(f"shots must be positive, or 0 for none, got {shots}")
    return _PCG64(seed, _STREAM_SHOTS).random(shots) if shots else np.empty(0)


def _draw(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One index drawn from ``probs``, which is overwritten, per float of
    ``uniforms`` (:func:`_uniforms`), in their order: sorted floats give
    sorted indices.  These are the steps, so the draws, of the stream's
    ``Generator.choice(probs.size, shots, p=probs / sum)`` (numpy 2.x),
    without its copies: ``probs`` becomes its own cumulative distribution.
    """
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"probabilities must have a positive finite sum, got {total}")
    probs /= total
    np.cumsum(probs, out=probs)
    probs /= probs[-1]
    return probs.searchsorted(uniforms, side="right").astype(np.int64, copy=False)
