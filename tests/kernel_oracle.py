"""The half-register kernel as it was before the workspace held a plan:
every call builds its mixer blocks, views, phase table and first-layer
values afresh.

Kept only as a bit-for-bit oracle for :mod:`qmaxcut.simulator`, whose
workspace must prepare the same bits.  It reads the workspace's buffers
and cut table, the simulator's frame classes (from which it builds the
start state and the top qubit's flip term) and its block-size and
row-panel constants (which tests may patch), and nothing of its plan.
Its kernel swaps two half-size buffers as it goes, the workspace's state
and scratch, or its own array where the workspace's scratch is smaller
than the state (from n=17), and copies its result into ``state``, where
the workspace's buffer roles (its docstring) put every prepared state.
With ``fused=False`` it runs the order that the workspace ran before its
first layer became one gather: the start state, each half-layer as it
comes, the top rotation after the blocks, and block 0 as a complex
product; the tests hold the workspace to that within a tolerance.
The one exception, :func:`plan_mix`, is the subject, not the oracle: the
plan's ``_Mixer`` in :func:`mix`'s signature.  :func:`mixer_layer` runs
either on the whole register, so the tests check the plan's mixer against
:func:`mix` and against the per-qubit ``simulator.apply_mixer_layer``.
"""

import math

import numpy as np

from qmaxcut import simulator

# Per block size k, the index of a block's entry (i, j) into its weights
# [w_0..w_k] (or, for a real block, [w_0..w_k, -w_k..-w_0], ~d reading -w_d).
_BLOCK_INDEX = tuple(
    np.array([[bin(i ^ j).count("1") for j in range(1 << k)] for i in range(1 << k)])
    for k in range(simulator.MIXER_BLOCK_QUBITS + 1)
)
_REAL_BLOCK_INDEX = tuple(
    np.where([[bin(i & ~j).count("1") % 2 for j in range(len(d))] for i in range(len(d))], ~d, d)
    for d in _BLOCK_INDEX
)


def frame(n):
    """The mixer's frame ``e = i**k`` on ``n`` qubits, one unit per row of 16."""
    return simulator._I_POWERS[simulator._frame_classes(n)]


def mixer_blocks(beta, n, complex_block0=False):
    """``(lo, block)`` for each block of the ``n``-qubit mixer, bit 0 upward;
    block 0 as the real matrix of its action on (re, im) pairs, or as the
    complex ``R^{(x)k}`` itself."""
    c, s = math.cos(beta), math.sin(beta)
    blocks = []
    for lo in range(0, n, simulator.MIXER_BLOCK_QUBITS):
        k = min(simulator.MIXER_BLOCK_QUBITS, n - lo)
        if lo == 0:
            weights = [c ** (k - d) * s**d * (-1j) ** d for d in range(k + 1)]
            if complex_block0:
                weights = [c ** (k - d) * (-1j * s) ** d for d in range(k + 1)]
            block = np.array(weights)[_BLOCK_INDEX[k]]
            if not complex_block0:
                entries, block = block, np.empty((2 << k, 2 << k))
                block[0::2, 0::2] = block[1::2, 1::2] = entries.real
                block[0::2, 1::2], block[1::2, 0::2] = entries.imag, -entries.imag
        elif lo > simulator.MIXER_BLOCK_QUBITS and k == simulator.MIXER_BLOCK_QUBITS:
            block = blocks[-1][1]  # the full real block again
        else:
            weights = [c ** (k - d) * s**d for d in range(k + 1)]
            block = np.array(weights + [-w for w in weights[::-1]])[_REAL_BLOCK_INDEX[k]]
        blocks.append((lo, block))
    return blocks


def mix(amps, scratch, beta, n, complex_block0=False):
    """The mixer on ``n`` qubits of ``amps``, in the frame; returns whichever
    of ``amps`` and ``scratch`` holds the result."""
    width = simulator._PANEL_WIDTH
    src, dst = amps, scratch
    for lo, block in mixer_blocks(beta, n, complex_block0):
        size = block.shape[0]
        if lo == 0 and complex_block0:
            np.matmul(src.reshape(-1, size), block, out=dst.reshape(-1, size))
        elif lo == 0 and src.size <= size // 2:  # one row: no BLAS call
            np.einsum("ij,jk->ik", src.view(np.float64)[None], block,
                      out=dst.view(np.float64)[None])
        elif lo == 0:
            np.matmul(src.view(np.float64).reshape(-1, size), block,
                      out=dst.view(np.float64).reshape(-1, size))
        elif n >= simulator._PANEL_MIN_QUBITS and lo >= simulator._PANEL_MIN_LO and size >= 4:
            shape = (-1, size, (2 << lo) // width, width)
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


def plan_mix(amps, scratch, beta, n):
    """The plan's mixer, ``simulator._Mixer``, built on ``amps`` and ``scratch``."""
    return simulator._Mixer(n, amps, scratch)(beta)


def mixer_layer(amps, beta, kernel):
    """A full-register mixer layer through ``kernel(amps, scratch, beta, n)``
    (:func:`mix` or :func:`plan_mix`), in the mixer's frame."""
    n = amps.size.bit_length() - 1
    rows = amps.reshape(1 << max(0, n - simulator.MIXER_BLOCK_QUBITS), -1)
    rows *= frame(n).conj()[:, None]
    scratch = np.empty_like(amps)
    if kernel(amps, scratch, beta, n) is scratch:
        amps[...] = scratch
    rows *= frame(n)[:, None]
    return amps


def flip_symmetric_state(circuit, ws, fused=True):
    """``circuit``'s low half in the mixer's frame, prepared in ``ws``'s
    ``state`` and a half-size scratch buffer (``ws.scratch`` when it is
    one), which this kernel swaps as it goes; the result is copied into
    ``state``, where the workspace reads it.  ``fused``, the first layer
    is the workspace's one gather, written here as its formula over every
    entry; else the old order (see the module's docstring)."""
    g = ws.graph
    w = ws.state
    scratch = ws.scratch if ws.scratch.size == w.size else np.empty_like(w)
    e = frame(g.n - 1)
    rows = e.size
    flip = (-1j * e.conj() * e[::-1])[:, None]  # -i through the frame
    levels = np.arange(g.m + 1)
    halves = list(circuit)
    if fused:
        gamma = halves.pop(0)[1] if halves and halves[0][0] == 0 else 0.0
        beta = halves.pop(0)[1] if halves and halves[0][0] == 1 else 0.0
        phases = np.exp(-1j * gamma * levels)
        scale = 1.0 / math.sqrt(1 << g.n)
        pairs = np.add.outer(phases * (math.cos(beta) * scale),
                             phases * (-1j * math.sin(beta) * scale))
        w.reshape(rows, -1)[...] = pairs[ws.low_table, ws.low_table[::-1]].reshape(rows, -1)
        w.reshape(rows, -1)[...] *= e.conj()[:, None]  # (-i)**k, exact
        mixed = mix(w, scratch, beta, g.n - 1)
        if mixed is not w:
            w, scratch = mixed, w
    else:
        w.reshape(rows, -1)[...] = e.conj()[:, None] / math.sqrt(1 << g.n)
    for kind, angle in halves:
        if kind == 0:
            np.take(np.exp(-1j * angle * levels), ws.low_table, out=scratch, mode="clip")
            w *= scratch
        else:
            mixed = mix(w, scratch, angle, g.n - 1, complex_block0=not fused)
            if mixed is not w:
                w, scratch = mixed, w
            np.multiply(
                w[::-1].reshape(rows, -1), math.sin(angle) * flip, out=scratch.reshape(rows, -1)
            )
            w *= math.cos(angle)
            w += scratch
    if w is not ws.state:
        ws.state[...] = w
