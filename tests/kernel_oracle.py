"""The half-register kernel as it was before the workspace held a plan:
every call builds its mixer blocks, views and phase table afresh.

Kept only as a bit-for-bit oracle for :mod:`qmaxcut.simulator`, whose
workspace must prepare the same bits.  It reads the workspace's buffers,
start vector, flip term and cut table, and the simulator's block-size
and row-panel constants (which tests may patch), and nothing of its plan.
"""

import math

import numpy as np

from qmaxcut import simulator

# Per block size k, the index of a block's entry (i, j) into its weights
# [w_0..w_k] and their negations [-w_k..-w_0].
_BLOCK_INDEX = tuple(
    np.array([[bin(i ^ j).count("1") for j in range(1 << k)] for i in range(1 << k)])
    for k in range(simulator.MIXER_BLOCK_QUBITS + 1)
)
_REAL_BLOCK_INDEX = tuple(
    np.where([[bin(i & ~j).count("1") % 2 for j in range(len(d))] for i in range(len(d))], ~d, d)
    for d in _BLOCK_INDEX
)


def mixer_blocks(beta, n):
    """``(lo, block)`` for each block of the ``n``-qubit mixer, bit 0 upward."""
    c, s = math.cos(beta), math.sin(beta)
    blocks = []
    for lo in range(0, n, simulator.MIXER_BLOCK_QUBITS):
        k = min(simulator.MIXER_BLOCK_QUBITS, n - lo)
        if lo == 0:
            weights = [c ** (k - d) * (-1j * s) ** d for d in range(k + 1)]
            block = np.array(weights)[_BLOCK_INDEX[k]]
        elif lo > simulator.MIXER_BLOCK_QUBITS and k == simulator.MIXER_BLOCK_QUBITS:
            block = blocks[-1][1]  # the full real block again
        else:
            weights = [c ** (k - d) * s**d for d in range(k + 1)]
            block = np.array(weights + [-w for w in weights[::-1]])[_REAL_BLOCK_INDEX[k]]
        blocks.append((lo, block))
    return blocks


def mix(amps, scratch, beta, n):
    """The mixer on ``n`` qubits of ``amps``, in the frame; returns whichever
    of ``amps`` and ``scratch`` holds the result."""
    width = simulator._PANEL_WIDTH
    src, dst = amps, scratch
    for lo, block in mixer_blocks(beta, n):
        size = block.shape[0]
        if lo == 0:
            np.matmul(src.reshape(-1, size), block, out=dst.reshape(-1, size))
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


def flip_symmetric_state(circuit, ws):
    """``circuit``'s low half in the mixer's frame, prepared in ``ws``'s
    ``state`` and ``scratch``; returns ``(w, spare)``."""
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
            mixed = mix(w, scratch, angle, g.n - 1)
            if mixed is not w:
                w, scratch = mixed, w
            np.multiply(
                w[::-1].reshape(rows, -1), math.sin(angle) * ws.flip, out=scratch.reshape(rows, -1)
            )
            w *= math.cos(angle)
            w += scratch
    return w, scratch
