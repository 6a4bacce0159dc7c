"""Reference kernels that measure how fast the machine is running right now.

The benchmark runs on shared hosts whose speed drifts a lot: the same
brute-force operation took 0.50 s in one run and 0.90 s in another a
minute later, and a fixed loop's 15-second medians spread by about 20%
(interquartile range over median).  Timing a kernel between operations
(about 5% of the run) gives a yardstick taken under the same
conditions; dividing by its median duration over the run cancels most
of the drift, which is what the ``*_rel`` metrics report.  The raw
seconds are reported as well.

Contention slows interpreter-bound and memory-bound code by different
amounts, so each workload uses the kernel closest to its own work:

* ``python``: building small tuples and summing generators, as the
  classical solvers do;
* ``numpy``: a mixer-style pass of strided 2x2 complex updates over a
  16-qubit (1 MiB) array, for every workload that simulates.

In two sets of ten seeds, the ``numpy`` kernel left spreads of 0.19 and
0.07 in ``wall_rel`` on ``classical``, against 0.12 and 0.03 for
``python``; on ``qaoa-n20`` the ``python`` kernel left 0.38, against
0.07 for ``numpy``.  On ``bench-cli`` the two did about equally well.
The ``python`` kernel also allocates nothing, so it cannot set the peak
RSS of ``classical``, whose solvers allocate almost nothing either.

The kernels call nothing in ``qmaxcut``, so no change to the program can
move them.
"""

from __future__ import annotations

import math
import time

import numpy as np

_C, _S = math.cos(0.3), -1j * math.sin(0.3)


def _python(rounds: int) -> int:
    total = 0
    for k in range(rounds):
        labels = tuple(1 - 2 * ((k >> i) & 1) for i in range(12))
        total += sum(1 for u in range(11) if labels[u] != labels[u + 1])
    return total


# The numpy kernel's amplitudes and two half-size scratch arrays.
_QUBITS = 16
_BUFFERS = tuple(np.empty(1 << k, dtype=np.complex128)
                 for k in (_QUBITS, _QUBITS - 1, _QUBITS - 1))


def _numpy():
    amps, new_lo, tmp = _BUFFERS
    amps.fill(2.0 ** (-_QUBITS / 2))
    for q in range(_QUBITS):
        block = amps.reshape(-1, 2, 1 << q)
        lo, hi = block[:, 0, :], block[:, 1, :]
        a, b = new_lo.reshape(lo.shape), tmp.reshape(lo.shape)
        np.multiply(lo, _C, out=a)
        np.multiply(hi, _S, out=b)
        a += b
        hi *= _C
        np.multiply(lo, _S, out=b)
        hi += b
        lo[...] = a


KERNELS = {
    "python": lambda: _python(2400),
    "numpy": _numpy,
}


def warm_up():
    """Run each kernel once, before anything is measured.

    The kernels allocate nothing after this: their buffers and the
    interpreter's caches stay resident, so they add a constant to the
    peak RSS instead of setting it in place of the program.
    """
    for kernel in KERNELS.values():
        kernel()


def reference_times(kind: str, seconds: float) -> list[float]:
    """Durations of back-to-back runs of one kernel, for about ``seconds``."""
    kernel = KERNELS[kind]
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times
