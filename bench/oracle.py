"""Independent Max-Cut oracle for checking the program's outputs.

Nothing here imports ``qmaxcut``.  The optimum comes from the quadratic
form of the spin vector rather than from the program's bit-xor cut
table: with spins ``s`` in {+1, -1}, an edge ``(u, v)`` is cut exactly
when ``s_u * s_v == -1``, so

    cut(s) = (m - sum_{(u, v) in E} s_u * s_v) / 2.

All ``2**n`` spin vectors are enumerated in chunks as one matrix
product per chunk of 1024 cuts, so at n=20 a chunk's temporaries take
about 160 KiB.

Run as a script, it reads ``[[n, edges], ...]`` as JSON on standard
input and prints the optima as a JSON list; the benchmark runs it that
way, in a child process, so the oracle's memory stays out of the peak
RSS it reports.
"""

from __future__ import annotations

import json
import sys

import numpy as np

_CHUNK_BITS = 10


def optimum_cut(n: int, edges) -> int:
    """Maximum cut value of the graph on ``n`` vertices with ``edges``."""
    edges = [(int(u), int(v)) for u, v in edges]
    if not edges:
        return 0
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    chunk = 1 << min(n, _CHUNK_BITS)
    shifts = np.arange(n, dtype=np.int64)
    best = 0.0
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, start + chunk, dtype=np.int64)
        spins = 1.0 - 2.0 * ((idx[:, None] >> shifts) & 1)
        # Each edge appears twice in the symmetric adjacency matrix.
        agreement = np.einsum("ij,ij->i", spins @ adj, spins) / 2.0
        best = max(best, float((len(edges) - agreement.min()) / 2.0))
    return int(round(best))


def cut_of_labels(edges, labels) -> int:
    """Cut value of a +1/-1 labelling, recomputed edge by edge."""
    return sum(1 for u, v in edges if labels[u] != labels[v])


if __name__ == "__main__":
    json.dump([optimum_cut(n, edges) for n, edges in json.load(sys.stdin)], sys.stdout)
