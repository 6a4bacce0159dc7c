"""Classical Max-Cut baselines: exhaustive search and a greedy heuristic."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import CutAssignment, Graph, cut_values_by_basis, labels_from_index


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one classical solver run, with its own wall-clock time."""

    assignment: CutAssignment
    elapsed: float

    def __post_init__(self):
        if self.elapsed < 0:
            raise ValueError("elapsed time cannot be negative")


def brute_force_maxcut(g: Graph) -> SolveResult:
    """Exact maximum cut by exhaustive enumeration.

    The argmax of :func:`~qmaxcut.graph.cut_values_by_basis` over the
    even basis indices, i.e. with vertex 0 fixed to ``+1`` (the global
    sign flip maps the other half onto these, so nothing is lost); ties
    resolve to the smallest such index.  ``O(2**n * m)`` time; its bytes
    are :func:`~qmaxcut.graph.peak_bytes`' ``"brute force"``.
    """
    t0 = time.perf_counter()
    table = cut_values_by_basis(g)
    best = 2 * int(np.argmax(table[::2]))
    assignment = CutAssignment(
        labels=labels_from_index(g.n, best), cut_value=int(table[best])
    )
    return SolveResult(assignment=assignment, elapsed=time.perf_counter() - t0)


def greedy_maxcut(g: Graph) -> SolveResult:
    """Greedy heuristic: place each vertex opposite most of its neighbors.

    Vertices are visited in index order; vertex 0 gets ``+1``.  Each
    subsequent vertex counts its already-labeled neighbors on each side
    and takes the side with fewer of them (ties go to ``+1``), cutting
    at least half of the edges considered at every step.  The final cut
    therefore has value at least ``ceil(m / 2)``.
    """
    t0 = time.perf_counter()
    minus = 0  # bit mask of the vertices labeled -1
    for v, nb in enumerate(g.neighbours):
        placed = nb & ((1 << v) - 1)
        on_minus = (placed & minus).bit_count()
        if 2 * on_minus < placed.bit_count():
            minus |= 1 << v
    assignment = CutAssignment.from_labels(g, labels_from_index(g.n, minus))
    return SolveResult(assignment=assignment, elapsed=time.perf_counter() - t0)
