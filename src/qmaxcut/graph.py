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

Random-graph generation (:func:`generate_random_graph`) is deterministic
and byte-stable across platforms and library versions, and touches no
global RNG:

1. A SplitMix64 stream is seeded with ``seed`` (taken modulo 2**64).
2. Uniform integers below a bound are drawn by rejection sampling, so
   every residue is equally likely.
3. ``m`` distinct pair indices in ``[0, n*(n-1)/2)`` are chosen by a
   partial Fisher-Yates shuffle over the virtual array of all pair
   indices, then each index is unranked to the edge ``(u, v)`` in
   lexicographic order.

Integers in text are read by :func:`parse_ints`, the qubit cap is
:func:`_check_cap`'s, the byte model :func:`peak_bytes`, and the
optimizer's and the sampler's draws come from :class:`_PCG64`.
"""

from __future__ import annotations

import math
import operator
import os
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_QUBIT_CAP = 24
# Entries per phase gather of a cost half-layer: np.take copies each chunk's
# indices into intp, at 2**14 no larger than numpy's own buffers (8,192 complex).
_GATHER_CHUNK = 1 << 14
# Complex entries of the workspace's scratch buffer at most (512 KiB): a
# larger half state (n >= 17) runs its kernels chunk by chunk through it.
_SCRATCH_ENTRIES = 1 << 15
# Rows of 16 amplitudes per run of the workspace's top rotation: a quarter
# of the scratch buffer from n=17, where its flip term lies in another.
_FLIP_ROWS = _SCRATCH_ENTRIES >> 6
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# 1 where bit v (axis 0) and bit u (axis 2) differ: an edge's cut indicator.
_DIFFER = np.array([[0, 1], [1, 0]], np.int32).reshape(2, 1, 2, 1)
# [0-9], not \d: \d also matches the digits of other scripts.
_INTEGER = re.compile("-?[0-9]+")


class EdgeListParseError(ValueError):
    """Raised on malformed edge-list input, with the 1-based ``line``
    number of the offending line when it is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _index(value, what: str) -> int:
    """``value`` as a Python ``int``, so that ``1 << n`` stays exact: the one
    integer rule for vertex counts, edge counts, endpoints, seeds, labels,
    cut values, basis indices and the integer fields of a QAOA config.
    Whatever ``operator.index`` refuses, a float or a string, raises
    ``ValueError`` naming it; nothing is truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an int, got {value!r}") from None


def _check_counts(n, m=0) -> tuple[int, int, int]:
    """``n`` and ``m`` as ints, refusing a vertex count ``n`` below 1 or an
    edge count ``m`` outside ``[0, n(n-1)/2]``; returns them and that
    bound, the number of vertex pairs."""
    n, m = _index(n, "vertex count"), _index(m, "edge count")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    total = n * (n - 1) // 2
    if not (0 <= m <= total):
        raise ValueError(f"edge count {m} outside [0, {total}] for n={n}")
    return n, m, total


def _canonical_edge(n: int, a, b, seen: set[tuple[int, int]]) -> tuple[int, int]:
    """Edge ``(a, b)`` of an ``n``-vertex graph as ``(u, v)`` with ``u < v``,
    added to ``seen``, the edges before it.  An endpoint that is not an
    int, a self-loop, an endpoint outside ``0 .. n-1`` or an edge already
    in ``seen`` raises ``ValueError``, naming the pair as written."""
    a, b = _index(a, "edge endpoint"), _index(b, "edge endpoint")
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
        n = _check_counts(self.n)[0]
        seen: set[tuple[int, int]] = set()
        canon = [_canonical_edge(n, a, b, seen) for a, b in self.edges]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

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

    @cached_property
    def edge_exponents(self) -> np.ndarray:
        """The exponents of the depth-1 closed form
        (:func:`~qmaxcut.simulator.depth_one_expectation`) as float64 rows
        ``(d_u, d_v, d_u + d_v - 2f, f)`` of the columns ``(d_u, d_v, f)``
        of :attr:`edge_stats`: a read-only ``(4, m)`` array, built once."""
        d_u, d_v, f = self.edge_stats.T
        exponents = np.array([d_u, d_v, d_u + d_v - 2 * f, f], dtype=np.float64)
        exponents.flags.writeable = False
        return exponents


@dataclass(frozen=True)
class CutAssignment:
    """A +1/-1 vertex labeling together with its (cached) cut value."""

    labels: tuple[int, ...]
    cut_value: int

    def __post_init__(self):
        labels = tuple(_index(x, "label") for x in self.labels)
        if any(x not in (1, -1) for x in labels):
            raise ValueError("labels must be +1 or -1")
        cut = _index(self.cut_value, "cut value")
        if cut < 0:
            raise ValueError(f"cut value must be non-negative, got {cut}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cut_value", cut)

    @classmethod
    def from_labels(cls, g: Graph, labels) -> "CutAssignment":
        return cls(labels=labels, cut_value=cut_value(g, labels))


def _check_labels(g: Graph, labels) -> None:
    """Refuse ``labels`` unless they hold one label per vertex of ``g``."""
    if len(labels) != g.n:
        raise ValueError(f"expected {g.n} labels, got {len(labels)}")


def cut_value(g: Graph, labels) -> int:
    """Number of edges of ``g`` crossing the partition given by ``labels``."""
    _check_labels(g, labels)
    return sum(1 for u, v in g.edges if labels[u] != labels[v])


def labels_from_index(n: int, index: int) -> tuple[int, ...]:
    """Decode basis index ``index`` into labels (bit i: 0 -> +1, 1 -> -1)."""
    n, index = _index(n, "vertex count"), _index(index, "basis index")
    if not (0 <= index < (1 << n)):
        raise ValueError(f"index {index} out of range for n={n}")
    return tuple(1 - 2 * ((index >> i) & 1) for i in range(n))


def resolve_qubit_cap() -> int:
    """The qubit cap: ``QMAXCUT_QUBIT_CAP`` if set, else :data:`DEFAULT_QUBIT_CAP`.

    The only reader of the variable; a value that is not an integer of at
    least 1 raises ``ValueError``.
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


def peak_bytes(kind: str, n: int, m: int = 0, shots: int = 0) -> int:
    """The bytes ``kind`` holds at its peak for ``n`` vertices, ``m`` edges
    and ``shots``: the package's one byte model, which the qubit cap's
    refusal quotes and the peak-memory tests and ``tools/footprint.py`` read.

    * ``"brute force"``: the ``2**n`` int32 cut table and the contiguous
      copy of its even entries that ``np.argmax`` of the strided view makes.
    * ``"full state"``: the full-register reference's state, one
      state-sized scratch buffer or temporary and the int32 cut table.
    * ``"workspace"`` (:class:`~qmaxcut.simulator.FlipSymmetricWorkspace`):
      the half state and its scratch buffer, as large as the half state
      up to ``n = 16`` and 512 KiB (``_SCRATCH_ENTRIES``) above; the low
      half of the cut table in ``np.min_scalar_type(m)``, and its ``intp``
      copy when it is one gather chunk or less (``n <= 15``); the first
      layer's index, one entry per half amplitude, ``intp`` there too and
      else the smallest unsigned type that holds ``4 (m+1)**2``; its table
      of ``4 (m+1)**2`` complex, where it does not fit in the scratch
      buffer or, up to ``n = 16``, the half state; up to ``n = 16`` the
      top rotation's flip term, one complex per row of 16 half amplitudes,
      ``_FLIP_ROWS`` at most; the sorted uniforms, 8 bytes per shot.
    * ``"run"`` (``run_qaoa``): the workspace and the largest phase of its
      extraction, not their sum: 24 bytes per shot while a draw holds its
      candidates, their mirrors and their minimum, or without shots the
      threshold scan's boolean mask, one byte per half entry.  The
      probabilities they read fill the state buffer.

    Left out: numpy's own buffer for a broadcast or a cast, ``16 *
    min(np.getbufsize(), 2**(n-1))`` bytes, and Python objects, such as
    the shots stream's words, at most 1,024 ints while it draws.
    """
    size, half, pairs = 1 << n, 1 << (n - 1), 4 * (m + 1) ** 2
    room = min(half, _SCRATCH_ENTRIES)
    index = 8 if half <= _GATHER_CHUNK else np.min_scalar_type(pairs - 1).itemsize
    table = np.min_scalar_type(m).itemsize + (8 if half <= _GATHER_CHUNK else 0) + index
    flip = 16 * min(max(1, half >> 4), _FLIP_ROWS) if half == room else 0
    held = 16 * (half + room + (pairs if pairs > room else 0)) + table * half + flip + 8 * shots
    return {"brute force": 6 * size, "full state": 36 * size, "workspace": held,
            "run": held + (24 * shots if shots else half)}[kind]


def _check_cap(n: int, kind: str, m: int = 0, shots: int = 0):
    """Refuse ``n`` above the qubit cap with :class:`ResourceLimitError`,
    naming the bytes :func:`peak_bytes` gives ``kind`` at ``n`` and at the cap.

    The cap is :func:`resolve_qubit_cap`'s, read at each check; no
    function or config takes one, and no other code decides whether an
    instance passes it.  It is checked just before each ``2**n``
    allocation, in four places: :func:`cut_values_by_basis` (brute force),
    :func:`~qmaxcut.simulator.init_uniform` and
    :func:`~qmaxcut.simulator._cut_table` (the full-register reference)
    and the :class:`~qmaxcut.simulator.FlipSymmetricWorkspace`
    constructor, so every ``run_qaoa``, at every depth.  ``evaluate_params``
    and ``optimize_params`` at depth 1 allocate no state and meet no cap.
    """
    limit = resolve_qubit_cap()
    if n > limit:
        need, at_cap = (f"{b / 2**20:.1f} MiB" if b >> 20 else f"{b:,} B"
                        for b in (peak_bytes(kind, k, m, shots) for k in (n, limit)))
        raise ResourceLimitError(
            f"n={n} exceeds qubit cap {limit}: {kind} needs {need}, {at_cap} at the cap"
        )


def cut_values_by_basis(g: Graph) -> np.ndarray:
    """Cut value of every computational-basis state, as an int32 array.

    Entry ``b`` is the cut value of the labeling encoded by basis index
    ``b``; the array has ``2**n`` entries.  An edge crosses the cut
    exactly when the endpoint bits of ``b`` differ.  Built in place, one
    broadcast add per edge on a view with bits ``u`` and ``v`` as axes.
    Only brute force reads it.  It keeps these ``O(m * 2**n)`` adds, not
    the ``O(2**n)`` build of :func:`half_cut_values_by_basis`, because
    acceptance criterion 8 asks brute force's time to grow at least
    16-fold from n=8 to n=16, and with a cheaper build fixed per-call costs
    dominate at n=8, which leaves that ratio at the edge of the bound.
    """
    _check_cap(g.n, "brute force")
    return _cut_values(g)


def _cut_values(g: Graph) -> np.ndarray:
    """:func:`cut_values_by_basis` without the cap check, for a caller
    that has checked the cap under its own model."""
    out = np.zeros(1 << g.n, dtype=np.int32)
    for u, v in g.edges:
        out.reshape(-1, 2, 1 << (v - u - 1), 2, 1 << u)[...] += _DIFFER
    return out


def half_cut_values_by_basis(g: Graph, scratch: np.ndarray) -> np.ndarray:
    """The low half of :func:`cut_values_by_basis`, in ``scratch``'s dtype.

    Entries ``0 .. 2**(n-1) - 1``, the basis states with bit ``n - 1``
    clear, built vertex by vertex in ``O(2**n)`` exact integer steps,
    whatever the edge count.  After vertices ``0 .. v-1``, ``out[:2**v]``
    is the cut table of the edges among them.  Vertex ``v`` with lower
    neighbours ``M`` (its :attr:`Graph.neighbours` mask below bit ``v``)
    adds ``S[y] = popcount(y & M)`` to ``out[:2**v]`` (``v`` labeled
    ``+1``, an edge cut where ``y`` is 1) and writes ``out[2**v:2**(v+1)]
    = out[:2**v] + popcount(M) - S`` (``v`` labeled ``-1``); the top
    vertex, clear throughout the half, only adds its ``S``.  ``S`` is
    built by doubling too, ``S[j:2j] = S[:j] + (1 if M & j else 0)``, into
    ``scratch``, an integer array of at least ``2**(n-1)`` entries that is
    overwritten; nothing but the table is allocated.  The dtype must hold
    ``m``, as ``np.min_scalar_type(g.m)`` does: a difference may wrap
    around below zero on the way, but integer arithmetic is exact modulo
    ``2**bits`` and every final entry is a cut value in ``[0, m]``.
    """
    if np.iinfo(scratch.dtype).max < g.m:
        raise ValueError(f"{scratch.dtype} cannot hold the cut values of {g.m} edges")
    half = 1 << (g.n - 1)
    out = np.zeros(half, dtype=scratch.dtype)
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


def _hasher(const: int, mult: int):
    """SeedSequence's hash of one uint32 word, its constant advancing per call."""
    def hash_word(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hash_word


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


class _PCG64:
    """numpy's ``default_rng(SeedSequence([seed mod 2**64, *tags]))``
    stream, bit for bit, without ``numpy.random``: :meth:`random` draws
    what numpy's ``Generator.random`` draws, and a draw scaled by ``hi``
    is numpy's ``uniform(0, hi)``.  The seed is taken modulo 2**64, as
    :class:`_SplitMix64` takes it; the non-negative int ``tags`` name the
    stream's purpose.

    Each entropy int is read as little-endian uint32 words (0 as one
    word).  SeedSequence hashes the words into a pool of 4 and expands the
    pool into the 128-bit ``state`` and odd ``inc``; each draw steps the
    LCG, ``state = state * mult + inc``, and outputs the XSL-RR
    permutation of the new state, whose top 53 bits make a double in
    ``[0, 1)``.
    """

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int, *tags: int):
        words = [value >> shift & _MASK32 for value in (seed & _MASK64, *tags)
                 for shift in range(0, max(value.bit_length(), 1), 32)]
        hash_word = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hash_word(w) for w in (words + [0] * 4)[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hash_word(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hash_word(word))
        hash_word = _hasher(0x8B51F9DD, 0x58F38DED)
        state = [hash_word(pool[i % 4]) for i in range(8)]  # 4 uint64s, low word first
        s0, s1, s2, s3 = (lo | hi << 32 for lo, hi in zip(state[::2], state[1::2]))
        # Seeding steps from state 0, adds the initial state, steps again.
        self.inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self.state = ((self.inc + (s0 << 64 | s1)) * self._MULT + self.inc) & _MASK128

    def _words(self, k: int) -> list[int]:
        """The next ``k`` outputs, each cut to its top 53 bits."""
        s, inc, mult, words = self.state, self.inc, self._MULT, []
        for _ in range(k):
            s = s * mult + inc & _MASK128
            x = s >> 64 ^ s & _MASK64
            words.append(((x | x << 64) >> (s >> 122) & _MASK64) >> 11)
        self.state = s
        return words

    def random(self, k: int) -> np.ndarray:
        # The whole output first, so a draw the host cannot hold fails at
        # once, then filled 1,024 words at a time, so their Python ints stay few.
        out = np.empty(k)
        for start in range(0, k, 1 << 10):
            chunk = out[start : start + (1 << 10)]
            chunk[:] = self._words(chunk.size)
        out *= 2.0**-53
        return out


def _unrank_pair(n: int, k: int) -> tuple[int, int]:
    # Lexicographic rank k over pairs (0,1),(0,2),...,(n-2,n-1).  Counted
    # from the last pair its rank is j, and the r+1 pairs of row u = n-2-r
    # take ranks r(r+1)/2 onward, so r is the integer triangular root of j,
    # which isqrt gives exactly.
    j = n * (n - 1) // 2 - 1 - k
    r = (math.isqrt(8 * j + 1) - 1) // 2
    return n - 2 - r, n - 1 - (j - r * (r + 1) // 2)


def generate_random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with exactly ``m`` edges.

    Edges are drawn without replacement from the ``n*(n-1)/2`` possible
    pairs.  Identical ``(n, m, seed)`` always produce an identical graph
    (see the module docstring for the fixed algorithm).  Connectivity is
    not guaranteed.
    """
    n, m, total = _check_counts(n, m)
    rng = _SplitMix64(_index(seed, "seed"))
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

    Line 1 is ``n m``; exactly ``m`` lines ``u v`` follow, each two
    integers (:func:`parse_ints`) and one space, then the trailing newline
    ends the file: no comments, blank lines or padding.  Malformed input
    raises :class:`EdgeListParseError` naming the 1-based line number;
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
    """Serialize ``g`` to the canonical edge-list format (LF endings), which
    :func:`parse_edge_list` reads back: edges sorted with ``u < v``."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
