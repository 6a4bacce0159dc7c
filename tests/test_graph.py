import ast
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import TRIANGLE, spy, traced_peak
from qmaxcut import graph
from qmaxcut import (
    CutAssignment,
    EdgeListParseError,
    Graph,
    cut_value,
    cut_values_by_basis,
    generate_random_graph,
    labels_from_index,
    parse_edge_list,
    write_edge_list,
)


def random_graphs():
    """Strategy producing small graphs via the deterministic generator."""
    return st.builds(
        generate_random_graph,
        st.integers(min_value=1, max_value=9),
        st.just(0),
        st.integers(min_value=0, max_value=2**63),
    ).flatmap(
        lambda g: st.builds(
            generate_random_graph,
            st.just(g.n),
            st.integers(min_value=0, max_value=g.n * (g.n - 1) // 2),
            st.integers(min_value=0, max_value=2**63),
        )
    )


def labelings(n):
    return st.tuples(*([st.sampled_from((1, -1))] * n))


class TestGraphConstruction:
    def test_canonicalizes_edge_order_and_orientation(self):
        g = Graph(4, ((3, 1), (0, 2), (2, 1)))
        assert g.edges == ((0, 2), (1, 2), (1, 3))
        assert g.m == 3

    @pytest.mark.parametrize("pairs, message", [
        (((1, 1),), "self-loop at vertex 1"),
        (((3, 0),), "edge (3, 0) out of range for n=3"),
        (((0, 1), (1, 0)), "duplicate edge (1, 0)"),
        (((0, 3),), "edge (0, 3) out of range for n=3"),
    ])
    def test_graph_and_parser_share_the_edge_rules(self, pairs, message):
        # Both name the pair as written; the parser adds its line number.
        with pytest.raises(ValueError) as refused:
            Graph(3, pairs)
        assert str(refused.value) == message
        text = f"3 {len(pairs)}\n" + "".join(f"{a} {b}\n" for a, b in pairs)
        with pytest.raises(EdgeListParseError) as parse_error:
            parse_edge_list(text)
        assert str(parse_error.value) == f"line {len(pairs) + 1}: {message}"

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    @pytest.mark.parametrize("build, message", [
        (lambda: Graph(4, (("0", "3"), (1.9, 2.2))), "edge endpoint must be an int, got '0'"),
        (lambda: Graph(4, ((1.9, 2.2),)), "edge endpoint must be an int, got 1.9"),
        (lambda: Graph(4.0), "vertex count must be an int, got 4.0"),
        (lambda: generate_random_graph(6.0, 5, 0), "vertex count must be an int, got 6.0"),
        (lambda: generate_random_graph(6, 2.5, 0), "edge count must be an int, got 2.5"),
        (lambda: generate_random_graph(6, 5, 1.5), "seed must be an int, got 1.5"),
        (lambda: CutAssignment((1.0, True, -1), 1), "label must be an int, got 1.0"),
        (lambda: CutAssignment((1, True, -1), 1.5), "cut value must be an int, got 1.5"),
        (lambda: labels_from_index(3, 2.0), "basis index must be an int, got 2.0"),
        (lambda: labels_from_index(3.0, 2), "vertex count must be an int, got 3.0"),
    ], ids=["string-endpoint", "float-endpoint", "float-n", "generated-float-n", "generated-float-m",
            "float-seed", "float-label", "float-cut", "float-basis-index", "float-basis-n"])
    def test_non_integers_are_refused_not_truncated(self, build, message):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message

    def test_numpy_integers_are_read_as_python_ints(self):
        g = Graph(np.int64(4), ((np.int64(0), np.uint8(3)),))
        assert g == Graph(4, ((0, 3),))
        assert type(g.n) is int and {type(x) for edge in g.edges for x in edge} == {int}
        assert generate_random_graph(np.int64(6), np.int64(5), np.int64(3)) == \
            generate_random_graph(6, 5, 3)

    def test_neighbours_set_one_bit_per_edge_end(self):
        g = Graph(4, ((0, 1), (0, 2), (1, 2)))
        assert g.neighbours == (0b110, 0b101, 0b011, 0)

    @given(random_graphs())
    def test_neighbours_are_symmetric_masks_of_the_edges(self, g):
        nb = g.neighbours
        for u in range(g.n):
            for v in range(g.n):
                assert (nb[u] >> v & 1) == (nb[v] >> u & 1) == ((min(u, v), max(u, v)) in g.edges)

    def test_neighbours_cache_leaves_equality_and_hash_alone(self):
        a, b = generate_random_graph(7, 10, 3), generate_random_graph(7, 10, 3)
        before = hash(a)
        assert a.neighbours is a.neighbours
        assert a.edge_stats is a.edge_stats
        assert a == b and hash(a) == before == hash(b)

    @pytest.mark.parametrize(
        "g, rows",
        [
            (TRIANGLE, [(1, 1, 1)] * 3),
            (Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4))), [(3, 0, 0)] * 4),
            (Graph(4, tuple(itertools.combinations(range(4), 2))), [(2, 2, 2)] * 6),
            (Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3))), [(1, 1, 1), (1, 2, 1), (1, 2, 1), (2, 0, 0)]),
            (Graph(3, ()), []),
        ],
        ids=["triangle", "star", "k4", "paw", "edgeless"],
    )
    def test_edge_stats_count_degrees_and_triangles(self, g, rows):
        stats = g.edge_stats
        assert stats.shape == (g.m, 3)
        assert [tuple(r) for r in stats.tolist()] == rows
        assert not stats.flags.writeable


class TestCutValue:
    def test_triangle_example(self):
        assert cut_value(TRIANGLE, (1, -1, -1)) == 2

    def test_all_same_side_cuts_nothing(self):
        assert cut_value(TRIANGLE, (1, 1, 1)) == 0

    def test_four_cycle_alternating_cuts_everything(self):
        c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert cut_value(c4, (1, -1, 1, -1)) == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cut_value(TRIANGLE, (1, -1))

    @given(random_graphs().flatmap(lambda g: st.tuples(st.just(g), labelings(g.n))))
    def test_flip_symmetry_and_range(self, case):
        g, labels = case
        v = cut_value(g, labels)
        assert v == cut_value(g, tuple(-x for x in labels))
        assert 0 <= v <= g.m

    @given(random_graphs().flatmap(lambda g: st.tuples(st.just(g), labelings(g.n))))
    def test_product_formula_agrees_with_crossing_count(self, case):
        g, labels = case
        via_products = sum(0.5 * (1 - labels[u] * labels[v]) for u, v in g.edges)
        assert cut_value(g, labels) == via_products


class TestBasisEncoding:
    def test_bit_zero_is_plus_one(self):
        assert labels_from_index(3, 0b000) == (1, 1, 1)
        assert labels_from_index(3, 0b101) == (-1, 1, -1)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            labels_from_index(2, 4)

    @given(random_graphs())
    @settings(max_examples=30)
    def test_table_matches_per_index_evaluation(self, g):
        table = cut_values_by_basis(g)
        assert table.dtype == np.int32
        assert table.shape == (1 << g.n,)
        for b in range(1 << g.n):
            assert table[b] == cut_value(g, labels_from_index(g.n, b))

    def test_table_is_built_without_full_size_temporaries(self):
        # n=18: the int32 output is 1 MiB; building it must allocate no
        # further 2**n arrays, such as an index array or per-edge masks.
        g = generate_random_graph(18, 40, 0)
        peak, table = traced_peak(cut_values_by_basis, g)
        assert peak <= 1.25 * table.nbytes, f"peak {peak / 2**20:.2f} MiB"


class TestCutAssignment:
    def test_from_labels_counts(self):
        a = CutAssignment.from_labels(TRIANGLE, (1, -1, 1))
        assert a.cut_value == 2

    def test_rejects_non_unit_labels(self):
        with pytest.raises(ValueError):
            CutAssignment(labels=(1, 0, -1), cut_value=0)

    def test_rejects_negative_cut(self):
        with pytest.raises(ValueError, match="non-negative"):
            CutAssignment(labels=(1, -1), cut_value=-1)

    def test_labels_and_cut_are_read_as_python_ints(self):
        a = CutAssignment((np.int8(1), True, np.int64(-1)), np.int64(2))
        assert a == CutAssignment((1, 1, -1), 2)
        assert {type(x) for x in a.labels} == {int} and type(a.cut_value) is int


class TestGeneration:
    def test_identical_seed_identical_graph(self):
        assert generate_random_graph(6, 9, 1) == generate_random_graph(6, 9, 1)

    def test_different_seeds_usually_differ(self):
        graphs = {generate_random_graph(8, 10, s).edges for s in range(20)}
        assert len(graphs) > 15

    def test_full_m_forces_complete_graph(self):
        k4 = generate_random_graph(4, 6, 123)
        assert k4.edges == tuple(itertools.combinations(range(4), 2))

    def test_edgeless(self):
        assert generate_random_graph(5, 0, 7).edges == ()

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            generate_random_graph(3, 4, 0)

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_no_vertices(self, n):
        with pytest.raises(ValueError, match="vertex count must be positive"):
            generate_random_graph(n, 0, 0)

    def test_known_value_frozen(self):
        # Pinned output guards the documented generation algorithm against
        # accidental change; regenerating with the same recipe must stay
        # byte-stable across platforms and releases.
        assert generate_random_graph(5, 4, 7).edges == ((0, 1), (1, 2), (1, 4), (2, 3))

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=2**64),
    )
    @settings(max_examples=60)
    def test_exact_edge_count_and_simplicity(self, n, m_raw, seed):
        m = min(m_raw, n * (n - 1) // 2)
        g = generate_random_graph(n, m, seed)
        assert g.n == n and g.m == m
        assert len(set(g.edges)) == m
        assert all(0 <= u < v < n for u, v in g.edges)


def _unrank_pair_by_rows(n, k):
    """``graph._unrank_pair`` as it was: a walk down the rows, the reference."""
    u = 0
    row = n - 1
    while k >= row:
        k -= row
        u += 1
        row -= 1
    return u, u + 1 + k


class TestUnrankPair:
    def test_matches_the_row_walk_on_every_rank(self):
        for n in range(2, 65):
            for k in range(n * (n - 1) // 2):
                assert graph._unrank_pair(n, k) == _unrank_pair_by_rows(n, k), (n, k)

    @pytest.mark.parametrize("n", [10**5, 10**6 + 7])
    def test_matches_the_row_walk_at_row_boundaries(self, n):
        # Row u's first rank is u(2n-u-1)/2; its last is one before the next row's.
        for u in (0, 1, n // 2, n - 2):
            for k in (u * (2 * n - u - 1) // 2, (u + 1) * (2 * n - u - 2) // 2 - 1):
                assert graph._unrank_pair(n, k) == _unrank_pair_by_rows(n, k), (u, k)


def _entropy_lists():
    """1,024 entropy lists in the shapes the program seeds its streams
    with: ``[s, 1, p]`` for the start angles at depths 1 to 3 and ``[s,
    2]`` for the shots, over six edge-case seeds and 250 random 8- to 64-bit
    ones."""
    rng = random.Random(33)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds += [rng.getrandbits(rng.randint(8, 64)) for _ in range(250)]
    return [[s, *tail] for s in seeds for tail in ([1, 1], [1, 2], [1, 3], [2])]


class TestPCG64:
    """The in-package stream against numpy's ``default_rng(SeedSequence([seed mod
    2**64, *tags]))``."""

    def test_draws_are_numpy_default_rng_draws(self):
        lists = _entropy_lists()
        assert len(lists) >= 1000
        for i, entropy in enumerate(lists):
            ours = graph._PCG64(*entropy)
            want = np.random.default_rng(np.random.SeedSequence(entropy))
            p = entropy[2] if len(entropy) == 3 else 4
            for hi in (2 * math.pi, math.pi):
                got = ours.random(p) * hi
                assert got.tobytes() == want.uniform(0.0, hi, p).tobytes(), entropy
            k = i % 97
            assert ours.random(k).tobytes() == want.random(k).tobytes(), entropy

    def test_state_is_numpy_pcg64_state_across_chunks(self):
        ours = graph._PCG64(2**64 - 1, 2)
        want = np.random.default_rng(np.random.SeedSequence([2**64 - 1, 2]))
        assert ours.random(70_000).tobytes() == want.random(70_000).tobytes()
        assert (ours.state, ours.inc) == tuple(want.bit_generator.state["state"].values())

    def test_long_entropy_and_empty_draws(self):
        # Entropy past the 4-word pool is mixed in after it: here 11 words.
        entropy = [7, 2**200 + 12345, 0, 2**40]
        want = np.random.default_rng(np.random.SeedSequence(entropy)).random(5)
        assert graph._PCG64(*entropy).random(5).tobytes() == want.tobytes()
        assert graph._PCG64(3).random(0).shape == (0,)

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64, 2**70 + 3])
    @pytest.mark.parametrize("tags", [(), (2,), (1, 3)])
    def test_the_seed_is_taken_modulo_two_to_the_64(self, seed, tags):
        want = np.random.default_rng(np.random.SeedSequence([seed % 2**64, *tags]))
        assert graph._PCG64(seed, *tags).random(9).tobytes() == want.random(9).tobytes()


def _calls(node, scope=(), params=frozenset()):
    """``(function, call, parameters)`` for every call under ``node``: the
    qualified name of the function around it and the names of the
    parameters of that function and of those around it."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = (*scope, node.name)
    if isinstance(node, ast.FunctionDef):
        params = params | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    if isinstance(node, ast.Call):
        yield ".".join(scope), node, params
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, scope, params)


def test_one_owner_per_stream():
    # A seed becomes a stream in two places, one per purpose: the optimizer's
    # start angles and the sampler's shots.  No function draws from a
    # stream that its caller passed in.  The shots stream's uniforms are
    # drawn by a sampling workspace as it is built, and by the full-register
    # oracle's sampler: no cut or draw takes a stream of its own.
    built, drawn, shots = set(), set(), set()
    for path in Path(graph.__file__).parent.glob("*.py"):
        for function, call, params in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            func = call.func
            if getattr(func, "id", None) == "_PCG64":
                built.add((path.stem, function))
            if getattr(func, "id", None) == "_uniforms":
                shots.add((path.stem, function))
            on = getattr(getattr(func, "value", None), "id", None)
            if getattr(func, "attr", None) == "random" and on in params:
                drawn.add((path.stem, function))
    assert built == {("qaoa", "optimize_params"), ("simulator", "_uniforms")}
    assert shots == {("simulator", "FlipSymmetricWorkspace.__init__"),
                     ("simulator", "sample_bitstrings")}
    assert drawn == set()


class TestEdgeListFormat:
    def test_parse_triangle(self):
        assert parse_edge_list("3 3\n0 1\n0 2\n1 2\n") == TRIANGLE

    def test_parse_canonicalizes(self):
        assert parse_edge_list("2 1\n1 0\n").edges == ((0, 1),)

    def test_write_triangle(self):
        assert write_edge_list(TRIANGLE) == "3 3\n0 1\n0 2\n1 2\n"

    def test_write_edgeless(self):
        assert write_edge_list(Graph(2, ())) == "2 0\n"

    @given(random_graphs())
    def test_round_trip(self, g):
        assert parse_edge_list(write_edge_list(g)) == g

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "header"),
            ("3 3\n0 1\n0 2\n1 2", "trailing newline"),
            ("2 1\n0 0\n", "line 2: self-loop"),
            ("3 2\n0 1\n0 1\n", "line 3: duplicate"),
            ("2 1\n0 5\n", "line 2: edge (0, 5) out of range"),
            ("2 1\nx y\n", "line 2"),
            ("2  1\n0 1\n", "line 1"),
            (" 2 1\n0 1\n", "line 1"),
            ("2 1\n\n0 1\n", "line 3"),
            ("# comment\n2 1\n0 1\n", "line 1"),
            ("2 1\n0 1\nextra\n", "extra"),
            ("3 2\n0 1\n", "only 1"),
            ("0 0\n", "positive"),
            ("2 9\n", "edge count 9"),
            # The first bad line is named, whichever rule it breaks.
            ("3 2\n0 0\nx y\n", "line 2: self-loop at vertex 0"),
            ("3 2\nx y\n0 0\n", "line 2: expected two integers separated by one space"),
        ],
    )
    def test_malformed_inputs_name_the_problem(self, text, fragment):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(text)
        assert fragment in str(err.value)

    def test_each_parsed_edge_is_checked_once(self, monkeypatch):
        calls = spy(monkeypatch, graph, "_canonical_edge")
        g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert len(calls) == g.m
