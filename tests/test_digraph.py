import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idomlib.digraph
from idomlib import (
    Digraph,
    ParseError,
    cartesian_product,
    format_arc_list,
    gen_cycle,
    gen_path,
    gen_paw,
    gen_wheel,
    induced_subgraph,
    is_dominating,
    is_ids,
    is_independent,
    out_closed_removal,
    parse_digraph,
    random_digraph,
    solve_auto,
)
from idomlib.digraph import _lines

from helpers import (
    digraphs_with_subset,
    dominating_double_loop,
    ids_report_by_arc_scan,
    independent_double_loop,
    messy_arc_documents,
    parse_by_lines,
    without_arc_scans,
)


def parse_outcome(parse, text):
    """(graph, duplicates) of a parse, or ("error", message) of its ParseError."""
    try:
        graph, duplicates = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return graph, duplicates


class TestDigraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            Digraph(-1)

    def test_never_equals_a_non_digraph(self):
        assert not gen_path(2) == "x"
        assert gen_path(2) != "x"

    def test_collapses_duplicates(self):
        g = Digraph(2, [(0, 1), (0, 1)])
        assert g.m == 1

    def test_adjacency_mirrors_arcs(self):
        g = Digraph(3, [(2, 0), (0, 1), (2, 1)])
        assert g.out_adj == ((1,), (), (0, 1))
        assert g.in_adj == ((2,), (0, 2), ())
        assert g.out_masks == (0b010, 0, 0b011)

    def test_equality_ignores_arc_insertion_order(self):
        assert Digraph(3, [(0, 1), (1, 2)]) == Digraph(3, [(1, 2), (0, 1)])


class TestParse:
    def test_cycle_document(self):
        parsed = parse_digraph("3 3\n0 1\n1 2\n2 0\n")
        assert parsed.graph == gen_cycle(3)
        assert parsed.duplicate_arcs == 0

    def test_duplicate_arc_counted(self):
        parsed = parse_digraph("2 2\n0 1\n0 1\n")
        assert parsed.graph.m == 1
        assert parsed.duplicate_arcs == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_digraph("2 1\n0 0\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_digraph("2 1\n0 5\n")

    def test_malformed_header_rejected(self):
        with pytest.raises(ParseError):
            parse_digraph("3\n0 1\n")
        with pytest.raises(ParseError):
            parse_digraph("a b\n")

    @pytest.mark.parametrize(
        "text", ["1_0 0\n", "+2 0\n", "2 1\n+1 0\n", "3 1\n0 1_0\n", "2 1\n0 \u0662\n"]
    )
    def test_non_decimal_tokens_rejected(self, text):
        # int() alone reads these as 10, 2, 1, 10 and 2
        with pytest.raises(ParseError, match="integers"):
            parse_digraph(text)

    def test_leading_minus_keeps_its_messages(self):
        with pytest.raises(ParseError, match="counts must be non-negative"):
            parse_digraph("-1 0\n")
        with pytest.raises(ParseError, match=r"arc \(-1, 0\) out of range"):
            parse_digraph("2 1\n-1 0\n")

    def test_wrong_arc_count_rejected(self):
        with pytest.raises(ParseError, match="expected 2 arc lines"):
            parse_digraph("3 2\n0 1\n")

    def test_comments_and_blanks_tolerated(self):
        parsed = parse_digraph("# a triangle\n\n3 3\n0 1\n# inner\n1 2\n2 0\n")
        assert parsed.graph == gen_cycle(3)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a self-loop that is also out of range: the self-loop is named
            ("5 1\n7 7\n", "line 2: self-loop 7 7"),
            ("2 1\n-1 -1\n", "line 2: self-loop -1 -1"),
            # a wrong arc count beats every arc-line error, before or after it
            ("3 2\n0 x\n", "expected 2 arc lines, found 1"),
            ("3 1\n0 x\n1 2\n", "expected 1 arc lines, found 2"),
            ("3 2\n0 5\n0 0\n1 2\n", "expected 2 arc lines, found 3"),
            ("3 3\n0 1 2\n", "expected 3 arc lines, found 1"),
            # the first failing line beats a later one
            ("3 2\n0 5\n1 1\n", "line 2: arc (0, 5) out of range for n=3"),
            ("3 2\n0 a\n0 5\n", "line 2: arc endpoints must be integers"),
            ("3 2\n0 5\nx\n", "line 2: arc (0, 5) out of range for n=3"),
            ("3 2\n1 1\n0 9\n", "line 2: self-loop 1 1"),
            # line numbers count comments, blank lines and every separator
            ("# c\n\n3 2\n\n0 1\n# x\n1 1\n", "line 7: self-loop 1 1"),
            ("# c\n\n3\n", "line 3: header must be 'n m'"),
            ("3 1\r\n\r\n0 3", "line 3: arc (0, 3) out of range for n=3"),
            ("\x0c# c\x1c3 1\u20280 1 1\n", "line 4: arc line must be 'u v'"),
            ("# only\n\n", "missing 'n m' header line"),
        ],
    )
    def test_exact_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_digraph(text)
        assert str(info.value) == message

    @settings(max_examples=400, deadline=None)
    @given(messy_arc_documents())
    def test_agrees_with_line_by_line_parser(self, text):
        assert parse_outcome(parse_digraph, text) == parse_outcome(parse_by_lines, text)

    @settings(max_examples=400, deadline=None)
    @given(messy_arc_documents(), st.integers(0, 16))
    def test_short_slices_agree_with_line_by_line_parser(self, text, chunk):
        # slices of a few characters end beside every kind of separator
        saved, idomlib.digraph._LINE_CHUNK = idomlib.digraph._LINE_CHUNK, chunk
        try:
            assert list(_lines(text)) == text.splitlines()
            assert parse_outcome(parse_digraph, text) == parse_outcome(parse_by_lines, text)
        finally:
            idomlib.digraph._LINE_CHUNK = saved

    def test_lines_are_split_a_slice_at_a_time(self):
        # splitlines would hold all 20,001 lines at once, about 1.3 MiB
        text = format_arc_list(cartesian_product(gen_cycle(100), gen_cycle(100)))
        tracemalloc.start()
        try:
            count = sum(1 for _ in _lines(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 20_001
        assert peak < 2**18

    def test_parse_memory_is_one_adjacency_copy(self):
        # C_100 x C_100: 20,000 arc lines. Lists of the data lines and of
        # the arcs, kept beside the graph's own lists, peak at about 8.4 MiB.
        text = format_arc_list(cartesian_product(gen_cycle(100), gen_cycle(100)))
        tracemalloc.start()
        try:
            parsed = parse_digraph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.graph.m == 20_000
        assert peak < 5 * 2**20

    @pytest.mark.parametrize(
        "text, message",
        [
            ("100000000 0\n", "line 1: graph on 100000000 vertices exceeds the vertex cap of 200000"),
            ("# big\n\n200001 1\n0 1\n", "line 3: graph on 200001 vertices exceeds the vertex cap of 200000"),
            # the cap is checked before the arc lines are counted
            ("300000 2\n0 1\n", "line 1: graph on 300000 vertices exceeds the vertex cap of 200000"),
        ],
    )
    def test_vertex_cap_is_checked_at_the_header(self, text, message):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                parse_digraph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 2**20  # no adjacency of the declared n

    def test_emit_then_parse_is_fixed_point(self):
        parsed = parse_digraph("# messy\n3 4\n2 0\n0 1\n1 2\n0 1\n")
        assert parsed.duplicate_arcs == 1
        normalized = format_arc_list(parsed.graph)
        again = parse_digraph(normalized)
        assert again.duplicate_arcs == 0
        assert again.graph == parsed.graph
        assert format_arc_list(again.graph) == normalized


class TestSubgraphs:
    def test_removal_on_cycle(self):
        sub, old = out_closed_removal(gen_cycle(3), {0})
        assert old == (2,)
        assert sub.n == 1 and sub.m == 0

    def test_removal_on_path(self):
        path = Digraph(3, [(0, 1), (1, 2)])
        sub, old = out_closed_removal(path, {0})
        assert old == (2,) and sub.n == 1

    def test_removal_on_paw(self):
        sub, old = out_closed_removal(gen_paw(), {0})
        assert old == (1, 2)
        assert sub.arcs == frozenset({(0, 1)})

    def test_removal_of_empty_set_is_identity(self):
        g = random_digraph(7, 0.3, seed=5)
        sub, old = out_closed_removal(g, ())
        assert sub == g
        assert old == tuple(range(7))

    def test_induced_pair(self):
        sub, old = induced_subgraph(gen_cycle(4), {0, 1})
        assert sub.arcs == frozenset({(0, 1)}) and old == (0, 1)

    def test_induced_full_is_identity(self):
        g = random_digraph(6, 0.4, seed=9)
        sub, _ = induced_subgraph(g, range(6))
        assert sub == g

    def test_induced_wheel_rim_is_cycle(self):
        sub, _ = induced_subgraph(gen_wheel(3), {0, 1, 2})
        assert sub == gen_cycle(3)

    def test_member_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(gen_cycle(3), {5})


class TestVerifiers:
    def test_independent_cycle_pair(self):
        ok, witnesses = is_independent(gen_cycle(3), {0, 1})
        assert not ok and witnesses == [(0, 1)]

    def test_independent_alternating(self):
        assert is_independent(gen_cycle(4), {0, 2}) == (True, [])

    def test_independent_antiparallel_pair(self):
        ok, witnesses = is_independent(gen_cycle(2), {0, 1})
        assert not ok and witnesses == [(0, 1), (1, 0)]

    def test_dominating_two_of_three(self):
        assert is_dominating(gen_cycle(3), {0, 1}) == (True, [])

    def test_dominating_witness(self):
        ok, witnesses = is_dominating(gen_cycle(3), {0})
        assert not ok and witnesses == [2]

    def test_wheel_center_dominates(self):
        assert is_dominating(gen_wheel(3), {3}) == (True, [])

    def test_ids_on_even_cycle(self):
        assert is_ids(gen_cycle(4), {0, 2}).ids

    def test_triangle_has_no_ids(self):
        c3 = gen_cycle(3)
        for size in range(4):
            for combo in combinations(range(3), size):
                assert not is_ids(c3, combo).ids

    def test_paw_unique_ids(self):
        paw = gen_paw()
        solutions = [
            frozenset(combo)
            for size in range(5)
            for combo in combinations(range(4), size)
            if is_ids(paw, combo).ids
        ]
        assert solutions == [frozenset({0, 1})]

    def test_member_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            is_ids(gen_cycle(3), {3})

    def test_one_shot_iterable(self):
        # the members are read once, so a generator is checked like a set
        assert is_ids(gen_cycle(4), iter([0, 2])) == is_ids(gen_cycle(4), {0, 2})
        assert is_ids(gen_cycle(4), (v for v in (0, 2))).ids
        report = is_ids(gen_cycle(3), iter([0, 1]))
        assert report.independence_violations == ((0, 1),)
        assert report.dominating


@given(digraphs_with_subset())
def test_ids_report_is_conjunction_of_verifiers(case):
    graph, members = case
    report = is_ids(graph, members)
    assert report.independent == is_independent(graph, members)[0]
    assert report.dominating == is_dominating(graph, members)[0]
    assert report.ids == (report.independent and report.dominating)
    assert report.independent == (not report.independence_violations)
    assert report.dominating == (not report.domination_violations)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dominating_agrees_with_double_loop_on_all_subsets(seed):
    graph = random_digraph(10, 0.25, seed=seed)
    for mask in range(1 << graph.n):
        members = {v for v in range(graph.n) if mask >> v & 1}
        assert is_dominating(graph, members)[0] == dominating_double_loop(graph, members)
        assert is_independent(graph, members)[0] == independent_double_loop(
            graph, members
        )


def _verifier_cases():
    rng = random.Random(4242)
    for seed in range(60):
        graph = random_digraph(1 + seed % 25, (0.05, 0.15, 0.3)[seed % 3], seed=9000 + seed)
        n = graph.n
        subsets = [set(), set(range(n))]
        subsets += [{v for v in range(n) if rng.random() < p} for p in (0.2, 0.4, 0.6)]
        outcome = solve_auto(graph)
        if outcome.found:
            subsets.append(outcome.set)
        for members in subsets:
            yield graph, members


def test_verifiers_agree_with_arc_scan():
    for graph, members in _verifier_cases():
        indep, dom, arcs, undominated = expected = ids_report_by_arc_scan(graph, members)
        assert tuple(is_ids(graph, members)) == expected
        assert is_independent(graph, members) == (indep, list(arcs))
        assert is_dominating(graph, members) == (dom, list(undominated))


class TestNoFullArcScan:
    """Verification and induced subgraphs read only the out-lists they need."""

    def test_probe_catches_a_scan(self):
        g = without_arc_scans(gen_cycle(4))
        with pytest.raises(AssertionError, match="scanned"):
            sorted(g.arcs)
        for read_whole in (set, frozenset, frozenset().union, set().update):
            with pytest.raises(AssertionError, match="scanned"):
                read_whole(g.arcs)
        with pytest.raises(TypeError):
            frozenset() | g.arcs
        with pytest.raises(TypeError):
            g.arcs <= frozenset()
        assert (0, 1) in g.arcs and g.m == 4

    def test_verifiers(self):
        for graph, members in _verifier_cases():
            expected = is_ids(graph, members)
            probe = without_arc_scans(Digraph(graph.n, graph.arcs))
            assert is_ids(probe, members) == expected
            assert is_independent(probe, members)[0] == expected.independent
            assert is_dominating(probe, members)[0] == expected.dominating

    def test_induced_subgraph_and_removal(self):
        g = random_digraph(30, 0.1, seed=17)
        keep = set(range(0, 30, 3))
        expected = induced_subgraph(g, keep), out_closed_removal(g, keep)
        probe = without_arc_scans(Digraph(g.n, g.arcs))
        assert (induced_subgraph(probe, keep), out_closed_removal(probe, keep)) == expected
        assert induced_subgraph(probe, ()).graph == Digraph(0)
