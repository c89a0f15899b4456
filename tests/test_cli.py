import json
import os
import re
import subprocess
import sys
import time

import pytest

import idomlib.cli
import idomlib.structure
from idomlib import (
    DhkSpec,
    cartesian_product,
    cn_box_cn_ids,
    format_arc_list,
    gen_cycle,
    gen_dhk,
    gen_path,
    gen_paw,
    gen_wheel,
    is_strongly_connected,
    parse_digraph,
    random_dag,
    random_digraph,
    solve_auto,
)
from idomlib.cli import EXIT_INTERNAL, main

from helpers import antiparallel_chain, record_built_graphs


@pytest.fixture
def write_graph(tmp_path):
    counter = [0]

    def _write(graph_or_text):
        counter[0] += 1
        path = tmp_path / f"graph{counter[0]}.txt"
        text = (
            graph_or_text
            if isinstance(graph_or_text, str)
            else format_arc_list(graph_or_text)
        )
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_triangle(self, capsys, write_graph):
        code, out, _ = run(capsys, "analyze", write_graph(gen_cycle(3)))
        assert code == 0
        assert "period=3" in out and "sccs=1" in out and "layers=[1,1,1]" in out

    def test_path(self, capsys, write_graph):
        code, out, _ = run(capsys, "analyze", write_graph("3 2\n0 1\n1 2\n"))
        assert code == 0
        assert "period=0" in out and "sccs=3" in out and "layers" not in out
        assert "source_sccs=[" in out

    def test_empty_graph(self, capsys, write_graph):
        path = write_graph("0 0\n")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0 and "period=0" in out and "sccs=0" in out
        code, out, _ = run(capsys, "solve", path)
        assert code == 0 and "status=found" in out

    def test_layered_family(self, capsys, write_graph):
        gen_code, out, _ = run(capsys, "gen", "dhk", "5", "3")
        assert gen_code == 0
        code, out, _ = run(capsys, "analyze", write_graph(out))
        assert code == 0 and "layers=[3,6,6,3,6]" in out

    def test_json_schema(self, capsys, write_graph):
        code, out, _ = run(capsys, "analyze", write_graph(gen_cycle(4)), "--json")
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"period", "sccs", "layers"}
        assert doc == {"period": 4, "sccs": 1, "layers": [1, 1, 1, 1]}

    def test_parse_error_exit_code(self, capsys, write_graph):
        code, _, err = run(capsys, "analyze", write_graph("1 1\n0 0\n"))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "text", ["1_0 0\n", "2 1\n+1 0\n", "3 1\n0 1_0\n", "2 1\n0 \u0662\n"]
    )
    def test_non_decimal_token_exit_code(self, capsys, write_graph, text):
        code, out, err = run(capsys, "analyze", write_graph(text))
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_duplicate_warning(self, capsys, write_graph):
        code, _, err = run(capsys, "analyze", write_graph("2 2\n0 1\n0 1\n"))
        assert code == 0 and "duplicate" in err

    def test_one_scc_pass(self, capsys, write_graph, monkeypatch):
        calls = []
        real = idomlib.structure.sccs
        monkeypatch.setattr(
            idomlib.structure, "sccs", lambda g: calls.append(g) or real(g)
        )
        code, out, _ = run(capsys, "analyze", write_graph(gen_cycle(6)))
        assert code == 0 and "layers=[1,1,1,1,1,1]" in out
        assert len(calls) == 1

    def test_dag_reads_its_sccs_once(self, capsys, write_graph, monkeypatch):
        # a solve of a DAG computes no SCCs; analyze prints them
        calls = []
        real = idomlib.structure.sccs
        monkeypatch.setattr(
            idomlib.structure, "sccs", lambda g: calls.append(g) or real(g)
        )
        code, out, _ = run(capsys, "analyze", write_graph(random_dag(40, 0.1, 3)))
        assert code == 0 and len(calls) == 1
        assert out == "period=0\nsccs=40\nsource_sccs=[10,21,29,30,33,34,35,36,37,38,39]\n"

    def test_odd_cycle_layers(self, capsys, write_graph):
        code, out, _ = run(capsys, "analyze", write_graph(gen_cycle(5)))
        assert code == 0 and out == "period=5\nsccs=1\nsource_sccs=[0]\nlayers=[1,1,1,1,1]\n"


class TestTarjanRuns:
    """A strongly connected graph is recognised without Tarjan, and a solve
    of an acyclic graph computes no SCCs; any other graph runs Tarjan once
    per structure pass. ``idom analyze`` reads the SCCs of every graph."""

    @pytest.mark.parametrize(
        "graph, runs",
        [
            (gen_cycle(6), 0),
            (gen_cycle(7), 0),
            (cartesian_product(gen_cycle(5), gen_cycle(5)), 0),
            (gen_dhk(DhkSpec(3, 3)).graph, 0),
            (random_dag(40, 0.1, 3), 0),
            (antiparallel_chain(50), 1),
        ],
    )
    def test_solve_auto_and_analyze(self, capsys, write_graph, monkeypatch, graph, runs):
        calls = []
        real = idomlib.structure._tarjan
        monkeypatch.setattr(
            idomlib.structure, "_tarjan", lambda g: calls.append(g) or real(g)
        )
        solve_auto(graph)
        assert len(calls) == runs
        code, _, _ = run(capsys, "analyze", write_graph(graph))
        analyze_runs = 0 if is_strongly_connected(graph) else 1
        assert code == 0 and len(calls) == runs + analyze_runs


class TestSolve:
    def test_pentagon_status_exit(self, capsys, write_graph):
        code, out, _ = run(
            capsys, "solve", write_graph(gen_cycle(5)), "--status-exit"
        )
        assert code == 1 and "status=none" in out

    def test_square(self, capsys, write_graph):
        code, out, _ = run(capsys, "solve", write_graph(gen_cycle(4)))
        assert code == 0
        assert "status=found set=0,2" in out and "method=even-period" in out

    def test_wheel_times_paw_exact(self, capsys, write_graph):
        product = cartesian_product(gen_wheel(3), gen_paw())
        code, out, _ = run(
            capsys, "solve", write_graph(product), "--method", "exact"
        )
        assert code == 0 and "status=none" in out

    def test_json_schema(self, capsys, write_graph):
        code, out, _ = run(capsys, "solve", write_graph(gen_cycle(4)), "--json")
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {
            "status",
            "set",
            "method",
            "seeds_explored",
            "subsets_explored",
            "elapsed_ms",
        }
        assert doc["status"] == "found" and doc["set"] == [0, 2]

    def test_json_none_has_no_set(self, capsys, write_graph):
        _, out, _ = run(capsys, "solve", write_graph(gen_cycle(3)), "--json")
        doc = json.loads(out)
        assert doc["status"] == "none" and "set" not in doc

    def test_method_precondition_violation(self, capsys, write_graph):
        code, _, err = run(
            capsys, "solve", write_graph(gen_cycle(3)), "--method", "dag"
        )
        assert code == 2 and "cycle" in err

    def test_budget_env_exit_code(self, capsys, write_graph, monkeypatch):
        monkeypatch.setenv("IDOM_BUDGET", "1")
        code, _, err = run(
            capsys, "solve", write_graph(gen_cycle(5)), "--method", "exact"
        )
        assert code == 3 and "budget" in err

    def test_bad_budget_env(self, capsys, write_graph, monkeypatch):
        monkeypatch.setenv("IDOM_BUDGET", "lots")
        code, _, _ = run(capsys, "solve", write_graph(gen_cycle(5)))
        assert code == 2

    @pytest.mark.parametrize(
        "text", ["3 2\n0 1\n1 2\n", "3 3\n0 1\n1 2\n2 0\n"], ids=["dag", "cycle"]
    )
    def test_negative_budget_env_is_a_usage_error(
        self, capsys, write_graph, monkeypatch, text
    ):
        monkeypatch.setenv("IDOM_BUDGET", "-1")
        code, out, err = run(capsys, "solve", write_graph(text))
        assert code == 2 and out == ""
        assert err == "error: IDOM_BUDGET must be at least 0, got -1\n"

    def test_zero_budget_env_is_legal(self, capsys, write_graph, monkeypatch):
        monkeypatch.setenv("IDOM_BUDGET", "0")
        code, out, _ = run(capsys, "solve", write_graph("3 2\n0 1\n1 2\n"))
        assert code == 0 and "status=found set=0,2" in out

    TORUS_SET = "0,3,5,8,11,13,14,16,19,22,24,27,28,30,32,36,38,40,44,46,48"

    @pytest.mark.parametrize(
        "graph, text, doc",
        [
            (
                cartesian_product(gen_cycle(7), gen_cycle(7)),
                f"status=found set={TORUS_SET}\nmethod=layers\n"
                "seeds_explored=8 subsets_explored=0 elapsed_ms=X\n",
                '{"status": "found", "set": [' + TORUS_SET.replace(",", ", ") + '], '
                '"method": "layers", "seeds_explored": 8, "subsets_explored": 0, '
                '"elapsed_ms": X}\n',
            ),
            (
                gen_dhk(DhkSpec(5, 4, "ids_free")).graph,
                "status=none\nmethod=layers\n"
                "seeds_explored=16 subsets_explored=0 elapsed_ms=X\n",
                '{"status": "none", "method": "layers", "seeds_explored": 16, '
                '"subsets_explored": 0, "elapsed_ms": X}\n',
            ),
            (
                gen_cycle(4),
                "status=found set=0,2\nmethod=even-period\n"
                "seeds_explored=0 subsets_explored=0 elapsed_ms=X\n",
                '{"status": "found", "set": [0, 2], "method": "even-period", '
                '"seeds_explored": 0, "subsets_explored": 0, "elapsed_ms": X}\n',
            ),
        ],
        ids=["C7xC7", "D5,4-free", "C4"],
    )
    def test_layers_golden(self, capsys, write_graph, graph, text, doc):
        path = write_graph(graph)
        for argv, expected in ((), text), (("--json",), doc):
            code, out, err = run(capsys, "solve", path, "--method", "layers", *argv)
            masked = re.sub(r'(elapsed_ms(=|": ))[0-9.]+', r"\1X", out)
            assert (code, masked, err) == (0, expected, "")

    def test_unexpected_exception_exit_code(self, capsys, write_graph, monkeypatch):
        def broken(graph, budget):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(idomlib.cli._SOLVERS, "auto", broken)
        code, out, err = run(
            capsys, "solve", write_graph(gen_cycle(5)), "--status-exit"
        )
        assert code == EXIT_INTERNAL == 4 and out == ""
        assert err.startswith("internal error: RecursionError: maximum recursion")
        assert "Traceback" not in err


class TestVerify:
    def test_valid_set(self, capsys, write_graph):
        code, out, _ = run(
            capsys, "verify", write_graph(gen_cycle(4)), "--set", "0,2"
        )
        assert code == 0 and "ids=true" in out

    def test_witnesses(self, capsys, write_graph):
        code, out, _ = run(capsys, "verify", write_graph(gen_cycle(3)), "--set", "0")
        assert code == 0
        assert "dominating=false" in out and "domination_violations=2" in out

    def test_torus_construction(self, capsys, write_graph):
        product = cartesian_product(gen_cycle(3), gen_cycle(3))
        members = ",".join(map(str, sorted(cn_box_cn_ids(3))))
        code, out, _ = run(capsys, "verify", write_graph(product), "--set", members)
        assert code == 0 and "ids=true" in out

    def test_json_schema(self, capsys, write_graph):
        _, out, _ = run(
            capsys, "verify", write_graph(gen_cycle(3)), "--set", "0,1", "--json"
        )
        doc = json.loads(out)
        assert set(doc) == {"independent", "dominating", "ids", "violations"}
        assert doc["violations"]["independence"] == [[0, 1]]

    def test_malformed_set(self, capsys, write_graph):
        code, _, err = run(
            capsys, "verify", write_graph(gen_cycle(3)), "--set", "0,x"
        )
        assert code == 2 and "malformed" in err

    def test_out_of_range_member(self, capsys, write_graph):
        code, _, _ = run(capsys, "verify", write_graph(gen_cycle(3)), "--set", "7")
        assert code == 2


class TestIntegerTokens:
    """`--set` and IDOM_BUDGET read integers by the arc-list rule: ASCII
    digits after an optional `-`, with ASCII whitespace around them."""

    # `int` alone reads each of these: as 10, 1, 2 (an Arabic-Indic digit)
    # and 1 (before a no-break space)
    BAD = ["1_0", "+1", "\u0662", "1\u00a0"]

    @pytest.mark.parametrize("token", BAD)
    def test_set_rejects(self, capsys, write_graph, token):
        path = write_graph(gen_cycle(12))
        members = f"{token},0"
        code, out, err = run(capsys, "verify", path, "--set", members)
        assert code == 2 and out == ""
        assert err == f"error: malformed vertex set {members!r}\n"

    @pytest.mark.parametrize("token", BAD)
    @pytest.mark.parametrize("command", [["solve"], ["brute", "--what", "exist"]])
    def test_budget_rejects(self, capsys, write_graph, monkeypatch, token, command):
        monkeypatch.setenv("IDOM_BUDGET", token)
        code, out, err = run(capsys, command[0], write_graph(gen_cycle(12)), *command[1:])
        assert code == 2 and out == ""
        assert err == f"error: IDOM_BUDGET must be an integer, got {token!r}\n"

    def test_whitespace_and_minus_still_read(self, capsys, write_graph, monkeypatch):
        path = write_graph(gen_cycle(4))
        code, out, _ = run(capsys, "verify", path, "--set", " 0 , 2 ")
        assert code == 0 and "ids=true" in out
        code, out, _ = run(capsys, "verify", path, "--set", "0,-2")
        assert code == 2 and out == ""
        monkeypatch.setenv("IDOM_BUDGET", " 0\t")
        code, out, _ = run(capsys, "solve", path)
        assert code == 0 and "status=found" in out


class TestGen:
    def test_cycle_bytes(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "3")
        assert code == 0 and out == "3 3\n0 1\n1 2\n2 0\n"

    def test_wheel_matches_library(self, capsys):
        _, out, _ = run(capsys, "gen", "wheel", "3")
        assert parse_digraph(out).graph == gen_wheel(3)

    def test_paw(self, capsys):
        _, out, _ = run(capsys, "gen", "paw")
        assert parse_digraph(out).graph == gen_paw()

    def test_product(self, capsys, write_graph):
        c3 = write_graph(gen_cycle(3))
        _, out, _ = run(capsys, "gen", "product", c3, c3)
        graph = parse_digraph(out).graph
        assert graph.n == 9 and graph.m == 18

    def test_double(self, capsys, write_graph):
        _, out, _ = run(capsys, "gen", "double", write_graph("2 1\n0 1\n"))
        assert parse_digraph(out).graph == gen_cycle(2)

    def test_random_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "random-dag", "8", "0.3", "--seed", "5")
        _, second, _ = run(capsys, "gen", "random-dag", "8", "0.3", "--seed", "5")
        assert first == second

    def test_degenerate_dhk_is_an_error(self, capsys):
        code, _, err = run(capsys, "gen", "dhk", "3", "2")
        assert code == 2 and "degenerated" in err

    def test_bad_parameters(self, capsys):
        code, _, _ = run(capsys, "gen", "cycle", "1")
        assert code == 2

    @pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
    def test_arc_probability_outside_unit_interval(self, capsys, p):
        for argv in (
            ("random-dag", "5", p),
            ("random-digraph", "5", p),
            ("random-bipartite", "2", "3", p),
            ("random-layered", "3", "2", p),
        ):
            code, out, err = run(capsys, "gen", *argv, "--seed", "1")
            assert code == 2 and out == ""
            assert err.startswith("error: arc probability must be in [0, 1], got ")

    @pytest.mark.parametrize("h, k", [("3", "17"), ("100001", "2"), ("3", "1000000000")])
    def test_dhk_over_the_vertex_guard_is_an_error(self, capsys, h, k):
        # D_(3,17) has 17 + 2 * (2^17 - 2) vertices, D_(100001,2) has 200002
        code, out, err = run(capsys, "gen", "dhk", h, k)
        assert code == 2 and out == ""
        assert f"D_({h},{k}) has more than 200000 vertices" in err


class TestSizeCaps:
    """Inputs that would once allocate or draw without bound exit 2 at once."""

    def test_huge_declared_vertex_count(self, capsys, write_graph):
        path = write_graph("100000000 0\n")  # 12 bytes
        for command in ("analyze", "solve"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, path)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err == "error: line 1: graph on 100000000 vertices exceeds the vertex cap of 200000\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cycle", "300000000"], "cycle on 300000000 vertices exceeds the vertex cap of 200000"),
            (
                ["random-digraph", "200000", "0.00001", "--seed", "1"],
                "up to 39999800000 pair tests exceed the cap of 100000000 per graph",
            ),
            (
                ["random-dag", "100000", "0.00002", "--seed", "1"],
                "up to 4999950000 pair tests exceed the cap of 100000000 per graph",
            ),
        ],
    )
    def test_generators_over_a_cap(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_dense_random_digraph_over_the_arc_cap(self, capsys):
        # 6.4 * 10^7 pair tests are legal, but as many arcs would take 7-8 GiB
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "random-digraph", "8000", "1.0", "--seed", "1")
        assert time.perf_counter() - start < 1
        message = "an expected 63992000 arcs exceed the arc cap of 10000000 per graph"
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestBrute:
    def test_ids_size_none(self, capsys, write_graph):
        code, out, _ = run(
            capsys, "brute", write_graph(gen_cycle(3)), "--what", "i"
        )
        assert code == 0 and out.strip() == "none"

    def test_gamma(self, capsys, write_graph):
        _, out, _ = run(capsys, "brute", write_graph(gen_cycle(3)), "--what", "gamma")
        assert out.strip() == "2"

    def test_idomatic(self, capsys, write_graph):
        _, out, _ = run(
            capsys, "brute", write_graph(gen_cycle(4)), "--what", "idomatic"
        )
        assert out.strip() == "2"

    def test_exist(self, capsys, write_graph):
        _, out, _ = run(capsys, "brute", write_graph(gen_cycle(4)), "--what", "exist")
        assert out.strip() == "true"
        _, out, _ = run(capsys, "brute", write_graph(gen_cycle(3)), "--what", "exist")
        assert out.strip() == "false"

    def test_exist_budget_env(self, capsys, write_graph, monkeypatch):
        # the scan of C_3's 8 subsets needs 8 steps, as solve --method brute
        path = write_graph(gen_cycle(3))
        monkeypatch.setenv("IDOM_BUDGET", "3")
        for argv in ("solve", path, "--method", "brute"), ("brute", path, "--what", "exist"):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "" and "budget of 3 steps" in err
        monkeypatch.setenv("IDOM_BUDGET", "8")
        assert run(capsys, "brute", path, "--what", "exist") == (0, "false\n", "")

    @pytest.mark.parametrize("what, steps", [("i", 8), ("gamma", 8), ("idomatic", 8)])
    def test_oracle_budget_env(self, capsys, write_graph, monkeypatch, what, steps):
        # C_3 has 8 subsets and no set, so idomatic extends no family
        path = write_graph(gen_cycle(3))
        monkeypatch.setenv("IDOM_BUDGET", str(steps - 1))
        code, out, err = run(capsys, "brute", path, "--what", what)
        assert code == 3 and out == "" and f"budget of {steps - 1} steps" in err
        monkeypatch.setenv("IDOM_BUDGET", str(steps))
        assert run(capsys, "brute", path, "--what", what)[0] == 0

    @pytest.mark.parametrize("what", ["i", "gamma", "idomatic"])
    def test_budget_bounds_a_lifted_cap(self, capsys, write_graph, monkeypatch, what):
        path = write_graph(random_digraph(26, 0.1, seed=1))
        monkeypatch.setenv("IDOM_BUDGET", "10")
        code, out, err = run(capsys, "brute", path, "--what", what, "--cap", "30")
        assert code == 3 and out == "" and "budget of 10 steps" in err

    def test_exist_bad_budget_env(self, capsys, write_graph, monkeypatch):
        monkeypatch.setenv("IDOM_BUDGET", "lots")
        code, out, err = run(capsys, "brute", write_graph(gen_cycle(3)), "--what", "exist")
        assert code == 2 and out == ""
        assert err == "error: IDOM_BUDGET must be an integer, got 'lots'\n"

    def test_json_null_value(self, capsys, write_graph):
        _, out, _ = run(
            capsys, "brute", write_graph(gen_cycle(3)), "--what", "i", "--json"
        )
        assert json.loads(out) == {"what": "i", "value": None}

    @pytest.mark.parametrize("what", ["exist", "i", "gamma", "idomatic"])
    def test_negative_cap_is_a_usage_error(self, capsys, write_graph, what):
        path = write_graph(gen_cycle(3))
        code, out, err = run(capsys, "brute", path, "--what", what, "--cap", "-1")
        assert code == 2 and out == ""
        assert err.endswith("cap must be at least 0, got -1\n")

    def test_cap_exit_code(self, capsys, write_graph):
        code, _, err = run(
            capsys,
            "brute",
            write_graph(gen_cycle(6)),
            "--what",
            "i",
            "--cap",
            "4",
        )
        assert code == 3 and "cap" in err


class TestRoundTrips:
    FAMILIES = [
        ("cycle", "7"),
        ("path", "6"),
        ("wheel", "4"),
        ("paw",),
        ("dhk", "5", "3"),
        ("dhk", "5", "3", "--variant", "ids"),
        ("random-dag", "9", "0.3", "--seed", "4"),
        ("random-bipartite", "4", "5", "0.4", "--seed", "4"),
        ("random-layered", "4", "3", "0.5", "--seed", "4"),
        ("random-digraph", "8", "0.3", "--seed", "4"),
        ("product", "c3.txt", "p2.txt"),
        ("double", "p4.txt"),
    ]
    # the file arguments of FAMILIES, written with write_graph before a call
    FILES = {"c3.txt": gen_cycle(3), "p2.txt": gen_path(2), "p4.txt": gen_path(4)}

    @classmethod
    def argv(cls, family, write_graph):
        return ["gen", *(write_graph(cls.FILES[a]) if a in cls.FILES else a for a in family)]

    def test_every_family_is_covered(self):
        assert sorted({family[0] for family in self.FAMILIES}) == sorted(idomlib.cli._FAMILIES)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: "-".join(f[:3]))
    def test_gen_analyze_solve_verify_chain(self, family, capsys, write_graph):
        code, out, _ = run(capsys, *self.argv(family, write_graph))
        assert code == 0
        path = write_graph(out)

        code, _, _ = run(capsys, "analyze", path)
        assert code == 0

        code, out, _ = run(capsys, "solve", path, "--json")
        assert code == 0
        doc = json.loads(out)
        if doc["status"] == "found":
            members = ",".join(map(str, doc["set"]))
            code, out, _ = run(capsys, "verify", path, "--set", members)
            assert code == 0 and "ids=true" in out

    def test_gen_output_is_normalized(self, capsys, write_graph):
        for family in self.FAMILIES:
            _, out, _ = run(capsys, *self.argv(family, write_graph))
            assert out == format_arc_list(parse_digraph(out).graph)


class TestNoArcSet:
    """No subcommand builds a graph's ``arcs`` set: every graph made while
    it runs is checked afterwards."""

    def test_subcommands(self, capsys, write_graph, monkeypatch):
        c5 = write_graph(gen_cycle(5))
        torus = write_graph(cartesian_product(gen_cycle(2), gen_cycle(4)))
        chain = write_graph("5 6\n0 1\n1 0\n2 3\n3 2\n2 0\n4 2\n")
        calls = [("analyze", c5), ("analyze", torus, "--json"), ("analyze", chain)]
        for path in (c5, torus, chain):
            calls += [("solve", path, "--method", m) for m in ("auto", "exact", "brute")]
            calls += [("verify", path, "--set", "0,1"), ("brute", path, "--what", "i")]
        calls += [
            ("solve", torus, "--method", "even"),
            ("solve", torus, "--method", "layers", "--json"),
            ("solve", torus, "--method", "bipartite"),
            ("solve", write_graph("3 2\n0 1\n1 2\n"), "--method", "dag"),
            ("verify", torus, "--set", "0,2", "--json"),
            ("gen", "product", c5, chain),
            ("gen", "double", chain),
        ]
        calls += [TestRoundTrips.argv(family, write_graph) for family in TestRoundTrips.FAMILIES]
        built = record_built_graphs(monkeypatch)
        for argv in calls:
            assert run(capsys, *argv)[0] == 0, argv
        assert len(built) > len(calls) and all("arcs" not in g.__dict__ for g in built)


class TestStartPath:
    """``idom`` starts without the modules that only some calls need."""

    SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    ENTRY = "import sys; from idomlib.cli import main; sys.exit(main())"

    def child(self, *argv):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
        )

    def test_import_leaves_heavy_modules_unloaded(self):
        # -S keeps site's own imports out of the count
        script = (
            "import sys, idomlib.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules])"
        )
        result = self.child("-S", "-c", script)
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_json_output_still_loads_json(self, write_graph):
        path = write_graph(gen_cycle(4))
        result = self.child("-c", self.ENTRY, "solve", path, "--json")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert (doc["status"], doc["set"], doc["method"]) == ("found", [0, 2], "even-period")
        result = self.child("-c", self.ENTRY, "analyze", path, "--json")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"period": 4, "sccs": 1, "layers": [1, 1, 1, 1]}


class TestReadme:
    """The CLI section of README.md lists what ``idom`` accepts."""

    README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

    def section(self, start):
        with open(self.README, encoding="utf-8") as fh:
            text = fh.read()
        return text[text.index(start) :]

    def test_gen_families(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one usage line per family
        block = self.section("`gen` families").split("```")[1]
        listed = [line.split("#")[0].rstrip() for line in block.splitlines()[1:]]
        usages = []
        for family in idomlib.cli._FAMILIES:
            with pytest.raises(SystemExit):
                main(["gen", family, "--help"])
            usage = capsys.readouterr().out.splitlines()[0]
            usages.append(usage.replace("usage: ", "", 1).replace(" [-h]", "", 1))
        assert listed == usages

    def test_solve_methods(self):
        paragraph = self.section("Solve methods:").split(". ")[0]
        assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(idomlib.cli._SOLVERS)
