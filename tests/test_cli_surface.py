"""Golden transcripts of the ``idom`` command line: the ``--help`` text of
``idom``, of every subcommand and of every ``gen`` family, argparse's
usage errors, and one call of each family, solve method and oracle. Each
transcript holds the argv, the exit code, stdout and stderr; the expected
ones are in ``cli_surface.txt``, recorded with Python 3.11's argparse, whose
wording can change between Python versions."""

import re
from pathlib import Path

import pytest

from idomlib import format_arc_list, gen_cycle, gen_path
from idomlib.cli import main

GOLDEN = Path(__file__).with_name("cli_surface.txt")

FAMILIES = [
    "cycle", "path", "wheel", "paw", "dhk", "product", "double",
    "random-dag", "random-bipartite", "random-layered", "random-digraph",
]
COMMANDS = ["analyze", "solve", "verify", "gen", "brute"]

HELP = [["--help"]] + [[c, "--help"] for c in COMMANDS] + [["gen", f, "--help"] for f in FAMILIES]

USAGE_ERRORS = [
    [],
    ["gen"],
    ["gen", "star", "3"],
    ["gen", "cycle"],
    ["gen", "dhk", "5"],
    ["gen", "product", "{c3}"],
    ["gen", "double"],
    ["gen", "random-layered", "3", "2"],
    ["gen", "cycle", "5", "6"],
    ["gen", "paw", "3"],
    ["gen", "double", "{c3}", "{c3}"],
    ["gen", "random-dag", "5", "0.5"],
    ["gen", "random-bipartite", "2", "3", "0.5"],
    ["gen", "random-layered", "3", "2", "0.5"],
    ["gen", "random-digraph", "5", "0.5"],
    ["gen", "random-dag", "5", "0.5", "--seed"],
    ["gen", "random-dag", "5", "0.5", "--seed", "x"],
    ["gen", "dhk", "5", "3", "--variant", "both"],
    ["gen", "cycle", "x"],
    ["gen", "random-digraph", "5", "half", "--seed", "1"],
    ["gen", "cycle", "5", "--seed", "1"],
    ["gen", "paw", "--variant", "ids"],
    ["analyze"],
    ["analyze", "{c3}", "{c3}"],
    ["solve", "{c3}", "--method", "fast"],
    ["verify", "{c3}"],
    ["brute", "{c3}"],
    ["brute", "{c3}", "--what", "x"],
]

CALLS = [
    ["gen", "cycle", "4"],
    ["gen", "cycle", "1"],
    ["gen", "path", "3"],
    ["gen", "wheel", "3"],
    ["gen", "paw"],
    ["gen", "dhk", "3", "3"],
    ["gen", "dhk", "3", "3", "--variant", "ids"],
    ["gen", "dhk", "4", "3"],
    ["gen", "dhk", "3", "2"],
    ["gen", "product", "{c3}", "{p3}"],
    ["gen", "product", "{missing}", "{c3}"],
    ["gen", "double", "{p3}"],
    ["gen", "random-dag", "6", "0.5", "--seed", "1"],
    ["gen", "random-bipartite", "2", "3", "0.5", "--seed", "1"],
    ["gen", "random-layered", "3", "2", "0.5", "--seed", "1"],
    ["gen", "random-digraph", "5", "0.4", "--seed", "2"],
    ["gen", "random-digraph", "5", "0.4", "--seed", "2", "--seed", "3"],
    ["gen", "random-digraph", "4", "2", "--seed", "1"],
]
for _method in ("auto", "dag", "even", "bipartite", "layers", "exact", "brute"):
    CALLS += [["solve", path, "--method", _method] for path in ("{c4}", "{p3}", "{c3}")]
for _what in ("exist", "i", "gamma", "idomatic"):
    CALLS += [["brute", path, "--what", _what] for path in ("{c4}", "{c3}")]

ARGVS = HELP + USAGE_ERRORS + CALLS


@pytest.fixture
def paths(tmp_path):
    graphs = {"c3": gen_cycle(3), "c4": gen_cycle(4), "p3": gen_path(3)}
    out = {"missing": str(tmp_path / "missing.txt")}
    for name, graph in graphs.items():
        out[name] = str(tmp_path / f"{name}.txt")
        Path(out[name]).write_text(format_arc_list(graph))
    return out


def transcript(capsys, argv, paths, tmp_path):
    """The call's argv, exit code, stdout and stderr, with the scratch
    directory and elapsed times masked."""
    try:
        code = main([paths[t[1:-1]] if t.startswith("{") else t for t in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    text = f"$ idom {' '.join(argv)}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"
    return re.sub(r"elapsed_ms=[0-9.]+", "elapsed_ms=X", text.replace(str(tmp_path), "TMP"))


def golden() -> dict[str, str]:
    blocks = re.split(r"^(?=\$ idom)", GOLDEN.read_text(), flags=re.M)
    return {b.split("\n", 1)[0]: b for b in blocks if b.startswith("$ idom")}


def test_golden_covers_every_argv():
    assert list(golden()) == [f"$ idom {' '.join(argv)}" for argv in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_transcript(argv, capsys, monkeypatch, paths, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at COLUMNS - 2
    monkeypatch.delenv("IDOM_BUDGET", raising=False)
    expected = golden()[f"$ idom {' '.join(argv)}"]
    assert transcript(capsys, argv, paths, tmp_path) == expected
