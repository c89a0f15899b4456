"""idomlib benchmark: time to a verdict through the ``idom`` CLI and the library.

Run from the repository root::

    python3 perfbench/run.py --workload scale-ladder --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each run builds the workload's instances from ``--seed`` with idomlib's
generators (``setup_s``), answers every instance with the independent
reference in ``reference.py`` (untimed), then runs a closed loop with one
client in passes until ``--seconds`` have gone: each pass solves every
instance in-process with ``solve_auto`` (``lib_rounds`` times) and runs every
``idom`` call of the workload once, one child process at a time. A call's
time is its median over the passes. Every verdict, set, analysis and
generated graph is checked; a wrong one aborts the run with exit code 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps idomlib's
public functions in call shims and reports per-layer metrics instead: counts
and times from the workload's own instances, doubling ratios from the
scale-ladder rungs and oracle times from the cli-mix brute calls (the only
workloads that define them), whatever the workload.

The last line of standard output is one JSON object; the full record, with
the instance manifest, goes to ``perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import reference
import shims

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")
CALL_TIMEOUT_S = 30
# One step budget for every solve, in-process and through IDOM_BUDGET.
BUDGET = 2_000_000
SETUP_REPS = 3  # builds before the loop; each pass adds SETUP_PER_PASS more
SETUP_PER_PASS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
# What the installed `idom` console script runs.
ENTRY = "import sys; from idomlib.cli import main; sys.exit(main())"
WORKLOADS = ("scale-ladder", "search-hard", "cli-mix")  # keys of workloads.WORKLOADS


class WrongAnswer(Exception):
    """The program answered, and the answer is wrong."""


def load_idomlib():
    """Import idomlib from ./src of the checkout, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "idomlib", "__init__.py")):
        sys.exit(f"perfbench: no idomlib sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import idomlib

    if not os.path.realpath(idomlib.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: idomlib was imported from {idomlib.__file__}, not {SRC}")
    return idomlib


# ---------------------------------------------------------------- set-up


def setup(workload, seed: int, workdir: str, il, tracer=None):
    """Build and write the instances SETUP_REPS times; returns the last build,
    the time of each build and, when traced, generator time per build."""
    times, gen_ms = [], []
    for _ in range(SETUP_REPS):
        start = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        instances = workload.build(seed)
        write_instances(instances, workdir, il)
        times.append(time.perf_counter() - t0)
        if tracer:
            gen_ms.append(group_ms(tracer.spans[start:], "generators.build"))
    return instances, times, gen_ms


def answer(instances) -> list:
    """Reference answers, then the candidates that the workload keeps."""
    quota_used: Counter = Counter()
    kept = []
    for inst in instances:
        inst.arcs = sorted(inst.graph.arcs)
        n = inst.graph.n
        inst.structure = reference.Structure(n, inst.arcs)
        inst.exists, inst.source = reference.verdict(n, inst.arcs, inst.theorem, inst.structure)
        if inst.keep is not None:
            if not inst.keep(inst) or quota_used[inst.family] >= inst.quota:
                continue
            quota_used[inst.family] += 1
        if inst.brute:
            inst.oracle = {
                "exist": inst.exists,
                "i": reference.milp_min(n, inst.arcs, independent=True),
                "gamma": reference.milp_min(n, inst.arcs, independent=False),
                "idomatic": reference.milp_idomatic(n, inst.arcs),
            }
        kept.append(inst)
    return kept


# ---------------------------------------------------------------- checks


def check_outcome(inst, outcome) -> None:
    status = "found" if inst.exists else "none"
    if outcome.status != status:
        raise WrongAnswer(f"{inst.name}: status {outcome.status}, reference {status} ({inst.source})")
    if outcome.status == "found" and not reference.is_ids(inst.graph.n, inst.arcs, outcome.set):
        raise WrongAnswer(f"{inst.name}: returned set is not an independent dominating set")


def _pairs(stdout: str) -> dict:
    kv = {}
    for token in stdout.split():
        key, eq, value = token.partition("=")
        if eq:
            kv[key] = value
    return kv


def _ints(raw: str) -> list[int]:
    raw = raw.strip("[]")
    return [int(x) for x in raw.split(",")] if raw else []


def _doc(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_analyze(inst, stdout: str, as_json: bool) -> bool:
    st = inst.structure
    if as_json:
        doc = _doc(stdout)
        if not isinstance(doc, dict) or "period" not in doc:
            return False
        got = (doc["period"], doc["sccs"], None, doc.get("layers"))
    else:
        kv = _pairs(stdout)
        if "period" not in kv:
            return False
        layers = _ints(kv["layers"]) if "layers" in kv else None
        got = (int(kv["period"]), int(kv["sccs"]), len(_ints(kv["source_sccs"])), layers)
    period, n_sccs, n_sources, layers = got
    want_layers = st.strongly_connected and st.n >= 2
    if (
        period != st.period
        or n_sccs != st.sccs
        or (n_sources is not None and n_sources != st.source_sccs)
        or want_layers != (layers is not None)
        or (layers is not None and (len(layers) != st.period or sum(layers) != st.n))
    ):
        raise WrongAnswer(f"{inst.name}: analyze printed {got}, reference period={st.period} sccs={st.sccs}")
    return True


def check_solve(inst, stdout: str, as_json: bool) -> bool:
    if as_json:
        doc = _doc(stdout)
        if not isinstance(doc, dict) or "status" not in doc:
            return False
        status, members = doc["status"], doc.get("set")
    else:
        kv = _pairs(stdout)
        if "status" not in kv:
            return False
        status = kv["status"]
        members = _ints(kv["set"]) if "set" in kv else None
    want = "found" if inst.exists else "none"
    if status != want:
        raise WrongAnswer(f"{inst.name}: idom solve said {status}, reference {want} ({inst.source})")
    if status == "found" and (members is None or not reference.is_ids(inst.graph.n, inst.arcs, members)):
        raise WrongAnswer(f"{inst.name}: idom solve printed an invalid set")
    return True


def check_verify(inst, members, stdout: str) -> bool:
    kv = _pairs(stdout)
    if "ids" not in kv:
        return False
    indep, dom = reference.check_ids(inst.graph.n, inst.arcs, members)
    want = {"independent": indep, "dominating": dom, "ids": indep and dom}
    got = {k: kv.get(k) == "true" for k in want}
    if got != want:
        raise WrongAnswer(f"{inst.name}: idom verify printed {got}, reference {want}")
    return True


def check_brute(inst, what: str, stdout: str) -> bool:
    lines = stdout.split()
    if len(lines) != 1:
        return False
    want = inst.oracle[what]
    if what == "exist":
        text = "true" if want else "false"
    else:
        text = "none" if want is None else str(want)
    if lines[0] != text:
        raise WrongAnswer(f"{inst.name}: idom brute --what {what} printed {lines[0]}, reference {text}")
    return True


def check_gen(label: str, n: int, m: int | None, stdout: str) -> bool:
    lines = stdout.splitlines()
    try:
        got_n, got_m = (int(x) for x in lines[0].split())
    except (IndexError, ValueError):
        return False
    if got_n != n or (m is not None and got_m != m) or len(lines) != got_m + 1:
        raise WrongAnswer(f"idom gen {label}: printed n={got_n} m={got_m}, documented n={n} m={m}")
    return True


# ---------------------------------------------------------------- calls


@dataclass
class Call:
    name: str
    argv: list[str]
    check: Callable[[str], bool]  # False: no status line; raises WrongAnswer
    codes: tuple[int, ...] = (0,)
    inst: object = None


def invalid_set(inst) -> list[int]:
    """Both ends of the first arc: never independent. Empty if no arcs."""
    return list(inst.arcs[0]) if inst.arcs else []


def methods_for(inst) -> list[str]:
    st = inst.structure
    out = ["auto", "exact"]
    if st.acyclic:
        out.append("dag")
    if st.strongly_connected and st.n >= 2:
        out.append("layers")
        if st.period % 2 == 0:
            out.append("even")
    if st.underlying_bipartite:
        out.append("bipartite")
    if st.n <= 20:
        out.append("brute")
    return out


def build_calls(name: str, instances, seed: int, workdir: str) -> list[Call]:
    calls = []

    def solve_call(inst, method="auto", extra=()):
        as_json = "--json" in extra
        codes = (0, 1) if "--status-exit" in extra else (0,)
        calls.append(Call(
            f"solve:{method}{''.join(extra)}:{inst.name}",
            ["solve", inst.path, "--method", method, *extra],
            lambda out, i=inst, j=as_json: check_solve(i, out, j),
            codes, inst,
        ))

    def verify_call(inst, members, label):
        calls.append(Call(
            f"verify:{label}:{inst.name}",
            ["verify", inst.path, "--set", ",".join(map(str, members))],
            lambda out, i=inst, s=members: check_verify(i, s, out),
            inst=inst,
        ))

    def analyze_call(inst, as_json=False):
        calls.append(Call(
            f"analyze:{inst.name}",
            ["analyze", inst.path] + (["--json"] if as_json else []),
            lambda out, i=inst, j=as_json: check_analyze(i, out, j),
            inst=inst,
        ))

    for inst in instances:
        if name == "search-hard":
            solve_call(inst)
            continue
        analyze_call(inst, as_json=name == "cli-mix" and not inst.brute)
        if name == "scale-ladder":
            solve_call(inst)
            members = inst.found_set if inst.exists else invalid_set(inst)
            verify_call(inst, members, "found" if inst.exists else "invalid")
            continue
        for method in methods_for(inst):
            solve_call(inst, method)
        solve_call(inst, "auto", ("--json", "--status-exit"))
        if inst.exists:
            verify_call(inst, inst.found_set, "found")
        verify_call(inst, invalid_set(inst), "invalid")
        if inst.brute:
            for what in ("exist", "i", "gamma", "idomatic"):
                calls.append(Call(
                    f"brute:{what}:{inst.name}", ["brute", inst.path, "--what", what],
                    lambda out, i=inst, w=what: check_brute(i, w, out), inst=inst,
                ))
    if name == "cli-mix":
        calls += gen_calls(seed, workdir)
    return calls


def gen_calls(seed: int, workdir: str) -> list[Call]:
    """One `idom gen` per family, checked against the documented n and m."""
    a, b = os.path.join(workdir, "gen-a.txt"), os.path.join(workdir, "gen-b.txt")
    with open(a, "w", encoding="ascii") as fh:
        fh.write("3 3\n0 1\n1 2\n2 0\n")
    with open(b, "w", encoding="ascii") as fh:
        fh.write("4 3\n0 1\n1 2\n2 3\n")
    s = str(seed)
    dhk_n = 4 + 14 + 14  # h=3: label layer, two subset layers of 2^4 - 2
    specs = [
        (["cycle", "9"], 9, 9),
        (["path", "20"], 20, 19),
        (["wheel", "6"], 7, 12),
        (["paw"], 4, 4),
        (["dhk", "3", "4", "--variant", "ids"], dhk_n, None),
        (["product", a, b], 12, 3 * 4 + 3 * 3),
        (["double", b], 4, 6),
        (["random-dag", "12", "0.25", "--seed", s], 12, None),
        (["random-bipartite", "6", "6", "0.4", "--seed", s], 12, None),
        (["random-layered", "4", "3", "0.5", "--seed", s], 12, None),
        (["random-digraph", "12", "0.2", "--seed", s], 12, None),
    ]
    return [
        Call(
            f"gen:{args[0]}", ["gen", *args],
            lambda out, label=args[0], n=n, m=m: check_gen(label, n, m, out),
        )
        for args, n, m in specs
    ]


class Spawner:
    """The small child process that starts and times every `idom` child,
    one at a time (see spawner.py)."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC, IDOM_BUDGET=str(BUDGET))
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.maxrss_kb = 0

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": CALL_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        self.maxrss_kb = reply["maxrss_kb"]
        return reply

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_cli(call: Call, spawner: Spawner) -> tuple[float, str | None]:
    """Wall ms of one `idom` child and its failure class (None: correct)."""
    reply = spawner.run([sys.executable, "-c", ENTRY, *call.argv])
    if reply["timed_out"]:
        return reply["ms"], "timeout"
    if "Traceback (most recent call last)" in reply["stderr"]:
        return reply["ms"], "traceback"
    if reply["returncode"] == 3:
        return reply["ms"], "budget"
    if reply["returncode"] not in call.codes:
        return reply["ms"], "bad_exit"
    if not call.check(reply["stdout"]):
        return reply["ms"], "missing_status"
    return reply["ms"], None


def run_lib(il, inst):
    """(ms, failure class, outcome) of solve_auto on the set-up graph."""
    t0 = time.perf_counter()
    try:
        outcome = il.solve_auto(inst.graph, BUDGET)
    except (il.BudgetExceeded, il.CapExceeded):
        return (time.perf_counter() - t0) * 1000, "budget", None
    except Exception:  # a crash of the solver is a failure class, not an abort
        return (time.perf_counter() - t0) * 1000, "traceback", None
    ms = (time.perf_counter() - t0) * 1000
    check_outcome(inst, outcome)
    return ms, None, outcome


# ---------------------------------------------------------------- statistics


def tail(values: list[float]) -> tuple[float, int]:
    """(value, p) for p the highest whole percentile with at least 10 values
    beyond it; the median when there are too few values for that."""
    pct = max(50, math.floor(100 * (len(values) - 10) / len(values)))
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)], pct


def run_passes(one_pass, seconds: float) -> tuple[int, float]:
    """Run passes while the next one should end within `seconds`; at least
    one. Returns the number of passes and the time they took."""
    t_start = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (passes + 1) / passes > seconds:
            return passes, elapsed


def group_ms(spans, group: str) -> float:
    return sum(
        (s[shims.END] - s[shims.START]) * 1000
        for s in spans if s[shims.OUTER] and shims.group_of(s[shims.NAME]) == group
    )


# ---------------------------------------------------------------- runs


def measure(workload, seed, instances, calls, il, seconds, failures, spawner, setup_times):
    solves = instances * workload.lib_rounds
    lib_ms = [[] for _ in solves]
    cli_ms = [[] for _ in calls]
    rebuild_dir = os.path.join(os.path.dirname(instances[0].path), "rebuild")
    # Library solves and rebuilds of the instances are spread evenly among the
    # `idom` calls, so all three see the same mix of quiet and busy moments of
    # the machine. Rebuilds go to their own files and are then dropped.
    order = sorted(
        [(k / len(solves), "lib", k) for k in range(len(solves))]
        + [(k / len(calls), "cli", k) for k in range(len(calls))]
        + [(k / SETUP_PER_PASS, "setup", k) for k in range(SETUP_PER_PASS)]
    )

    def one_pass():
        for _, kind, k in order:
            if kind == "setup":
                t0 = time.perf_counter()
                write_instances(workload.build(seed), rebuild_dir, il)
                setup_times.append(time.perf_counter() - t0)
                continue
            if kind == "cli":
                ms, fail = run_cli(calls[k], spawner)
                cli_ms[k].append(ms)
            else:
                ms, fail, _ = run_lib(il, solves[k])
                lib_ms[k].append(ms)
            failures[fail or "ok"] += 1

    passes, measured = run_passes(one_pass, seconds)
    # Every pass makes the same calls. Each call's time is the median over
    # the passes, so the statistics below do not depend on how many passes
    # fit in the run.
    lib_call = [statistics.median(samples) for samples in lib_ms]
    cli_call = [statistics.median(samples) for samples in cli_ms]
    lib_tail, lib_pct = tail(lib_call)
    cli_tail, cli_pct = tail(cli_call)
    metrics = {
        "cli_p50_ms": statistics.median(cli_call),
        "cli_tail_ms": cli_tail,
        "cli_calls_per_s": 1000 * len(cli_call) / sum(cli_call),
        "lib_p50_ms": statistics.median(lib_call),
        "lib_tail_ms": lib_tail,
        "lib_solves_per_s": 1000 * len(lib_call) / sum(lib_call),
        "peak_rss_mb": spawner.maxrss_kb / 1024,
    }
    detail = {
        "passes": passes,
        "cli_calls": len(cli_call),
        "cli_tail_percentile": cli_pct,
        "lib_solves": len(lib_call),
        "lib_tail_percentile": lib_pct,
        "measured_s": measured,
        "cli_ms": {c.name: t for c, t in zip(calls, cli_call)},
        "lib_ms": {f"{i.name}#{k // len(instances)}": t for k, (i, t) in enumerate(zip(solves, lib_call))},
    }
    return metrics, detail


def traced_pass(il, instances, name, tracer, failures):
    """In-process equivalents of the workload's `idom` calls, under the shims.
    Returns the solve outcomes, None for a failed one."""
    outcomes = []
    for inst in instances:
        tracer.tag = inst.name
        with open(inst.path, encoding="ascii") as fh:
            graph = il.parse_digraph(fh.read()).graph
        if name != "search-hard":
            il.period(graph)
            il.condensation(graph)
            if graph.n >= 2 and il.is_strongly_connected(graph):
                il.layer_decomposition(graph)
        try:
            outcome = il.solve_auto(graph, BUDGET)
        except (il.BudgetExceeded, il.CapExceeded):
            failures["budget"] += 1
            outcomes.append(None)
            continue
        except Exception:  # as in run_lib
            failures["traceback"] += 1
            outcomes.append(None)
            continue
        failures["ok"] += 1
        check_outcome(inst, outcome)
        outcomes.append(outcome)
        if name != "search-hard":
            il.is_ids(graph, inst.found_set if inst.exists else invalid_set(inst))
        if inst.brute:
            outcomes.append(il.brute_force_solve(graph))
            il.min_ids_size_brute(graph)
            il.min_dom_size_brute(graph)
            il.idomatic_brute(graph)
    tracer.tag = ""
    return outcomes


# Stages that ought to be linear, by shim group.
LADDER_STAGES = (
    "digraph.parse",
    "digraph.verify",
    "structure.sccs",
    "structure.period",
    "structure.layer_decomposition",
    "solvers.closure",
)


def doubling_ratios(il, ladder, passes: int) -> tuple[dict, dict]:
    """Per stage, the largest per-family growth per doubling of n between the
    2n and 4n rungs (stage time summed over the instance's calls, median over
    passes). Families whose 2n time is under 0.2 ms are too noisy to count
    unless no family reaches it."""
    per: dict = defaultdict(list)  # (instance, stage) -> ms per pass
    for _ in range(passes):
        with shims.Tracer() as tracer:
            traced_pass(il, ladder, "scale-ladder", tracer, Counter())
        sums: dict = defaultdict(float)
        for s in tracer.spans:
            if s[shims.OUTER]:
                stage = shims.group_of(s[shims.NAME])
                sums[(s[shims.TAG], stage)] += (s[shims.END] - s[shims.START]) * 1000
        for inst in ladder:
            for stage in LADDER_STAGES:
                per[(inst.name, stage)].append(sums.get((inst.name, stage), 0.0))
    by_family = defaultdict(dict)
    for inst in ladder:
        by_family[inst.family][inst.rung] = inst
    ratios, worst = {}, {}
    for stage in LADDER_STAGES:
        best, best_family, fallback = None, None, None
        for family, rungs in by_family.items():
            mid, top = rungs[1], rungs[2]
            t_mid = statistics.median(per[(mid.name, stage)])
            t_top = statistics.median(per[(top.name, stage)])
            if t_mid <= 0 or t_top <= 0:
                continue
            r = (t_top / t_mid) ** (1 / math.log2(top.graph.n / mid.graph.n))
            if fallback is None or r > fallback[0]:
                fallback = (r, family)
            if t_mid >= 0.2 and (best is None or r > best):
                best, best_family = r, family
        if best is None:
            best, best_family = fallback or (math.nan, None)
        ratios[f"{stage}.doubling_ratio"] = best
        worst[stage] = best_family
    return ratios, worst


def cli_startup_ms(spawner: Spawner, reps: int = 5) -> float:
    bare, full = [], []
    for _ in range(reps):
        for cmd, out in (("pass", bare), ("import idomlib.cli", full)):
            reply = spawner.run([sys.executable, "-c", cmd])
            if reply["returncode"] != 0:
                raise RuntimeError(f"python -c {cmd!r} failed: {reply['stderr']}")
            out.append(reply["ms"])
    return statistics.median(full) - statistics.median(bare)


def cli_overhead_ms(il, calls, spawner, failures) -> float:
    """CLI wall time minus in-process parse and solve, for up to 8 auto solves."""
    solves = [c for c in calls if c.name.startswith("solve:auto:")]
    step = max(1, len(solves) // 8)
    diffs = []
    for call in solves[::step][:8]:
        with open(call.inst.path, encoding="ascii") as fh:
            text = fh.read()
        for _ in range(2):
            wall, fail = run_cli(call, spawner)
            failures[fail or "ok"] += 1
            t0 = time.perf_counter()
            il.solve_auto(il.parse_digraph(text).graph, BUDGET)
            diffs.append(wall - (time.perf_counter() - t0) * 1000)
    return statistics.median(diffs)


def trace_run(name, seed, seconds, instances, calls, il, failures, workdir, gen_ms, spawner):
    import workloads

    t_start = time.perf_counter()
    metrics: dict = {"generators.build_ms": statistics.median(gen_ms)}
    # Tracing overhead: the same solve_auto calls without and with shims.
    plain, traced = [], []
    for _ in range(2):
        t0 = time.perf_counter()
        for inst in instances:
            run_lib(il, inst)
        plain.append(time.perf_counter() - t0)
        with shims.Tracer():
            t0 = time.perf_counter()
            for inst in instances:
                run_lib(il, inst)
            traced.append(time.perf_counter() - t0)
    metrics["trace.overhead_pct"] = 100 * (min(traced) / min(plain) - 1)

    if name == "scale-ladder":
        ladder = instances
    else:
        ladder = answer(workloads.scale_ladder(seed))
        write_instances(ladder, os.path.join(workdir, "ladder"), il)
        warm_up(il, ladder)
    ratios, worst = doubling_ratios(il, ladder, passes=3)
    metrics.update(ratios)
    if name != "cli-mix":
        mix = answer(workloads.cli_mix(seed))
        write_instances(mix, os.path.join(workdir, "mix"), il)
        warm_up(il, mix)
        oracle_ms, oracle_subsets = [], []
        for _ in range(3):
            with shims.Tracer() as tracer:
                outcomes = traced_pass(il, mix, "cli-mix", tracer, Counter())
            oracle_ms.append(sum(
                d["ms"] for fn, d in shims.summarize(tracer.spans).items()
                if shims.group_of(fn) == "solvers.oracle"
            ))
            oracle_subsets.append(sum(
                o.stats.subsets_explored for o in outcomes if o is not None and o.method == "brute"
            ))
        metrics["solvers.oracle_ms"] = statistics.median(oracle_ms)
        metrics["solvers.oracle.subsets_explored"] = statistics.median(oracle_subsets)

    metrics["cli.startup_ms"] = cli_startup_ms(spawner)
    metrics["cli.overhead_ms"] = cli_overhead_ms(il, calls, spawner, failures)

    # The traced passes of the workload's own calls fill the rest of the run.
    per_pass: dict = defaultdict(list)
    spans_out = []
    missing: list = []

    def one_pass():
        nonlocal missing
        with shims.Tracer() as tracer:
            outcomes = traced_pass(il, instances, name, tracer, failures)
        missing = tracer.missing
        offset = len(spans_out)
        spans_out.extend(
            s[:shims.PARENT] + [s[shims.PARENT] + offset if s[shims.PARENT] >= 0 else -1, s[shims.TAG]]
            for s in tracer.spans
        )
        summ = shims.summarize(tracer.spans)
        gone = {m.split(".")[1] for m in missing}
        # A metric of a function that is no longer there reads NaN and is
        # left out of the result, rather than reading zero.
        get = lambda fn, key: math.nan if fn in gone else summ.get(fn, {}).get(key, 0)
        solves = [o for o in outcomes if o is not None and o.method != "brute"]
        brutes = [o for o in outcomes if o is not None and o.method == "brute"]
        seeds = sum(o.stats.seeds_explored for o in solves)
        row = {
            "digraph.parse_ms": get("parse_digraph", "ms"),
            "digraph.verify_ms": get("is_ids", "ms"),
            "digraph.induced_subgraph.calls": get("induced_subgraph", "calls"),
            "digraph.induced_subgraph.self_ms": get("induced_subgraph", "self_ms"),
            "structure.sccs.calls": get("sccs", "calls"),
            "structure.sccs_ms": get("sccs", "ms"),
            "structure.scc_period.calls": get("scc_period", "calls"),
            "structure.period_ms": get("period", "ms") + get("scc_period", "ms"),
            "structure.layer_decomposition.calls": get("layer_decomposition", "calls"),
            "structure.layer_decomposition_ms": get("layer_decomposition", "ms"),
            "structure.condensation_ms": get("condensation", "ms"),
            "solvers.closure.calls": get("forced_sources_closure", "calls"),
            "solvers.closure_ms": get("forced_sources_closure", "ms"),
            "solvers.solve.self_ms": sum(
                d["self_ms"] for fn, d in summ.items() if shims.group_of(fn) == "solvers.solve"
            ),
            "solvers.seeds_explored": seeds,
            "solvers.subsets_explored": sum(o.stats.subsets_explored for o in solves),
            "solvers.recursion_depth_max": max((o.stats.recursion_depth for o in solves), default=0),
            "solvers.budget_exhausted": outcomes.count(None),
            "solvers.verdicts_per_kseed": 1000 * len(solves) / max(1, seeds),
        }
        if name == "cli-mix":
            row["solvers.oracle_ms"] = sum(
                d["ms"] for fn, d in summ.items() if shims.group_of(fn) == "solvers.oracle"
            )
            row["solvers.oracle.subsets_explored"] = sum(o.stats.subsets_explored for o in brutes)
        for key, value in row.items():
            per_pass[key].append(value)

    passes, _ = run_passes(one_pass, seconds - (time.perf_counter() - t_start))
    for key, values in per_pass.items():
        metrics[key] = math.nan if any(map(math.isnan, values)) else statistics.median(values)

    with shims.Tracer() as tracer:
        il.solve_auto(il.gen_cycle(10))
    sanity = {"solve_auto(gen_cycle(10)) sccs calls": shims.summarize(tracer.spans)["sccs"]["calls"]}
    detail = {
        "passes": passes,
        "missing_shims": missing,
        "doubling_ratio_family": worst,
        "sanity": sanity,
    }
    return metrics, detail, spans_out


def write_instances(instances, workdir: str, il) -> None:
    os.makedirs(workdir, exist_ok=True)
    for inst in instances:
        inst.path = os.path.join(workdir, inst.name + ".txt")
        with open(inst.path, "w", encoding="ascii") as fh:
            fh.write(il.format_arc_list(inst.graph))


def warm_up(il, instances) -> None:
    """One untimed solve per instance: fills lazy caches, checks the answers
    and keeps each found set for the `verify` calls."""
    for inst in instances:
        _, fail, outcome = run_lib(il, inst)
        inst.found_set = sorted(outcome.set) if outcome is not None and outcome.found else None
        if inst.exists and inst.found_set is None:
            # The library failed on a solvable instance: take the reference's set.
            inst.found_set = reference.milp_ids(inst.graph.n, inst.arcs)


def provenance() -> dict:
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="ascii") as fh:
                    commit = fh.read().strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    start_info = provenance()
    il = load_idomlib()
    import workloads

    workload = workloads.WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = os.path.join(OUT, tag)
    os.makedirs(workdir, exist_ok=True)
    failures: Counter = Counter()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "budget": BUDGET, "why": workload.why,
        "stresses": workload.stresses, "bypasses": workload.bypasses, **start_info,
    }
    correct = True
    metrics: dict = {}
    try:
        tracer = shims.Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            built, setup_times, gen_ms = setup(workload, seed, workdir, il, tracer)
        finally:
            if tracer:
                tracer.remove()
        t0 = time.perf_counter()
        instances = answer(built)
        record["reference_s"] = time.perf_counter() - t0
        used = {id(i) for i in instances}
        record["setup_reps_s"] = setup_times
        record["manifest"] = [
            {
                "name": i.name, "family": i.family, "params": i.params,
                "n": i.graph.n, "m": i.graph.m, "rung": i.rung,
                "expected": "found" if i.exists else "none", "source": i.source,
                "used": id(i) in used,
            }
            for i in built
        ]
        warm_up(il, instances)
        calls = build_calls(name, instances, seed, workdir)
        with Spawner() as spawner:
            run_cli(calls[0], spawner)  # untimed: leaves the byte-code cache warm
            if trace:
                metrics, detail, spans = trace_run(
                    name, seed, seconds, instances, calls, il, failures, workdir, gen_ms, spawner,
                )
                with open(os.path.join(OUT, tag + "-spans.jsonl"), "w", encoding="ascii") as fh:
                    for s in spans:
                        fh.write(json.dumps(s) + "\n")
            else:
                metrics, detail = measure(
                    workload, seed, instances, calls, il, seconds, failures, spawner, setup_times,
                )
                metrics["setup_s"] = statistics.median(setup_times)
        record.update(detail)
    except WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        correct = False
    attempted = sum(failures.values())
    failed = attempted - failures["ok"]
    metrics["ok_share"] = 1 - failed / max(1, attempted)
    record["failure_classes"] = {k: v for k, v in failures.items() if k != "ok" and v}
    record["fail_share"] = failed / max(1, attempted)
    units = metric_units("per_layer" if trace else "end_to_end")
    record["missing_metrics"] = [k for k in units if not math.isfinite(metrics.get(k, math.nan))]
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u}
            for k, u in units.items() if k not in record["missing_metrics"]
        },
    }
    record["result"] = result
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    for k, m in result["metrics"].items():
        print(f"{name}  {k} = {m['value']:.6g} {m['unit']}")
    if trace:
        print(f"{name}  sanity: {record.get('sanity')}  missing shims: {record.get('missing_shims')}")
    print(f"{name}  attempted={result['attempted']} failed={failed} classes={record['failure_classes']}")
    print(json.dumps(result))
    return 0 if correct else 1


def metric_units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = run_one(name, args.seed, args.seconds, bool(args.trace)) or status
    return status

if __name__ == "__main__":
    sys.exit(main())
