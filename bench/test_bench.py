"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time

import pytest

import spawn
from check import check
from oracle import load_test_oracles
from run import ROOT, WORK
from workloads import DATA, WORKLOADS

ORACLES = load_test_oracles(ROOT)


def build(workload: str, seed: int, name: str):
    work = WORK / "test" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = WORKLOADS[workload](seed, work, ROOT, ORACLES)
    files = {p.relative_to(work): p.read_bytes() for p in sorted(work.rglob("*.json"))}
    argvs = [[arg.replace(str(work.relative_to(ROOT)), "WORK") for arg in op.argv] for op in ops]
    return ops, argvs, files


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    ops_a, argv_a, files_a = build(workload, 7, "a")
    ops_b, argv_b, files_b = build(workload, 7, "b")
    assert argv_a == argv_b
    assert files_a == files_b
    assert [op.stdout for op in ops_a] == [op.stdout for op in ops_b]
    _, argv_c, files_c = build(workload, 8, "c")
    assert (argv_c, files_c) != (argv_a, files_a)
    assert len(ops_a) >= 100


def perturb_first_numerator(text: str) -> str:
    match = re.search(r'"(\d+)/(\d+)"', text)
    assert match, "no exact p/q value in the output"
    bumped = f'"{int(match.group(1)) + 1}/{match.group(2)}"'
    return text[: match.start()] + bumped + text[match.end() :]


def test_checker_rejects_numerator_off_by_one():
    ops, _, _ = build("index-ladder", 3, "a")
    power = next(op for op in ops if op.argv[0] == "power" and op.stdout)
    assert check(power, 0, power.stdout, "") is None
    assert check(power, 0, perturb_first_numerator(power.stdout), "") is not None
    eu = ops[-1]
    assert eu.cell == "eu27/ss"
    result = spawn.run([spawn.PYTHON, "-m", "wmpower.cli", *eu.argv], spawn.python_env(ROOT), 60, WORK / "test" / "a")
    assert check(eu, result.exit_code, result.stdout, result.stderr) is None
    assert check(eu, 0, perturb_first_numerator(result.stdout), "") is not None


def test_checker_rejects_wrong_exit_codes_and_tracebacks():
    ops, _, _ = build("tables-small", 3, "a")
    power = next(op for op in ops if op.kind == "power")
    refused = next(op for op in ops if op.kind == "refused")
    assert check(power, 1, power.stdout, "") is not None
    assert check(power, None, "", "") == "timed out"
    assert check(power, 0, power.stdout, "Traceback (most recent call last):") is not None
    assert check(refused, 2, "", "error: malformed rational '2/x'") is None
    assert check(refused, 0, "", "") is not None
    assert check(refused, 1, "", "internal error: ValueError()") is not None


def test_checker_rejects_an_invalid_counterexample():
    ops, _, _ = build("tables-small", 3, "a")
    (merge,) = [op for op in ops if op.kind == "merge" and "nonmergeable" in op.argv[2] and len(op.argv) == 3]
    report = (
        "condition 1 (equal quotas): PASS\n"
        "condition 2 (weight compatibility): PASS\n"
        "condition 3 (jointly losing stays losing): FAIL  counterexample: {}\n"
        "condition 4 (MWC count additivity): FAIL  union has 3, components total 2\n"
        "WM-mergeable: no\n"
    )
    assert check(merge, 0, report.format("{0, 2}"), "") is None
    assert check(merge, 0, report.format("{1, 2}"), "") is not None  # {1, 2} wins in [4; 0, 2, 3]
    assert check(merge, 0, report.format("{0, 1, 2}"), "") is not None  # not a proper coalition


def test_infeasible_op_times_out_promptly_and_leaves_no_child():
    scratch = WORK / "test" / "timeout"
    scratch.mkdir(parents=True, exist_ok=True)
    eu = str((DATA / "eu_council_nice.json").relative_to(ROOT))
    os.chdir(ROOT)
    start = time.perf_counter()
    result = spawn.run([spawn.PYTHON, "-m", "wmpower.cli", "mwc", "--game", eu], spawn.python_env(ROOT), 1.0, scratch)
    elapsed = time.perf_counter() - start
    assert result.exit_code is None
    assert result.wall_s == 1.0
    assert elapsed < 3.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_traced_driver_prints_what_the_cli_prints_and_nests_enumeration():
    scratch = WORK / "test" / "traced"
    scratch.mkdir(parents=True, exist_ok=True)
    game = str((DATA / "reference_game.json").relative_to(ROOT))
    argv = ["power", "--game", game, "--index", "dp,hcm", "--exact", "--format", "json"]
    env = spawn.python_env(ROOT)
    os.chdir(ROOT)
    plain = spawn.run([spawn.PYTHON, "-m", "wmpower.cli", *argv], env, 60, scratch)
    spans_file = scratch / "spans.json"
    traced = spawn.run([spawn.PYTHON, "bench/traced_cli.py", str(spans_file), *argv], env, 60, scratch)
    assert plain.exit_code == traced.exit_code == 0
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_file.read_text())
    names = [s["name"] for s in spans]
    (mwc,) = [s for s in spans if s["name"] == "games.mwc"]
    assert spans[mwc["parent"]]["name"] == "indices.dp"
    assert mwc["emitted"] == 4  # {W, X}, {W, Y}, {W, Z}, {X, Y, Z}
    assert names.count("indices.hcm") == 1 and "probe.simple_game_build" in names
