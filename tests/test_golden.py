"""Replay the recorded CLI runs in tests/golden: argv, exit code, exact stdout and stderr.

The cases were recorded by make_golden.py; rerun it with ``--write`` only when
a change of output is intended.
"""

import json
import sys
from pathlib import Path

import pytest

import make_golden
from make_golden import CASES, GOLDEN, run_case
from package import run_python

AXIOMS = sorted(name for name, argv in CASES.items() if argv[0] == "axioms")
COMMANDS = sorted(name for name, argv in CASES.items() if argv[0] != "axioms")


def replay(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert expected["argv"] == CASES[name]
    assert run_case(expected["argv"]) == expected


@pytest.mark.parametrize("name", AXIOMS)
def test_axioms_output_matches_golden_case(name):
    replay(name)


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_matches_golden_case(name):
    replay(name)


def test_make_golden_reports_the_clean_corpus_unchanged(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["make_golden.py"])
    assert make_golden.main() == 0
    assert "differs" not in capsys.readouterr().out


@pytest.mark.parametrize(
    ("cases", "report"),
    [
        ({"cm_classic": CASES["hcm_classic"]}, "cm_classic: differs"),
        ({"absent_case": CASES["cm_classic"]}, "absent_case: missing"),
    ],
    ids=["differs", "missing"],
)
def test_make_golden_fails_on_a_changed_or_missing_case(monkeypatch, capsys, cases, report):
    monkeypatch.setattr(sys, "argv", ["make_golden.py"])
    monkeypatch.setattr(make_golden, "CASES", cases)
    assert make_golden.main() == 1
    assert capsys.readouterr().out.splitlines() == [report]


# The host's version manager keeps each interpreter in a directory named by
# its version, next to this one's. make_golden.py needs no pytest, so it
# replays the corpus under each of them that is there.
VERSIONS = Path(sys.base_prefix).parent


@pytest.mark.parametrize("minor", ["3.10", "3.12", "3.13"])
def test_golden_corpus_replays_under_other_interpreters(minor):
    pythons = sorted(VERSIONS.glob(f"{minor}.*/bin/python3"))
    if not pythons:
        pytest.skip(f"no Python {minor} in {VERSIONS}")
    result = run_python(make_golden.__file__, python=str(pythons[-1]), timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert len(result.stdout.splitlines()) == len(CASES)
