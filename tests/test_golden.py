"""Replay the recorded CLI runs in tests/golden: argv, exit code, exact stdout and stderr.

The cases were recorded by make_golden.py; rerun it with ``--write`` only when
a change of output is intended.
"""

import json

import pytest

from make_golden import CASES, GOLDEN, run_case

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
