"""Replay the recorded ``axioms`` runs in tests/golden: argv, exit code and exact stdout.

The cases were recorded by make_golden.py; rerun it with ``--write`` only when
a change of output is intended.
"""

import json

import pytest

from make_golden import CASES, GOLDEN, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_axioms_output_matches_golden_case(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert expected["argv"] == CASES[name]
    assert run_case(expected["argv"]) == expected
