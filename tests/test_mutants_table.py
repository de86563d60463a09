"""The mutation probe's table stays current: each mutated line is still in its module."""

import pytest

import mutants


@pytest.mark.parametrize("number", range(1, len(mutants.MUTANTS) + 1))
def test_each_mutated_line_occurs_once_in_its_module(number):
    # An edit to a mutated line fails here until its row follows the edit.
    module, line, replacement, tests, outcome = mutants.MUTANTS[number - 1]
    assert len(mutants.located(module, line)) == 1
    assert replacement != line
    assert all((mutants.ROOT / path).is_file() for path in tests)
    assert outcome == "killed" or outcome.startswith("equivalent: ")
