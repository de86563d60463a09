"""The scale ladder: CLI commands on large games, each under a bound.

Each row of ``ladder.ROWS`` runs one command as a subprocess on a directory
of game documents that its builder writes. The row must exit 0 within its
bound, in seconds, and print its expected last line.
"""

import pytest

from ladder import ROWS
from package import run_cli


@pytest.mark.parametrize("row", ROWS)
def test_row_answers_within_its_bound(tmp_path, row):
    argv, build, bound, last_line = ROWS[row]
    games = tmp_path / "games"
    build(games)
    result = run_cli(*(token.format(games=games) for token in argv), timeout=bound)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == last_line
