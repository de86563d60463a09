"""The scale ladder: CLI commands on large games, each under a bound.

Each row of ``ladder.ROWS`` runs one command as a subprocess on a directory
of game documents that its builder writes. The row must exit 0 within its
bound, in seconds, and print its expected last line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wmpower
from ladder import ROWS

# The directory that holds the package under test, which need not be this
# checkout's src/: a mutated copy, or an installed wheel.
SRC = Path(wmpower.__file__).resolve().parents[1]


@pytest.mark.parametrize("row", ROWS)
def test_row_answers_within_its_bound(tmp_path, row):
    argv, build, bound, last_line = ROWS[row]
    games = tmp_path / "games"
    build(games)
    result = subprocess.run(
        [sys.executable, "-m", "wmpower.cli", *(token.format(games=games) for token in argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=bound,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == last_line
