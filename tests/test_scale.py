"""The scale ladder: CLI commands on large seeded majority games, each under a bound.

Each row runs one command as a subprocess on a seeded majority document:
``random.Random(1000 * n)`` draws n weights with ``randint(1, 99)``, and the
quota is half the total plus one. The row must exit 0 within its bound, in
seconds, and print its expected last line.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Per row: the argv after ``wmpower``, with "{games}" standing for the
# directory of the document; the player count; the bound; the last line.
ROWS = {
    # The single-mwc decomposition of the 18-player game has 6,512 components.
    "axioms_dp_thm1_n18": (
        ["axioms", "--index", "dp", "--suite", "thm1", "--games", "{games}"],
        18,
        20,
        "satisfied on this evidence: EFF, NP, DPMw",
    ),
}


def majority_dir(root: Path, n: int) -> Path:
    """A directory holding the seeded n-player majority document."""
    rng = random.Random(1000 * n)
    weights = [rng.randint(1, 99) for _ in range(n)]
    document = {"quota": str(sum(weights) // 2 + 1), "weights": [str(w) for w in weights]}
    directory = root / f"majority{n}"
    directory.mkdir()
    (directory / "majority_0.json").write_text(json.dumps(document))
    return directory


@pytest.mark.parametrize("row", ROWS)
def test_row_answers_within_its_bound(tmp_path, row):
    argv, n, bound, last_line = ROWS[row]
    games = majority_dir(tmp_path, n)
    result = subprocess.run(
        [sys.executable, "-m", "wmpower.cli", *(token.format(games=games) for token in argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=bound,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == last_line
