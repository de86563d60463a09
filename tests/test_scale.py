"""The scale ladder: CLI commands on large games, each under a bound.

Each row runs one command as a subprocess on a directory of game documents
that its builder writes. The row must exit 0 within its bound, in seconds,
and print its expected last line.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC.parent / "bench" / "data"


def write_document(path: Path, quota: int, weights) -> None:
    document = {"quota": str(quota), "weights": [str(w) for w in weights]}
    path.write_text(json.dumps(document))


def majority(seed: int, n: int, count: int = 1):
    """A builder: ``count`` games drawn from ``random.Random(seed)``.

    Each game has n weights drawn with ``randint(1, 99)``, and its quota is
    half the total plus one.
    """

    def build(directory: Path) -> None:
        rng = random.Random(seed)
        for k in range(count):
            weights = [rng.randint(1, 99) for _ in range(n)]
            write_document(directory / f"majority_{k}.json", sum(weights) // 2 + 1, weights)

    return build


def powers_of_two(directory: Path) -> None:
    """Weights 2**0..2**19 with the quota at their total: every coalition weighs differently."""
    weights = [1 << i for i in range(20)]
    write_document(directory / "powers_of_two.json", sum(weights), weights)


def eu_council(directory: Path) -> None:
    shutil.copy(DATA / "eu_council_nice.json", directory)


# Per row: the argv after ``wmpower``, with "{games}" standing for the
# directory of documents; the builder of that directory; the bound; the last
# line.
ROWS = {
    # The single-mwc decomposition of the 18-player game has 6,512 components.
    "axioms_dp_thm1_n18": (
        ["axioms", "--index", "dp", "--suite", "thm1", "--games", "{games}"],
        majority(18000, 18),
        20,
        "satisfied on this evidence: EFF, NP, DPMw",
    ),
    # HCM passes SYMw, so each of the 6,512 components is checked to its end.
    "axioms_hcm_thm2_n18": (
        ["axioms", "--index", "hcm", "--suite", "thm2", "--games", "{games}"],
        majority(18000, 18),
        20,
        "satisfied on this evidence: EFF, NP, SYMw, HCMw",
    ),
    # The EU Council alone: its null players and symmetric pairs read the sums
    # its coalitions reach, and no mwc is listed.
    "axioms_ss_classic_eu_council": (
        ["axioms", "--index", "ss", "--suite", "classic", "--games", "{games}"],
        eu_council,
        10,
        "satisfied on this evidence: EFF, NP, SYM, TRA, DPM, PGM",
    ),
    # The null-player check reads reachable sums.
    "axioms_dp_thm1_powers20": (
        ["axioms", "--index", "dp", "--suite", "thm1", "--games", "{games}"],
        powers_of_two,
        10,
        "satisfied on this evidence: EFF, NP, DPMw",
    ),
    # SS and BZ of the two induced games, their join and their meet walk each
    # bare simple game's coalitions once.
    "axioms_ss_classic_majority12": (
        ["axioms", "--index", "ss", "--suite", "classic", "--games", "{games}"],
        majority(240206298, 12, count=2),
        10,
        "satisfied on this evidence: EFF, NP, SYM, TRA, DPM, PGM",
    ),
    "axioms_bz_classic_majority12": (
        ["axioms", "--index", "bz", "--suite", "classic", "--games", "{games}"],
        majority(240206298, 12, count=2),
        10,
        "satisfied on this evidence: EFF, NP, SYM, DPM, PGM",
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_row_answers_within_its_bound(tmp_path, row):
    argv, build, bound, last_line = ROWS[row]
    games = tmp_path / "games"
    games.mkdir()
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
