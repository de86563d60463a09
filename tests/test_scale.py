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


def bits40(n: int):
    """A builder: n weights ``random.Random(n).getrandbits(40) | 1``, quota half the total plus one.

    Coalitions almost never share a weight, so a tally keyed by weight has
    nearly 2**n sums to keep.
    """

    def build(directory: Path) -> None:
        rng = random.Random(n)
        weights = [rng.getrandbits(40) | 1 for _ in range(n)]
        write_document(directory / "bits40.json", sum(weights) // 2 + 1, weights)

    return build


def bz_line(decimals: str) -> str:
    """The last line of ``power --index ss,bz``: the BZ row of the text table."""
    return "  ".join(["BZ   ", *decimals.split()])


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
    # The EU Council alone: its null players and symmetric pairs read the swing
    # tally that SS computed, and no mwc is listed.
    "axioms_ss_classic_eu_council": (
        ["axioms", "--index", "ss", "--suite", "classic", "--games", "{games}"],
        eu_council,
        10,
        "satisfied on this evidence: EFF, NP, SYM, TRA, DPM, PGM",
    ),
    # The null-player check reads the swing tally.
    "axioms_dp_thm1_powers20": (
        ["axioms", "--index", "dp", "--suite", "thm1", "--games", "{games}"],
        powers_of_two,
        10,
        "satisfied on this evidence: EFF, NP, DPMw",
    ),
    # SS and BZ of the two games, their join and their meet read one decision
    # diagram each: a bare simple game's is built from its mwcs.
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
    # The join and the meet have 2,620 and 2,814 mwcs; a walk of their 2**16
    # coalitions, each scanning the mwcs, took about 20 s in all.
    "axioms_ss_classic_majority16": (
        ["axioms", "--index", "ss", "--suite", "classic", "--games", "{games}"],
        majority(240206298, 16, count=2),
        10,
        "satisfied on this evidence: EFF, NP, SYM, TRA, DPM, PGM",
    ),
    # SS and BZ on 40-bit weights read the decision diagram, whose size does
    # not grow with the weights; a tally keyed by coalition weight took
    # minutes at n = 24.
    "power_ss_bz_bits40_n24": (
        ["power", "--index", "ss,bz", "--game", "{games}/bits40.json"],
        bits40(24),
        10,
        bz_line(
            "0.0306 0.0468 0.0170 0.0133 0.0133 0.0548 0.0566 0.0821 0.0652 0.0225 0.0755 0.0011"
            " 0.0371 0.0581 0.0510 0.0022 0.0134 0.0392 0.0687 0.0547 0.0396 0.0819 0.0549 0.0203"
        ),
    ),
    "power_ss_bz_bits40_n32": (
        ["power", "--index", "ss,bz", "--game", "{games}/bits40.json"],
        bits40(32),
        5,
        bz_line(
            "0.0620 0.0094 0.0460 0.0155 0.0016 0.0025 0.0211 0.0215 0.0038 0.0455 0.0670 0.0309"
            " 0.0394 0.0353 0.0520 0.0343 0.0317 0.0512 0.0132 0.0188 0.0620 0.0291 0.0216 0.0023"
            " 0.0345 0.0481 0.0286 0.0281 0.0614 0.0364 0.0148 0.0304"
        ),
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
