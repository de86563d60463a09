"""The seeded games of the test suite and the scale ladder, each defined once.

Three seeded draws give every large game that a test, the golden corpus or CI
runs, each as a ``(quota, weights)`` pair of ints. A builder writes game
documents into a directory, which it makes if needed. ``ROWS`` is the scale
ladder that tests/test_scale.py runs.

This module uses only the standard library, so make_golden.py runs under
interpreters without pytest, and a script can load it by path. pytest does
not collect it. From a shell, with ``tests`` on ``PYTHONPATH``:

    python -c "import ladder; ladder.bits40(32)('.')"    # writes ./bits40_32.json
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


def majority_games(seed: int, n: int, count: int = 1) -> list[tuple[int, list[int]]]:
    """``count`` games drawn in turn from ``random.Random(seed)``.

    Each has n weights ``randint(1, 99)``, and its quota is half the total plus one.
    """
    rng = random.Random(seed)
    games = []
    for _ in range(count):
        weights = [rng.randint(1, 99) for _ in range(n)]
        games.append((sum(weights) // 2 + 1, weights))
    return games


def bits40_game(n: int) -> tuple[int, list[int]]:
    """n weights ``random.Random(n).getrandbits(40) | 1``, quota half the total plus one.

    Coalitions almost never share a weight; at n <= 20 none do.
    """
    rng = random.Random(n)
    weights = [rng.getrandbits(40) | 1 for _ in range(n)]
    return sum(weights) // 2 + 1, weights


def powers_of_two_game(n: int) -> tuple[int, list[int]]:
    """Weights 2**0..2**(n-1), quota at their total: only the grand coalition wins."""
    weights = [1 << i for i in range(n)]
    return sum(weights), weights


def write_document(path, quota: int, weights) -> None:
    """A game document: quota and weights as strings, indent 2, a final newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"quota": str(quota), "weights": [str(w) for w in weights]}
    path.write_text(json.dumps(document, indent=2) + "\n")


def majority(seed: int, n: int, count: int = 1):
    """A builder: ``majority_games(seed, n, count)`` as ``majority_0.json``, ..."""

    def build(directory) -> None:
        for k, game in enumerate(majority_games(seed, n, count)):
            write_document(Path(directory) / f"majority_{k}.json", *game)

    return build


def bits40(n: int):
    """A builder: ``bits40_game(n)`` as ``bits40_<n>.json``."""

    def build(directory) -> None:
        write_document(Path(directory) / f"bits40_{n}.json", *bits40_game(n))

    return build


def powers_of_two(n: int):
    """A builder: ``powers_of_two_game(n)`` as ``powers_of_two_<n>.json``."""

    def build(directory) -> None:
        write_document(Path(directory) / f"powers_of_two_{n}.json", *powers_of_two_game(n))

    return build


def eu_council(directory) -> None:
    """A builder: the benchmark's EU Council document (27 players, Nice rules)."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    shutil.copy(DATA / "eu_council_nice.json", directory)


def bz_line(decimals: str) -> str:
    """The last line of ``power --index ss,bz``: the BZ row of the text table."""
    return "  ".join(["BZ   ", *decimals.split()])


# Per row: the argv after ``wmpower``, with "{games}" standing for the
# directory of documents; the builder of that directory; the bound, in
# seconds; the last line of standard output.
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
        "satisfied on this evidence: EFF, NP, SYM",
    ),
    # The null-player check reads the swing tally.
    "axioms_dp_thm1_powers20": (
        ["axioms", "--index", "dp", "--suite", "thm1", "--games", "{games}"],
        powers_of_two(20),
        10,
        "satisfied on this evidence: EFF, NP",
    ),
    # SS and BZ of the two games, their join and their meet read one decision
    # diagram each: a bare simple game's is built from its mwcs.
    "axioms_ss_classic_majority12": (
        ["axioms", "--index", "ss", "--suite", "classic", "--games", "{games}"],
        majority(240206298, 12, count=2),
        10,
        "satisfied on this evidence: EFF, NP, SYM, TRA",
    ),
    "axioms_bz_classic_majority12": (
        ["axioms", "--index", "bz", "--suite", "classic", "--games", "{games}"],
        majority(240206298, 12, count=2),
        10,
        "satisfied on this evidence: EFF, NP, SYM",
    ),
    # The join and the meet have 2,620 and 2,814 mwcs; a walk of their 2**16
    # coalitions, each scanning the mwcs, took about 20 s in all.
    "axioms_ss_classic_majority16": (
        ["axioms", "--index", "ss", "--suite", "classic", "--games", "{games}"],
        majority(240206298, 16, count=2),
        10,
        "satisfied on this evidence: EFF, NP, SYM, TRA",
    ),
    # A counting path at n = 64: SS, its null players and its symmetric pairs
    # read the swing tally. One game is in no pair, so TRA, DPM and PGM read
    # NONE and are not satisfied.
    "axioms_ss_classic_majority_n64": (
        ["axioms", "--index", "ss", "--suite", "classic", "--games", "{games}"],
        majority(64000, 64),
        5,
        "satisfied on this evidence: EFF, NP, SYM",
    ),
    # SS and BZ on 40-bit weights read the decision diagram, whose size does
    # not grow with the weights; a tally keyed by coalition weight took
    # minutes at n = 24.
    "power_ss_bz_bits40_n24": (
        ["power", "--index", "ss,bz", "--game", "{games}/bits40_24.json"],
        bits40(24),
        10,
        bz_line(
            "0.0306 0.0468 0.0170 0.0133 0.0133 0.0548 0.0566 0.0821 0.0652 0.0225 0.0755 0.0011"
            " 0.0371 0.0581 0.0510 0.0022 0.0134 0.0392 0.0687 0.0547 0.0396 0.0819 0.0549 0.0203"
        ),
    ),
    "power_ss_bz_bits40_n32": (
        ["power", "--index", "ss,bz", "--game", "{games}/bits40_32.json"],
        bits40(32),
        5,
        bz_line(
            "0.0620 0.0094 0.0460 0.0155 0.0016 0.0025 0.0211 0.0215 0.0038 0.0455 0.0670 0.0309"
            " 0.0394 0.0353 0.0520 0.0343 0.0317 0.0512 0.0132 0.0188 0.0620 0.0291 0.0216 0.0023"
            " 0.0345 0.0481 0.0286 0.0281 0.0614 0.0364 0.0148 0.0304"
        ),
    ),
    # A counting path at n = 64: weights up to 99 keep the weight diagram to
    # 31,003 nodes, at most 1,403 on a level, though the game has about 10**17
    # mwcs.
    "power_ss_bz_majority_n64": (
        ["power", "--index", "ss,bz", "--game", "{games}/majority_0.json"],
        majority(64000, 64),
        5,
        bz_line(
            "0.0141 0.0291 0.0284 0.0255 0.0258 0.0087 0.0009 0.0185 0.0078 0.0304 0.0249 0.0131"
            " 0.0100 0.0075 0.0294 0.0087 0.0268 0.0062 0.0182 0.0119 0.0131 0.0116 0.0037 0.0268"
            " 0.0125 0.0138 0.0103 0.0065 0.0201 0.0134 0.0310 0.0116 0.0075 0.0078 0.0307 0.0172"
            " 0.0194 0.0069 0.0041 0.0028 0.0022 0.0122 0.0153 0.0268 0.0291 0.0236 0.0255 0.0185"
            " 0.0179 0.0109 0.0268 0.0100 0.0204 0.0122 0.0006 0.0294 0.0062 0.0056 0.0213 0.0229"
            " 0.0100 0.0150 0.0031 0.0179"
        ),
    ),
}
