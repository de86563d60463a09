"""Record the golden CLI cases that test_golden.py replays.

Each case is one JSON file in tests/golden/: the argv after ``wmpower``, the
exit code, the exact stdout and the exact stderr. The command runs in process,
with tests/golden as the working directory, so a ``--games`` directory and a
game document are named relative to it; the documents other than the seeded
majority games are the benchmark's fixed ones under bench/data. Help and usage
errors end in argparse's ``SystemExit``, whose code is recorded as the exit;
``COLUMNS=80`` is set for every run, so argparse wraps its text at 80 columns
whatever the terminal.

    PYTHONPATH=src python tests/make_golden.py          # report which cases changed
    PYTHONPATH=src python tests/make_golden.py --write  # rewrite cases and documents

Without ``--write`` it exits 1 when any case differs from its file or has none.
Only ``--write`` touches a file. It also rewrites the seeded majority
documents from their fixed seeds: two 10-player games in
tests/golden/majority10 and one 16-player game in tests/golden/majority16.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path
from unittest import mock

from wmpower.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = "../../bench/data"
# Per directory of majority documents: its seed, its player count and its
# number of documents.
MAJORITY = {"majority10": (10, 10, 2), "majority16": (16000, 16, 1)}

SAMPLED = ["--samples", "20", "--seed", "0"]
CASES = {}
# Every index under every suite on the built-in games plus 20 samples; the
# classic suite refuses cm and hcm (exit 2).
for index in ("ss", "bz", "dp", "pg", "cm", "hcm"):
    for suite in ("classic", "thm1", "thm2"):
        CASES[f"{index}_{suite}"] = ["axioms", "--index", index, "--suite", suite, *SAMPLED]
for index in ("ss", "bz", "dp", "pg"):
    CASES[f"{index}_classic_majority10"] = [
        "axioms", "--index", index, "--suite", "classic", "--games", "majority10",
    ]
# Theorems 1 and 2 on the 16-player game: its single-mwc decomposition has
# 1,965 components, so condition 3 is checked on a family of 1,965 games.
CASES["dp_thm1_majority16"] = ["axioms", "--index", "dp", "--suite", "thm1", "--games", "majority16"]
CASES["hcm_thm2_majority16"] = ["axioms", "--index", "hcm", "--suite", "thm2", "--games", "majority16"]
# CM passes SYMw, so every one of the 1,965 components is checked to its end.
CASES["cm_thm1_majority16"] = ["axioms", "--index", "cm", "--suite", "thm1", "--games", "majority16"]
# power (all six indices) and mwc on each fixed document; the EU Council's mwc
# listing (561,645 lines, about 2 s) is left out.
DOCUMENTS = [
    "reference_game", "readme_a", "readme_b", "readme_union", "fixture_221", "nonmergeable_b",
    *(f"ecuador/{period}" for period in ("may21", "jun21", "jul21", "oct12", "oct26", "dec21")),
]
for document in DOCUMENTS:
    for command in ("power", "mwc"):
        CASES[f"{command}_{document.replace('/', '_')}"] = [command, "--game", f"{DATA}/{document}.json"]
# The two 10-player majority games fail all four conditions.
CASES["merge_majority10_pair"] = ["merge", "majority10/majority_0.json", "majority10/majority_1.json"]
CASES["power_eu_council_ss_bz_exact"] = [
    "power", "--game", f"{DATA}/eu_council_nice.json", "--index", "ss,bz", "--exact",
]
for second in ("readme_b", "nonmergeable_b"):
    pair = [f"{DATA}/readme_a.json", f"{DATA}/{second}.json"]
    CASES[f"merge_readme_a_{second}"] = ["merge", *pair]
    CASES[f"merge_readme_a_{second}_check_only"] = ["merge", *pair, "--check-only"]
for fmt in ("table", "csv", "json"):
    CASES[f"demo_ecuador_{fmt}"] = ["demo", "ecuador", "--format", fmt]
for refused in ("float_weight", "malformed_rational", "negative_weight", "players_65"):
    for command in ("power", "mwc"):
        CASES[f"{command}_refused_{refused}"] = [command, "--game", f"{DATA}/bad/{refused}.json"]
# argparse's help and usage errors.
CASES["help"] = ["--help"]
for command in ("power", "mwc", "merge", "axioms", "demo"):
    CASES[f"help_{command}"] = [command, "--help"]
REFERENCE = f"{DATA}/reference_game.json"
CASES["usage_power_without_game"] = ["power"]
CASES["usage_power_unknown_index"] = ["power", "--game", REFERENCE, "--index", "zz"]
CASES["usage_power_digits_0"] = ["power", "--game", REFERENCE, "--digits", "0"]
CASES["usage_demo_unknown_period"] = ["demo", "ecuador", "--period", "sep21"]
CASES["usage_axioms_unknown_suite"] = ["axioms", "--index", "ss", "--suite", "zz"]
CASES["usage_unknown_command"] = ["frobnicate"]


def majority_documents(seed: int, n: int, count: int) -> dict[str, dict]:
    """``count`` n-player majority games: weights in 1..99, quota half the total plus one."""
    rng = random.Random(seed)
    documents = {}
    for k in range(count):
        weights = [rng.randint(1, 99) for _ in range(n)]
        documents[f"majority_{k}.json"] = {
            "quota": str(sum(weights) // 2 + 1),
            "weights": [str(w) for w in weights],
        }
    return documents


def run_case(argv: list[str], directory: Path = GOLDEN) -> dict:
    """The case record of one in-process run of the CLI from ``directory``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with mock.patch.dict(os.environ, COLUMNS="80"):
                try:
                    code = cli_main(argv)
                except SystemExit as exit:
                    code = exit.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] and not write:
        print(__doc__, file=sys.stderr)
        return 2
    if write:
        for directory, spec in MAJORITY.items():
            (GOLDEN / directory).mkdir(parents=True, exist_ok=True)
            for name, document in majority_documents(*spec).items():
                text = json.dumps(document, indent=2) + "\n"
                (GOLDEN / directory / name).write_text(text)
    changed = 0
    for name, argv in CASES.items():
        record = run_case(argv)
        path = GOLDEN / f"{name}.json"
        if write:
            path.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {path.name}")
        elif not path.exists():
            changed += 1
            print(f"{name}: missing")
        else:
            same = json.loads(path.read_text()) == record
            changed += not same
            print(f"{name}: {'same' if same else 'differs'}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
