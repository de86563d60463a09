"""Record the golden cases of the ``axioms`` command that test_golden.py replays.

Each case is one JSON file in tests/golden/: the argv after ``wmpower``, the
exit code and the exact stdout. The command runs in process, with tests/golden
as the working directory, so a ``--games`` directory is named relative to it.

    PYTHONPATH=src python tests/make_golden.py          # report which cases changed
    PYTHONPATH=src python tests/make_golden.py --write  # rewrite cases and documents

Only ``--write`` touches a file. It also rewrites the two 10-player majority
documents in tests/golden/majority10 from their fixed seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

from wmpower.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
MAJORITY_DIR = "majority10"
MAJORITY_SEED = 10

SAMPLED = ["--samples", "20", "--seed", "0"]
CASES = {
    "ss_classic": ["axioms", "--index", "ss", "--suite", "classic", *SAMPLED],
    "bz_classic": ["axioms", "--index", "bz", "--suite", "classic", *SAMPLED],
    "pg_classic": ["axioms", "--index", "pg", "--suite", "classic", *SAMPLED],
    "dp_thm1": ["axioms", "--index", "dp", "--suite", "thm1", *SAMPLED],
    "hcm_thm2": ["axioms", "--index", "hcm", "--suite", "thm2", *SAMPLED],
    "ss_classic_majority10": ["axioms", "--index", "ss", "--suite", "classic", "--games", MAJORITY_DIR],
    "bz_classic_majority10": ["axioms", "--index", "bz", "--suite", "classic", "--games", MAJORITY_DIR],
}


def majority_documents() -> dict[str, dict]:
    """Two 10-player majority games: weights in 1..99, quota half the total plus one."""
    rng = random.Random(MAJORITY_SEED)
    documents = {}
    for k in range(2):
        weights = [rng.randint(1, 99) for _ in range(10)]
        documents[f"majority_{k}.json"] = {
            "quota": str(sum(weights) // 2 + 1),
            "weights": [str(w) for w in weights],
        }
    return documents


def run_case(argv: list[str]) -> dict:
    """The case record of one in-process run of the CLI from tests/golden."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def main() -> int:
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] and not write:
        print(__doc__, file=sys.stderr)
        return 2
    if write:
        (GOLDEN / MAJORITY_DIR).mkdir(parents=True, exist_ok=True)
        for name, document in majority_documents().items():
            text = json.dumps(document, indent=2) + "\n"
            (GOLDEN / MAJORITY_DIR / name).write_text(text)
    for name, argv in CASES.items():
        record = run_case(argv)
        path = GOLDEN / f"{name}.json"
        if write:
            path.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {path.name}")
        else:
            same = path.exists() and json.loads(path.read_text()) == record
            print(f"{name}: {'same' if same else 'differs'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
