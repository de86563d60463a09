"""A mutation probe: does the test suite notice small faults in the engines?

Each row of ``MUTANTS`` names a module under ``src/wmpower``, the exact text
of one of its lines (without indentation), the text to put there, the test
files to run, and the expected outcome: "killed", or "equivalent" with a
one-line reason why the mutant changes no output. For each row this script
copies ``src/`` to a temporary directory, applies the mutant there, and runs
``pytest -x -q`` on the row's test files with ``PYTHONPATH`` set to the copy;
every child process that a test starts runs the copy too (``tests/package.py``).
A mutant is killed when that run fails (or runs past ``TIMEOUT``).

Run from anywhere, by hand (it is not collected by pytest):

    python tests/mutants.py

It prints one line per mutant and exits 1 when any outcome differs from its
row: a mutant expected to be killed survives, or an "equivalent" one is
killed (its reason is then wrong, or a test reads more than the outputs).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT = 600  # seconds per mutant; a hang counts as killed

DIAGRAM_TESTS = (
    "tests/test_games.py",
    "tests/test_indices.py",
    "tests/test_merging.py",
    "tests/test_axioms.py",
    "tests/test_corpus.py",
)
DECOMPOSITION_TESTS = ("tests/test_merging.py", "tests/test_axioms.py", "tests/test_corpus.py")
JUDGE_TESTS = ("tests/test_cli.py", "tests/test_golden.py")

# (module, line, replacement, test files, outcome)
MUTANTS = (
    # The weight diagram: a node's interval of residuals.
    (
        "games.py",
        "spans.append((max(spans[e][0], spans[t][0] + w), min(spans[e][1], spans[t][1] + w)))",
        "spans.append((max(spans[e][0], spans[t][0]), min(spans[e][1], spans[t][1] + w)))",
        DIAGRAM_TESTS,
        "killed",
    ),
    (
        "games.py",
        "spans.append((max(spans[e][0], spans[t][0] + w), min(spans[e][1], spans[t][1] + w)))",
        "spans.append((max(spans[e][0], spans[t][0] + w), min(spans[e][1], spans[t][1] + w + 1)))",
        DIAGRAM_TESTS,
        "killed",
    ),
    (
        "games.py",
        "spans, kids = [(quota - sum(weights), 0), (1, quota)], [(0, 0), (1, 1)]",
        "spans, kids = [(quota - sum(weights) - 1, 0), (1, quota)], [(0, 0), (1, 1)]",
        DIAGRAM_TESTS,
        "equivalent: TRUE's lower bound one lower; no residual falls below q - W",
    ),
    # The mwc listing: a node whose 1-child is TRUE (hi <= 0).
    (
        "games.py",
        "below.append(spans[t][1] <= 0 or below[t] or below[e])",
        "below.append(spans[t][1] < 0 or below[t] or below[e])",
        DIAGRAM_TESTS,
        "killed",
    ),
    (
        "games.py",
        "if spans[t][1] <= 0:",
        "if spans[t][1] < 0:",
        DIAGRAM_TESTS,
        "killed",
    ),
    # The swing tally: slot width, path counts and the swing difference.
    (
        "games.py",
        "slot = n + 2",
        "slot = n + 1",
        DIAGRAM_TESTS,
        "equivalent: a slot of n + 1 bits still holds every count; none reaches 2**n",
    ),
    (
        "games.py",
        "f[kids[v][0]] += f[v] << slot",
        "f[kids[v][0]] += f[v]",
        DIAGRAM_TESTS,
        "killed",
    ),
    (
        "games.py",
        "swings[player] = sum(f[v] * (g[kids[v][0]] - g[kids[v][1]]) for v in ids[level])",
        "swings[player] = sum(f[v] * g[kids[v][0]] for v in ids[level])",
        DIAGRAM_TESTS,
        "killed",
    ),
    # The mask diagram's {0} collapse: a family holding the empty mask wins.
    (
        "games.py",
        "family = frozenset([0]) if 0 in family else family",
        "family = frozenset() if 0 in family else family",
        DIAGRAM_TESTS,
        "killed",
    ),
    (
        "games.py",
        "family = frozenset([0]) if 0 in family else family",
        "family = frozenset([0]) if 0 in family and family != frozenset([0]) else family",
        DIAGRAM_TESTS,
        "equivalent: the collapse leaves a family that is already {0} as it is",
    ),
    # The winning tests and the mwc tally.
    (
        "games.py",
        "return _mask_weight(weights, mask) >= quota",
        "return _mask_weight(weights, mask) > quota",
        DIAGRAM_TESTS,
        "killed",
    ),
    (
        "games.py",
        "return {key: [len([m for m in group if m >> i & 1]) for i in range(n)]",
        "return {key: [len([m for m in group if m >> i & 1]) for i in range(1, n)]",
        DIAGRAM_TESTS,
        "killed",
    ),
    # Every index is one weighted count: a count times its key's value.
    ("indices.py", "sums[i] += c * v", "sums[i] += v", DIAGRAM_TESTS, "killed"),
    # A decomposition component derived from its parent.
    (
        "games.py",
        "weights = tuple(w if support >> i & 1 else zero for i, w in enumerate(self.weights))",
        "weights = tuple(w if support >> i & 1 or i == 0 else zero "
        "for i, w in enumerate(self.weights))",
        DECOMPOSITION_TESTS,
        "killed",
    ),
    (
        "games.py",
        'game.__dict__["induced_simple_game"] = SimpleGame._trusted(self.n_players, [mwc])',
        'game.__dict__["induced_simple_game"] = SimpleGame._trusted(self.n_players, [support])',
        DECOMPOSITION_TESTS,
        "killed",
    ),
    # A record built from checked values, and the union built that way.
    ("games.py", "record._set(*values)", "record._set(*reversed(values))", ("tests/test_games.py",),
     "killed"),
    (
        "merging.py",
        "return WeightedMajorityGame._of(quota, tuple(map(max, zip(*(g.weights for g in games)))))",
        "return WeightedMajorityGame._of(quota, tuple(map(min, zip(*(g.weights for g in games)))))",
        ("tests/test_merging.py",),
        "killed",
    ),
    # The validating constructor's antichain test.
    ("games.py", "if len(kept) < len(masks):", "if False:", ("tests/test_games.py",), "killed"),
    # A document keeps the coerced quota and weights, not the caller's.
    (
        "games.py",
        'quota, weights = exact(quota), tuple(exact(w) for w in _ordered(weights, "weights"))',
        'quota, weights = quota, _ordered(weights, "weights")',
        ("tests/test_documents.py",),
        "killed",
    ),
    # The one container rule refuses text, bytes and mappings; back to the
    # document constructor's old test, it lets bytes through.
    (
        "games.py",
        "text_or_keys = isinstance(container, (str, bytes, bytearray, Mapping))",
        "text_or_keys = isinstance(container, (str, dict))",
        ("tests/test_games.py", "tests/test_documents.py"),
        "killed",
    ),
    # Where the order is the meaning, a set is refused too.
    (
        "games.py",
        "if isinstance(container, Set):",
        "if False:",
        ("tests/test_games.py",),
        "killed",
    ),
    # The one rule for what needs weights, and for games combined in one operation.
    (
        "games.py",
        "if not isinstance(game, WeightedMajorityGame):",
        "if False:",
        ("tests/test_games.py",),
        "killed",
    ),
    (
        "games.py",
        "if g.n_players != (n := games[0].n_players):",
        "if False:",
        ("tests/test_games.py", "tests/test_merging.py"),
        "killed",
    ),
    # A document's text encodes as UTF-8.
    (
        "games.py",
        '"".join([*names, label or "", date or ""]).encode("utf-8")',
        '"".join([*names, label or "", date or ""])',
        ("tests/test_documents.py",),
        "killed",
    ),
    # decimal_string coerces an outside value as exact() does.
    (
        "indices.py",
        "value = value if isinstance(value, Fraction) else exact(value)",
        "value = value",
        ("tests/test_games.py",),
        "killed",
    ),
    # The weighted average on integers: a value's scale to the common denominator.
    (
        "axioms.py",
        "Fraction(sum(t * v.numerator * (d // v.denominator) for t, v in zip(scaled, column)), s * d)",
        "Fraction(sum(t * v.numerator * d for t, v in zip(scaled, column)), s * d)",
        ("tests/test_axioms.py",),
        "killed",
    ),
    # The axioms runner's judge: a line with no subject, and a failure's name.
    (
        "axioms.py",
        'mark = "FAIL" if failures else "PASS" if total else "NONE"',
        'mark = "FAIL" if failures else "PASS"',
        JUDGE_TESTS,
        "killed",
    ),
    (
        "axioms.py",
        "line += f\"; first failure on {' + '.join(map(str, failures[0]))}\"",
        "line += f\"; first failure on {str(failures[0])}\"",
        JUDGE_TESTS,
        "killed",
    ),
    # The process's exit code: only a child process that runs the copy sees it.
    ("cli.py", "sys.exit(code)", "sys.exit(0)", ("tests/test_cli.py",), "killed"),
    # The accessor to the package's names: a name set on cli from outside wins.
    ("cli.py", "if name not in globals():", "if True:", ("tests/test_startup.py",), "killed"),
)


def located(module: str, line: str) -> list[int]:
    """The numbers (from 0) of the lines of ``src/wmpower/<module>`` whose text is ``line``."""
    lines = (SRC / "wmpower" / module).read_text().splitlines()
    return [k for k, text in enumerate(lines) if text.strip() == line]


def mutated(module: str, line: str, replacement: str) -> str:
    """The module's source with its one line ``line`` replaced, indentation kept."""
    (k,) = located(module, line)
    lines = (SRC / "wmpower" / module).read_text().splitlines(keepends=True)
    indent = lines[k][: len(lines[k]) - len(lines[k].lstrip())]
    lines[k] = indent + replacement + "\n"
    return "".join(lines)


def run(number: int, module: str, line: str, replacement: str, tests, outcome: str) -> bool:
    """Apply one mutant to a copy of src/ and run its tests; False if not the row's outcome."""
    with tempfile.TemporaryDirectory(prefix="wmpower-mutant-") as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "wmpower" / module).write_text(mutated(module, line, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        try:
            result = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT
            )
            killed = result.returncode != 0
        except subprocess.TimeoutExpired:
            killed = True
        seconds = time.perf_counter() - start
    expected = outcome == "killed"
    status = "killed" if killed else "survived"
    verdict = "ok" if killed == expected else "FAIL"
    print(f"{verdict:4s} {number:2d} {module}: {status} in {seconds:.0f} s ({outcome}): "
          f"{line!r} -> {replacement!r}", flush=True)
    return killed == expected


def main() -> int:
    results = [run(k, *row) for k, row in enumerate(MUTANTS, 1)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
