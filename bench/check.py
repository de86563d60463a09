"""Expected CLI outputs, rendered from reference answers, and the output checker.

The renderers below re-derive the CLI's documented output formats from the
reference values in oracle.py; nothing here imports wmpower. An op passes
when its exit code, standard error and standard output all match.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from oracle import MergeVerdict

INDEX_KINDS = {"ss": "SS", "bz": "BZ", "dp": "DP", "pg": "PG", "cm": "CM", "hcm": "HCM"}


@dataclass
class Op:
    """One CLI invocation and what it must produce."""

    kind: str
    argv: list[str]
    stdout: str | None = None
    validate: Callable[[str], str | None] | None = None
    exit_code: int = 0
    cell: str = ""


def decimal(value: Fraction, digits: int) -> str:
    """Round-half-even fixed-point expansion of a non-negative rational."""
    scale = 10**digits
    whole, rest = divmod(value.numerator * scale, value.denominator)
    if 2 * rest > value.denominator or (2 * rest == value.denominator and whole % 2):
        whole += 1
    integral, fraction = divmod(whole, scale)
    return f"{integral}.{fraction:0{digits}d}"


def game_text(quota, weights) -> str:
    return f"[{Fraction(quota)}; " + ", ".join(str(Fraction(w)) for w in weights) + "]"


def coalition_text(mask: int, names: Sequence[str]) -> str:
    return "{" + ", ".join(names[i] for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def render_table(names, vectors, fmt: str, digits: int, exact: bool) -> str:
    """The power table for (kind, values) vectors in table, csv or json format."""
    if fmt == "json":
        entries = []
        for kind, values in vectors:
            entry = {"index": kind, "decimal": [decimal(v, digits) for v in values]}
            if exact:
                entry["exact"] = [str(v) for v in values]
            entries.append(entry)
        return json.dumps({"players": list(names), "digits": digits, "indices": entries}, indent=2)
    rows = [["index", *names]]
    for kind, values in vectors:
        rows.append([kind, *(decimal(v, digits) for v in values)])
        if exact:
            rows.append([f"{kind} (exact)", *(str(v) for v in values)])
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def mwc_listing(label, quota, weights, names, mwc) -> str:
    plural = "s" if len(mwc) != 1 else ""
    lines = [f"{label or 'game'} {game_text(quota, weights)}", f"{len(mwc)} minimal winning coalition{plural}:"]
    lines.extend(f"  {coalition_text(mask, names)}" for mask in mwc)
    return "\n".join(lines) + "\n"


def merge_report(verdict: MergeVerdict, check_only: bool = False) -> list[str]:
    """The report lines; condition 3's counterexample is left as a placeholder."""

    def mark(flag: bool) -> str:
        return "PASS" if flag else "FAIL"

    line2 = f"condition 2 (weight compatibility): {mark(not verdict.offending)}"
    if verdict.offending:
        line2 += f"  offending players: {verdict.offending}"
    line3 = f"condition 3 (jointly losing stays losing): {mark(verdict.losing_preserved)}"
    if not verdict.losing_preserved:
        line3 += "  counterexample: "
    lines = [
        f"condition 1 (equal quotas): {mark(verdict.equal_quotas)}",
        line2,
        line3,
        f"condition 4 (MWC count additivity): {mark(verdict.union_count == verdict.component_count)}"
        f"  union has {verdict.union_count}, components total {verdict.component_count}",
        f"WM-mergeable: {'yes' if verdict.overall else 'no'}",
    ]
    if verdict.overall and not check_only:
        lines.append(f"union: {game_text(verdict.union_quota, verdict.union_weights)}")
    return lines


def merge_validator(verdict: MergeVerdict, check_only: bool = False):
    """Exact report lines; any valid counterexample is accepted for condition 3."""
    expected = merge_report(verdict, check_only)

    def validate(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != len(expected):
            return f"expected {len(expected)} report lines, got {len(lines)}"
        for got, want in zip(lines, expected):
            if want.endswith("counterexample: "):
                if not got.startswith(want):
                    return f"line {got!r} does not start with {want!r}"
                match = re.fullmatch(r"\{(\d+(?:, \d+)*)\}", got[len(want):])
                if not match:
                    return f"unreadable counterexample in {got!r}"
                mask = sum(1 << int(p) for p in match.group(1).split(", "))
                if not verdict.is_counterexample(mask):
                    return f"{got[len(want):]} is not a jointly losing coalition that wins in the union"
            elif got != want:
                return f"expected {want!r}, got {got!r}"
        return None

    return validate


_AXIOM_LINE = re.compile(r"(\S+)\s+(PASS|FAIL)  (\d+)/(\d+) (.+?)(; first failure on .+)?")
SUITE_AXIOMS = {
    "thm1": ["EFF", "NP", "SYMw", "DPMw"],
    "thm2": ["EFF", "NP", "SYMw", "HCMw"],
    "classic": ["EFF", "NP", "SYM", "TRA", "DPM", "PGM"],
}
# Verdicts known from the theory, for the builtin fixtures plus random samples:
# DP meets EFF/NP/DPMw and fails SYMw on the fixture [4; 3, 2, 0]; HCM meets all of
# Theorem 2; SS meets EFF/NP/SYM/TRA; PG meets EFF/NP/SYM/PGM.
KNOWN_VERDICTS = {
    ("dp", "thm1"): {"EFF": True, "NP": True, "SYMw": False, "DPMw": True},
    ("hcm", "thm2"): {"EFF": True, "NP": True, "SYMw": True, "HCMw": True},
    ("ss", "classic"): {"EFF": True, "NP": True, "SYM": True, "TRA": True},
    ("pg", "classic"): {"EFF": True, "NP": True, "SYM": True, "PGM": True},
}


def axioms_validator(index: str, suite: str, n_games: int):
    known = KNOWN_VERDICTS[(index, suite)]

    def validate(out: str) -> str | None:
        lines = out.splitlines()
        names = SUITE_AXIOMS[suite]
        if len(lines) != len(names) + 2:
            return f"expected {len(names) + 2} lines, got {len(lines)}"
        header = f"index: {index}  suite: {suite}  games: {n_games}"
        if lines[0] != header:
            return f"expected {header!r}, got {lines[0]!r}"
        satisfied = []
        for name, line in zip(names, lines[1:]):
            match = _AXIOM_LINE.fullmatch(line)
            if not match or match.group(1) != name:
                return f"unreadable verdict line for {name}: {line!r}"
            holds = match.group(2) == "PASS"
            passed, total = int(match.group(3)), int(match.group(4))
            if holds != (passed == total) or holds == bool(match.group(6)):
                return f"inconsistent verdict line {line!r}"
            if name in ("EFF", "NP") and total != n_games:
                return f"{name} checked on {total} games, expected {n_games}"
            if name in known and known[name] != holds:
                return f"{index} should {'' if known[name] else 'not '}satisfy {name}: {line!r}"
            if holds:
                satisfied.append(name)
        tail = f"satisfied on this evidence: {', '.join(satisfied) if satisfied else 'none'}"
        return None if lines[-1] == tail else f"expected {tail!r}, got {lines[-1]!r}"

    return validate


def property_validator(names, weights, digits: int = 4):
    """For a game beyond oracle reach: one exact SS vector that sums to 1,
    gives equal weights equal values and is monotone in weight."""

    def validate(out: str) -> str | None:
        try:
            payload = json.loads(out)
            (entry,) = payload["indices"]
            values = [Fraction(v) for v in entry["exact"]]
            labels = (payload["players"], payload["digits"], entry["index"], entry["decimal"])
        except (ValueError, KeyError, TypeError) as err:
            return f"unreadable JSON table: {err!r}"
        if labels[:3] != (list(names), digits, "SS"):
            return "wrong players, digits or index label"
        if len(values) != len(weights) or sum(values) != 1:
            return f"values do not sum to 1: {sum(values)}"
        if labels[3] != [decimal(v, digits) for v in values]:
            return "decimal row does not match the exact row"
        for i, wi in enumerate(weights):
            for j, wj in enumerate(weights):
                if wi == wj and values[i] != values[j]:
                    return f"equal weights, unequal values for {names[i]} and {names[j]}"
                if wi > wj and values[i] < values[j]:
                    return f"{names[i]} outweighs {names[j]} but gets less power"
        return None

    return validate


def check(op: Op, exit_code: int | None, out: str, err: str) -> str | None:
    """None when the op's result is correct, else the reason it is not."""
    if exit_code is None:
        return "timed out"
    if "Traceback" in err:
        return "traceback on stderr"
    if exit_code != op.exit_code:
        return f"exit code {exit_code}, expected {op.exit_code}"
    if op.exit_code == 2:
        if out or not err.startswith(("error: ", "usage: ")):
            return "a refused input must print only an error message"
        return None
    if op.validate is not None:
        return op.validate(out)
    if out != op.stdout:
        return "standard output differs from the reference"
    return None
