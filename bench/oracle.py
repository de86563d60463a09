"""Reference answers computed from the definitions, independently of wmpower.

Games are (quota, weights) pairs of exact rationals. Everything is derived
from one table of coalition weights over all 2**n bit masks, so the cost is
O(n * 2**n) integer work: fine up to n = 14, out of reach for the EU Council
(n = 27), whose answers are checked by properties instead (see check.py).
"""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace


def integer_form(quota, weights) -> tuple[int, list[int]]:
    """Quota and weights scaled by the common denominator; the game is unchanged."""
    values = [Fraction(quota), *(Fraction(w) for w in weights)]
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    return ints[0], ints[1:]


class Reference:
    """All reference quantities of one weighted game."""

    def __init__(self, quota, weights) -> None:
        self.quota = Fraction(quota)
        self.weights = tuple(Fraction(w) for w in weights)
        self.n = len(self.weights)
        q, w = integer_form(self.quota, self.weights)
        self._q, self._w = q, w
        table = [0] * (1 << self.n)
        for mask in range(1, 1 << self.n):
            low = mask & -mask
            table[mask] = table[mask ^ low] + w[low.bit_length() - 1]
        self._table = table
        # A winning coalition is minimal iff dropping any one member loses.
        mwc = []
        for mask, total in enumerate(table):
            if total < q:
                continue
            rest = mask
            while rest:
                low = rest & -rest
                if table[mask ^ low] >= q:
                    break
                rest ^= low
            else:
                mwc.append(mask)
        self.mwc = sorted(mwc, key=lambda m: (m.bit_count(), m))

    def wins(self, mask: int) -> bool:
        return self._table[mask] >= self._q

    def _swing_tallies(self, player: int) -> list[int]:
        # tallies[s]: losing coalitions of size s without the player that he turns winning
        bit = 1 << player
        q, table = self._q, self._table
        low = q - self._w[player]
        tallies = [0] * self.n
        for mask in range(1 << self.n):
            if not mask & bit and low <= table[mask] < q:
                tallies[mask.bit_count()] += 1
        return tallies

    def members(self, player: int) -> list[int]:
        return [m for m in self.mwc if m >> player & 1]

    def index(self, key: str) -> list[Fraction]:
        return getattr(self, "_" + key)()

    def _ss(self) -> list[Fraction]:
        n = self.n
        fact = [math.factorial(k) for k in range(n + 1)]
        return [
            Fraction(
                sum(c * fact[s] * fact[n - s - 1] for s, c in enumerate(self._swing_tallies(i))),
                fact[n],
            )
            for i in range(n)
        ]

    def _bz(self) -> list[Fraction]:
        counts = [sum(self._swing_tallies(i)) for i in range(self.n)]
        return [Fraction(c, sum(counts)) for c in counts]

    def _dp(self) -> list[Fraction]:
        m = len(self.mwc)
        return [
            sum((Fraction(1, s.bit_count()) for s in self.members(i)), Fraction(0)) / m
            for i in range(self.n)
        ]

    def _pg(self) -> list[Fraction]:
        counts = [len(self.members(i)) for i in range(self.n)]
        return [Fraction(c, sum(counts)) for c in counts]

    def coalition_weight(self, mask: int) -> Fraction:
        return sum((w for i, w in enumerate(self.weights) if mask >> i & 1), Fraction(0))

    def _cm(self) -> list[Fraction]:
        m = len(self.mwc)
        totals = {s: self.coalition_weight(s) for s in self.mwc}
        return [
            sum((self.weights[i] / totals[s] for s in self.members(i)), Fraction(0)) / m
            for i in range(self.n)
        ]

    def _hcm(self) -> list[Fraction]:
        numerators = [len(self.members(i)) * self.weights[i] for i in range(self.n)]
        total = sum(numerators, Fraction(0))
        return [v / total for v in numerators]


def decomposition(ref: Reference) -> list[list[Fraction]]:
    """One component weight vector per mwc: its members and the null players keep their weight."""
    support = 0
    for mask in ref.mwc:
        support |= mask
    null = ((1 << ref.n) - 1) ^ support
    return [
        [w if (mask | null) >> i & 1 else Fraction(0) for i, w in enumerate(ref.weights)]
        for mask in ref.mwc
    ]


class MergeVerdict:
    """The four mergeability conditions of a family with a common player count."""

    def __init__(self, quotas, weight_rows) -> None:
        quotas = [Fraction(q) for q in quotas]
        rows = [[Fraction(w) for w in row] for row in weight_rows]
        n = len(rows[0])
        self.components = [Reference(q, row) for q, row in zip(quotas, rows)]
        self.union_quota = min(quotas)
        self.union_weights = [max(row[i] for row in rows) for i in range(n)]
        self.union = Reference(self.union_quota, self.union_weights)
        self.equal_quotas = len(set(quotas)) == 1
        self.offending = [i for i in range(n) if len({row[i] for row in rows} - {0}) > 1]
        self.union_count = len(self.union.mwc)
        self.component_count = sum(len(c.mwc) for c in self.components)
        self.losing_preserved = not any(
            self.is_counterexample(mask) for mask in range((1 << n) - 1)
        )

    def is_counterexample(self, mask: int) -> bool:
        """A proper coalition that loses in every component but wins under the union."""
        return (
            mask != (1 << self.union.n) - 1
            and self.union.wins(mask)
            and not any(c.wins(mask) for c in self.components)
        )

    @property
    def overall(self) -> bool:
        return (
            self.equal_quotas
            and not self.offending
            and self.losing_preserved
            and self.union_count == self.component_count
        )


def load_test_oracles(root: Path):
    """The repository's brute-force oracles, tests/oracles.py (it imports wmpower)."""
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("repo_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cross_check(oracles, ref: Reference, permutations: bool) -> None:
    """Raise if ref disagrees with the test oracles on mwcs, swings or (optionally) SS."""
    game = SimpleNamespace(quota=ref.quota, weights=ref.weights, n_players=ref.n)
    mwc = {frozenset(i for i in range(ref.n) if mask >> i & 1) for mask in ref.mwc}
    swings = [len(oracles.brute_force_swings(game, i)) for i in range(ref.n)]
    bz = [Fraction(c, sum(swings)) for c in swings]
    agree = oracles.brute_force_mwcs(game) == mwc and bz == ref.index("bz")
    if permutations:
        agree = agree and oracles.shapley_by_permutations(game) == ref.index("ss")
    if not agree:
        raise RuntimeError(f"reference answers disagree with tests/oracles.py on {ref.quota}; {ref.weights}")
