"""Exact power indices for simple and weighted majority games.

Six indices are provided. Shapley-Shubik, Banzhaf, Deegan-Packel, and
Public Good depend only on the winning structure and accept either game
kind. Colomer-Martinez and HCM are defined on the weighted representation
itself (different weight vectors inducing the same simple game give
different values), so they insist on a ``WeightedMajorityGame``.

Every returned vector is exact rational; every vector except the raw
Banzhaf form sums to exactly 1.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .errors import WeightsRequired
from .games import Game, WeightedMajorityGame, _Frozen, minimal_winning_coalitions, swing_masks


class PowerIndexVector(_Frozen):
    """One exact rational power value per player, tagged with the index kind."""

    _fields = ("kind", "values")

    def __init__(self, kind: str, values: Iterable) -> None:
        self._set(kind, tuple(Fraction(v) for v in values))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, player: int) -> Fraction:
        return self.values[player]

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


def _efficient(kind: str, values) -> PowerIndexVector:
    vector = PowerIndexVector(kind, tuple(values))
    if vector.total != 1:
        # A broken invariant, not bad input: callers map it to an internal error.
        raise AssertionError(f"{kind} vector must sum to 1, got {vector.total}")
    return vector


def _swing_tally(game: Game, method: str = "auto") -> list[Counter]:
    # Per player i, a Counter c_i of |S| over i's swings S; SS and BZ read
    # only this tally. Its backends are those of ``shapley_shubik``.
    if method == "auto":
        method = "counting" if isinstance(game, WeightedMajorityGame) else "swings"
    if method == "swings":
        return [
            Counter(m.bit_count() for m in swing_masks(game, i))
            for i in range(game.n_players)
        ]
    if method != "counting":
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(game, WeightedMajorityGame):
        raise WeightsRequired("the counting backend needs a weighted game")
    # For each player, tally the other players' losing coalitions by (size,
    # weight); a winning one never loses again as players join, so it is
    # dropped. Swings are the tallies whose weight reaches quota - own weight.
    weights, quota, _ = game.integer_form
    n = len(weights)
    result = []
    for i, own in enumerate(weights):
        sizes: Counter = Counter()
        result.append(sizes)
        if own == 0:
            continue
        tallies: list[dict[int, int]] = [{} for _ in range(n)]
        tallies[0][0] = 1
        for filled, w in enumerate(weights[:i] + weights[i + 1 :]):
            for size in range(filled, -1, -1):
                nxt = tallies[size + 1]
                for total, count in tallies[size].items():
                    grown = total + w
                    if grown < quota:
                        nxt[grown] = nxt.get(grown, 0) + count
        lo = quota - own
        for size, row in enumerate(tallies):
            sizes[size] = sum(c for total, c in row.items() if total >= lo)
    return result


def shapley_shubik(game: Game, method: str = "auto") -> PowerIndexVector:
    """Shapley-Shubik index: each swing S of player i contributes |S|!(n-|S|-1)!/n!.

    Two exact backends are available: ``swings`` enumerates the 2**(n-1)
    coalitions per player and works for any game; ``counting`` tallies
    coalitions by size and weight and needs a weighted game, but scales to
    larger player counts. ``auto`` picks ``counting`` for weighted games.
    """
    n = game.n_players
    fact = [math.factorial(k) for k in range(n + 1)]
    return _efficient(
        "SS",
        (
            Fraction(sum(c * fact[s] * fact[n - s - 1] for s, c in t.items()), fact[n])
            for t in _swing_tally(game, method)
        ),
    )


def banzhaf(game: Game, normalized: bool = True) -> PowerIndexVector:
    """Banzhaf index: swing counts over 2**(n-1), or normalized to sum 1."""
    counts = [t.total() for t in _swing_tally(game)]
    if normalized:
        # Never zero: the empty coalition loses and the grand coalition wins,
        # so some player swings.
        total = sum(counts)
        return _efficient("BZ", (Fraction(c, total) for c in counts))
    denominator = 1 << (game.n_players - 1)
    return PowerIndexVector("BZ", tuple(Fraction(c, denominator) for c in counts))


def _mwc_tally(game: Game, key) -> tuple[int, list[Counter]]:
    # One pass over the mwc list: the mwc count m, and per player i a Counter
    # c_i of key(S) over the mwcs S that contain i. DP, PG, CM and HCM read
    # only this tally, so a backend that counts mwcs without listing them
    # need only produce it.
    induced = minimal_winning_coalitions(game)
    tallies = [Counter() for _ in range(induced.n_players)]
    for coalition in induced.mwc:
        k = key(coalition)
        for i in coalition:
            tallies[i][k] += 1
    return len(induced.mwc), tallies


def deegan_packel(game: Game) -> PowerIndexVector:
    """Deegan-Packel index: average over a player's mwcs of the equal split 1/|S|."""
    m, tallies = _mwc_tally(game, len)
    return _efficient(
        "DP",
        (sum(Fraction(c, s * m) for s, c in t.items()) for t in tallies),
    )


def public_good(game: Game) -> PowerIndexVector:
    """Public Good index: a player's mwc count over the total of all players' counts."""
    _, tallies = _mwc_tally(game, len)
    counts = [t.total() for t in tallies]
    total = sum(counts)
    return _efficient("PG", (Fraction(c, total) for c in counts))


def _require_weights(game: Game, index_name: str) -> WeightedMajorityGame:
    if not isinstance(game, WeightedMajorityGame):
        raise WeightsRequired(
            f"{index_name} is defined on the weighted representation; "
            "got a bare simple game"
        )
    return game


def colomer_martinez(game: Game) -> PowerIndexVector:
    """Colomer-Martinez index: average over a player's mwcs of his weight share w_i/w_S."""
    # On the integer form: scaling every weight keeps each ratio w_i/w(S).
    weights, _, _ = _require_weights(game, "colomer_martinez").integer_form
    m, tallies = _mwc_tally(game, lambda s: sum(weights[i] for i in s))
    return _efficient(
        "CM",
        (
            Fraction(w_i, m) * sum((Fraction(c, t) for t, c in tally.items()), Fraction(0))
            for w_i, tally in zip(weights, tallies)
        ),
    )


def hcm(game: Game) -> PowerIndexVector:
    """HCM index: power proportional to (own mwc count) times (own weight)."""
    weighted = _require_weights(game, "hcm")
    _, tallies = _mwc_tally(weighted, len)
    numerators = [t.total() * w for t, w in zip(tallies, weighted.weights)]
    total = sum(numerators, Fraction(0))
    return _efficient("HCM", (v / total for v in numerators))


INDEX_FUNCTIONS = {
    "ss": shapley_shubik,
    "bz": banzhaf,
    "dp": deegan_packel,
    "pg": public_good,
    "cm": colomer_martinez,
    "hcm": hcm,
}

INDEX_LABELS = {
    "ss": "SS",
    "bz": "BZ",
    "dp": "DP",
    "pg": "PG",
    "cm": "CM",
    "hcm": "HCM",
}
