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
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import wraps

from .errors import WeightsRequired
from .games import Game, WeightedMajorityGame, _Frozen, _mask_weight, _support_mask, exact
from .games import minimal_winning_coalitions, mwc_count, swing_pivots


class PowerIndexVector(_Frozen):
    """One exact rational power value per player, tagged with the index kind."""

    _fields = ("kind", "values")

    def __init__(self, kind: str, values: Iterable) -> None:
        self._set(kind, tuple(map(exact, values)))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, player: int) -> Fraction:
        return self.values[player]

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


def _efficient(kind: str, numerators: list[int], denominator: int) -> PowerIndexVector:
    if (total := sum(numerators)) != denominator:
        # A broken invariant, not bad input: callers map it to an internal error.
        raise AssertionError(f"{kind} vector must sum to 1, got {Fraction(total, denominator)}")
    return PowerIndexVector(kind, (Fraction(v, denominator) for v in numerators))


def _kept_on_game(build):
    # build(game) once per game object, kept in the game's own __dict__ as
    # cached_property keeps integer_form: a tally lives as long as its game.
    @wraps(build)
    def tally(game: Game) -> list[Counter]:
        if build.__name__ not in game.__dict__:
            game.__dict__[build.__name__] = build(game)
        return game.__dict__[build.__name__]

    return tally


@_kept_on_game
def _swing_tally(game: Game) -> list[Counter]:
    # Per player i, a Counter c_i of |S| over i's swings S; SS and BZ read
    # only this tally. A bare simple game counts each losing S once for each
    # of its pivots; a weighted game counts swings by size and weight.
    if not isinstance(game, WeightedMajorityGame):
        tallies = [Counter() for _ in range(game.n_players)]
        for s, pivots in swing_pivots(game):
            while pivots:
                low = pivots & -pivots
                tallies[low.bit_length() - 1][s.bit_count()] += 1
                pivots ^= low
        return tallies
    # Tally all players' losing coalitions by (size, weight) once; a winning
    # one never loses again as players join, so it is dropped.
    weights, quota, _ = game.integer_form
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in weights]
    for filled, w in enumerate(weights):
        for size in range(filled, -1, -1):
            nxt = rows[size + 1]
            for total, count in rows[size].items():
                grown = total + w
                if grown < quota:
                    nxt[grown] = nxt.get(grown, 0) + count
    result = []
    for own in weights:
        # Remove the player: its losing coalitions of size s are the size s - 1
        # ones without it, plus it, so without[s][t] = rows[s][t] -
        # without[s-1][t - own]. Its swings reach weight quota - own without it.
        sizes, without = Counter(), {}
        for size, row in enumerate(rows[:-1]):  # a swing has at most n - 1 players
            without = {t: c - without.get(t - own, 0) for t, c in row.items()}
            sizes[size] = sum(c for t, c in without.items() if t >= quota - own)
        result.append(sizes)
    return result


def shapley_shubik(game: Game) -> PowerIndexVector:
    """Shapley-Shubik index: each swing S of player i contributes |S|!(n-|S|-1)!/n!."""
    n = game.n_players
    fact = [math.factorial(k) for k in range(n + 1)]
    sums = [sum(c * fact[s] * fact[n - s - 1] for s, c in t.items()) for t in _swing_tally(game)]
    return _efficient("SS", sums, fact[n])


def banzhaf(game: Game, normalized: bool = True) -> PowerIndexVector:
    """Banzhaf index: swing counts over 2**(n-1), or normalized to sum 1."""
    counts = [t.total() for t in _swing_tally(game)]
    if normalized:
        # Never zero: the empty coalition loses and the grand coalition wins,
        # so some player swings.
        return _efficient("BZ", counts, sum(counts))
    denominator = 1 << (game.n_players - 1)
    return PowerIndexVector("BZ", tuple(Fraction(c, denominator) for c in counts))


@_kept_on_game
def _mwc_tally(game: Game) -> list[Counter]:
    # One pass over the mwc masks: per player i, a Counter c_i of (|S|, w(S))
    # over the mwcs S that contain i, w the integer weight (0 for a bare simple game).
    # DP, PG, CM and HCM read only this and mwc_count: a counting backend replaces both.
    weights = game.integer_form[0] if isinstance(game, WeightedMajorityGame) else ()
    groups = defaultdict(list)
    for mask in minimal_winning_coalitions(game).masks:
        weight = _mask_weight(weights, mask) if weights else 0
        groups[mask.bit_count(), weight].append(mask)
    tallies = [Counter() for _ in range(game.n_players)]
    for key, group in groups.items():
        support = _support_mask(group)  # only these players have a nonzero count
        for i, tally in enumerate(tallies):
            if support >> i & 1:
                tally[key] = len([m for m in group if m >> i & 1])
    return tallies


def _memberships(game: Game) -> list[int]:
    # c_i, the number of mwcs holding player i; their sum is the theta of PGM.
    return [t.total() for t in _mwc_tally(game)]


def _weighted_memberships(game: WeightedMajorityGame) -> list[int]:
    # c_i * w_i on the integer form; their sum over the scale is the theta of HCMw.
    return [c * w for c, w in zip(_memberships(game), game.integer_form[0])]


def deegan_packel(game: Game) -> PowerIndexVector:
    """Deegan-Packel index: average over a player's mwcs of the equal split 1/|S|."""
    lcm = math.lcm(*range(1, game.n_players + 1))  # a multiple of every size |S|
    sums = [sum(c * lcm // s for (s, _), c in t.items()) for t in _mwc_tally(game)]
    return _efficient("DP", sums, lcm * mwc_count(game))


def public_good(game: Game) -> PowerIndexVector:
    """Public Good index: a player's mwc count over the total of all players' counts."""
    counts = _memberships(game)
    return _efficient("PG", counts, sum(counts))


def _require_weights(game: Game, index_name: str) -> WeightedMajorityGame:
    if not isinstance(game, WeightedMajorityGame):
        raise WeightsRequired(
            f"{index_name} is defined on the weighted representation; "
            "got a bare simple game"
        )
    return game


def colomer_martinez(game: Game) -> PowerIndexVector:
    """Colomer-Martinez index: average over a player's mwcs of its weight share w_i/w_S."""
    # On the integer form: scaling every weight keeps each ratio w_i/w(S).
    weights, _, _ = _require_weights(game, "colomer_martinez").integer_form
    m, tallies = mwc_count(game), _mwc_tally(game)
    # Over a common multiple of the mwc weights t, each c/t is the integer
    # c * (lcm // t); every player shares the quotients.
    totals = {t for tally in tallies for _, t in tally}
    lcm = math.lcm(*totals)
    quotients = {t: lcm // t for t in totals}
    sums = (sum(c * quotients[t] for (_, t), c in tally.items()) for tally in tallies)
    return _efficient("CM", [w * v for w, v in zip(weights, sums)], lcm * m)


def hcm(game: Game) -> PowerIndexVector:
    """HCM index: power proportional to (own mwc count) times (own weight)."""
    # On the integer form, as in colomer_martinez: the scale cancels.
    numerators = _weighted_memberships(_require_weights(game, "hcm"))
    return _efficient("HCM", numerators, sum(numerators))


INDEX_FUNCTIONS = {
    "ss": shapley_shubik,
    "bz": banzhaf,
    "dp": deegan_packel,
    "pg": public_good,
    "cm": colomer_martinez,
    "hcm": hcm,
}
