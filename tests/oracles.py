"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results straight from definitions (exhaustive
subset enumeration, permutation walks) without touching the library's
enumeration or counting code paths, so agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from wmpower import SimpleGame, WeightedMajorityGame


def winning_by_definition(game: WeightedMajorityGame, members) -> bool:
    total = sum((game.weights[i] for i in members), Fraction(0))
    return total >= game.quota


def brute_force_winning_sets(game: WeightedMajorityGame) -> set[frozenset[int]]:
    n = game.n_players
    out = set()
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            if winning_by_definition(game, combo):
                out.add(frozenset(combo))
    return out


def brute_force_mwcs(game: WeightedMajorityGame) -> set[frozenset[int]]:
    """Winning sets none of whose proper subsets win (full subset scan)."""
    winning = brute_force_winning_sets(game)
    minimal = set()
    for coalition in winning:
        members = sorted(coalition)
        has_winning_subset = any(
            frozenset(sub) in winning
            for size in range(len(members))
            for sub in itertools.combinations(members, size)
        )
        if not has_winning_subset:
            minimal.add(coalition)
    return minimal


def minimal_by_definition(family) -> set[frozenset[int]]:
    """The members of a family of sets that no other distinct member is a subset of."""
    distinct = set(family)
    return {c for c in distinct if not any(o != c and o.issubset(c) for o in distinct)}


def mergeable_by_definition(v: SimpleGame, v_prime: SimpleGame) -> bool:
    """No mwc of one simple game is a subset of an mwc of the other."""
    mwcs, mwcs_prime = ([frozenset(c) for c in g.mwc] for g in (v, v_prime))
    return all(not a.issubset(b) and not b.issubset(a) for a in mwcs for b in mwcs_prime)


def brute_force_losing_counterexamples(games) -> set[frozenset[int]]:
    """Proper coalitions losing in every game that win under min quota and max weights."""
    n = games[0].n_players
    union_quota = min(g.quota for g in games)
    union_weights = [max(g.weights[i] for g in games) for i in range(n)]
    out = set()
    for size in range(n):
        for combo in itertools.combinations(range(n), size):
            union_total = sum((union_weights[i] for i in combo), Fraction(0))
            if union_total >= union_quota and not any(
                winning_by_definition(g, combo) for g in games
            ):
                out.add(frozenset(combo))
    return out


def brute_force_swings(game: WeightedMajorityGame, player: int) -> set[frozenset[int]]:
    others = [i for i in range(game.n_players) if i != player]
    out = set()
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            if not winning_by_definition(game, combo) and winning_by_definition(
                game, (*combo, player)
            ):
                out.add(frozenset(combo))
    return out


def _wins_by_definition(game, members) -> bool:
    # A simple game wins on a superset of one of its mwcs; a weighted one
    # on reaching its quota.
    if isinstance(game, SimpleGame):
        return any(set(c.members) <= set(members) for c in game.mwc)
    return winning_by_definition(game, members)


def symmetric_by_definition(game, i: int, j: int) -> bool:
    """Adding i or adding j to any coalition of the other players wins alike."""
    others = [k for k in range(game.n_players) if k not in (i, j)]
    return all(
        _wins_by_definition(game, (*combo, i)) == _wins_by_definition(game, (*combo, j))
        for size in range(len(others) + 1)
        for combo in itertools.combinations(others, size)
    )


def swings_by_definition(game, player: int) -> set[frozenset[int]]:
    """Coalitions S without the player that lose while S plus the player wins."""
    others = [i for i in range(game.n_players) if i != player]
    return {
        frozenset(combo)
        for size in range(len(others) + 1)
        for combo in itertools.combinations(others, size)
        if not _wins_by_definition(game, combo) and _wins_by_definition(game, (*combo, player))
    }


def shapley_by_definition(game) -> list[Fraction]:
    """Walk every player order and credit the pivot, whose joining first wins."""
    n = game.n_players
    counts = [0] * n
    for perm in itertools.permutations(range(n)):
        pivot = next(p for k, p in enumerate(perm) if _wins_by_definition(game, perm[: k + 1]))
        counts[pivot] += 1
    return [Fraction(c, math.factorial(n)) for c in counts]


def shapley_by_permutations(game: WeightedMajorityGame) -> list[Fraction]:
    """Walk every player order and credit the pivot (who first reaches the quota)."""
    scale = math.lcm(
        game.quota.denominator, *(w.denominator for w in game.weights)
    )
    weights = [int(w * scale) for w in game.weights]
    quota = int(game.quota * scale)
    n = len(weights)
    counts = [0] * n
    for perm in itertools.permutations(range(n)):
        total = 0
        for player in perm:
            total += weights[player]
            if total >= quota:
                counts[player] += 1
                break
    orders = math.factorial(n)
    return [Fraction(c, orders) for c in counts]


def mwcs_by_definition(game) -> set[frozenset[int]]:
    # A simple game is defined by its antichain; a weighted one by its quota.
    if isinstance(game, SimpleGame):
        return {frozenset(c.members) for c in game.mwc}
    return brute_force_mwcs(game)


def deegan_packel_by_definition(game) -> list[Fraction]:
    """Each mwc S gives 1/|S| to each member; a player gets the mean over all mwcs."""
    mwcs = mwcs_by_definition(game)
    return [
        sum((Fraction(1, len(s)) for s in mwcs if i in s), Fraction(0)) / len(mwcs)
        for i in range(game.n_players)
    ]


def public_good_by_definition(game) -> list[Fraction]:
    """A player's number of mwcs over the sum of all players' numbers."""
    mwcs = mwcs_by_definition(game)
    counts = [sum(1 for s in mwcs if i in s) for i in range(game.n_players)]
    return [Fraction(c, sum(counts)) for c in counts]


def colomer_martinez_by_definition(game: WeightedMajorityGame) -> list[Fraction]:
    """Each mwc S gives w_i/w(S) to each member i; a player gets the mean over all mwcs."""
    mwcs = brute_force_mwcs(game)
    weight = {s: sum((game.weights[j] for j in s), Fraction(0)) for s in mwcs}
    return [
        sum((game.weights[i] / weight[s] for s in mwcs if i in s), Fraction(0))
        / len(mwcs)
        for i in range(game.n_players)
    ]


def hcm_by_definition(game: WeightedMajorityGame) -> list[Fraction]:
    """A player's number of mwcs times its weight, normalized to sum 1."""
    mwcs = brute_force_mwcs(game)
    products = [
        sum(1 for s in mwcs if i in s) * game.weights[i] for i in range(game.n_players)
    ]
    total = sum(products, Fraction(0))
    return [p / total for p in products]


def decimal_by_definition(value: Fraction, digits: int) -> str:
    """|value| to ``digits`` places by floor, then half-even on the remainder."""
    scaled = abs(value) * 10**digits
    low = math.floor(scaled)
    rest = scaled - low
    n = low + (rest > Fraction(1, 2) or (rest == Fraction(1, 2) and low % 2 == 1))
    text = str(n).rjust(digits + 1, "0")
    return ("-" if value < 0 else "") + text[:-digits] + "." + text[-digits:]
