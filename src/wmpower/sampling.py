"""Seeded random generators for games and mergeable families.

Used by the axiom suites (CLI ``--samples``) and by the test suite. All
functions are deterministic given the supplied ``random.Random`` instance.
"""

from __future__ import annotations

import random

from .games import WeightedMajorityGame, mwc_count
from .decompositions import single_mwc_decomposition


def random_weighted_game(
    rng: random.Random, max_players: int = 8, max_weight: int = 9
) -> WeightedMajorityGame:
    """A weighted game with 2..max_players players and small integer weights.

    Zero weights are allowed, so null players occur; the quota is drawn from
    1..total so the grand coalition always wins.
    """
    n = rng.randint(2, max_players)
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(n)]
        total = sum(weights)
        if total > 0:
            break
    quota = rng.randint(1, total)
    return WeightedMajorityGame(quota, weights)


def random_mergeable_family(
    rng: random.Random, max_players: int = 8, max_weight: int = 9
) -> list[WeightedMajorityGame]:
    """A mergeable family: the per-mwc decomposition of a random multi-mwc game."""
    while True:
        game = random_weighted_game(rng, max_players, max_weight)
        if mwc_count(game) >= 2:
            return single_mwc_decomposition(game)
