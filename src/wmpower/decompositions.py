"""Splitting a weighted game into a family of games, one per group of its mwcs.

Each component keeps the quota and zeroes the weights of the players outside
its group's minimal winning coalitions. Splitting one mwc per component
always gives a WM-mergeable family whose union is the game again, which is
how the axiom suites and the seeded samplers below (``--samples``) build
mergeable families; a sampler is handed its ``random.Random``, never imported.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import FewerThanTwoGames, GameError
from .games import WeightedMajorityGame, _support_mask, minimal_winning_coalitions, mwc_count


def mwc_group_decomposition(
    game: WeightedMajorityGame, groups: Sequence[Sequence[int]]
) -> list[WeightedMajorityGame]:
    """Split a game into one component per group of its minimal winning coalitions.

    Component k keeps the original quota and the original weight for every
    player inside the group's coalitions (null players keep their weight
    everywhere); all other weights drop to zero. Groups must partition the
    indices of the game's canonical mwc tuple.
    """
    masks = minimal_winning_coalitions(game).masks
    if len(groups) < 2:
        raise FewerThanTwoGames("a decomposition needs at least two groups")
    seen = [k for group in groups for k in group]
    if sorted(seen) != list(range(len(masks))) or any(not group for group in groups):
        raise GameError(
            f"groups must partition the {len(masks)} minimal winning coalitions"
        )
    null_mask = ((1 << game.n_players) - 1) ^ _support_mask(masks)
    components = []
    for group in groups:
        support = null_mask | _support_mask(masks[k] for k in group)
        weights = tuple(
            w if support >> i & 1 else Fraction(0)
            for i, w in enumerate(game.weights)
        )
        components.append(WeightedMajorityGame(game.quota, weights))
    return components


def single_mwc_decomposition(
    game: WeightedMajorityGame,
) -> list[WeightedMajorityGame]:
    """One component per minimal winning coalition; always a mergeable family.

    Requires at least two minimal winning coalitions. Merging the result
    recovers the original game.
    """
    count = mwc_count(game)
    if count < 2:
        raise GameError(
            "decomposition needs a game with at least two minimal winning coalitions"
        )
    return mwc_group_decomposition(game, [[k] for k in range(count)])


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
