"""Splitting a weighted game into a family of games, one per group of its mwcs.

Each component keeps the quota and zeroes the weights of the players outside
its group's minimal winning coalitions. Splitting one mwc per component
always gives a WM-mergeable family whose union is the game again, which is
how the axiom suites and the random sampler build mergeable families.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import FewerThanTwoGames, GameError
from .games import WeightedMajorityGame, minimal_winning_coalitions


def mwc_group_decomposition(
    game: WeightedMajorityGame, groups: Sequence[Sequence[int]]
) -> list[WeightedMajorityGame]:
    """Split a game into one component per group of its minimal winning coalitions.

    Component k keeps the original quota and the original weight for every
    player inside the group's coalitions (null players keep their weight
    everywhere); all other weights drop to zero. Groups must partition the
    indices of the game's canonical mwc tuple.
    """
    induced = minimal_winning_coalitions(game)
    mwcs = induced.mwc
    if len(groups) < 2:
        raise FewerThanTwoGames("a decomposition needs at least two groups")
    seen = [k for group in groups for k in group]
    if sorted(seen) != list(range(len(mwcs))) or any(not group for group in groups):
        raise GameError(
            f"groups must partition the {len(mwcs)} minimal winning coalitions"
        )
    null_mask = ((1 << game.n_players) - 1) ^ _support_mask(mwcs)
    components = []
    for group in groups:
        support = null_mask
        for k in group:
            support |= mwcs[k].mask
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
    count = len(minimal_winning_coalitions(game).mwc)
    if count < 2:
        raise GameError(
            "decomposition needs a game with at least two minimal winning coalitions"
        )
    return mwc_group_decomposition(game, [[k] for k in range(count)])


def _support_mask(coalitions) -> int:
    mask = 0
    for c in coalitions:
        mask |= c.mask
    return mask
