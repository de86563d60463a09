"""Union of weighted majority games and the four-condition mergeability check.

The union of a family of weighted games takes the minimum quota and the
componentwise maximum weights. The family is mergeable when four conditions
hold: equal quotas, per-player weight compatibility, preservation of jointly
losing coalitions under max-weights, and additivity of the minimal-winning-
coalition counts. When all four hold, the union's minimal winning coalitions
are exactly the disjoint union of the components'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coalitions import Coalition
from .errors import FewerThanTwoGames, GameError, NotWMMergeable, PlayerCountMismatch
from .games import WeightedMajorityGame, mask_winning_test, minimal_winning_coalitions


@dataclass(frozen=True)
class MergeabilityReport:
    """Per-condition verdicts of the mergeability check.

    Counterexample data is populated only for failed conditions: offending
    players for the weight-compatibility condition, and for the
    losing-preservation condition a minimal proper coalition that loses in
    every game yet wins in the union. The two coalition counts for the final
    condition, and the union game itself, are always recorded.
    """

    equal_quotas: bool
    weight_compatible: bool
    offending_players: tuple[int, ...]
    losing_preserved: bool
    losing_counterexample: Coalition | None
    mwc_count_additive: bool
    union_mwc_count: int
    component_mwc_count: int
    union: WeightedMajorityGame

    @property
    def overall(self) -> bool:
        return (
            self.equal_quotas
            and self.weight_compatible
            and self.losing_preserved
            and self.mwc_count_additive
        )

    def describe(self) -> list[str]:
        """Human-readable one-line summaries, one per condition plus the verdict."""

        def mark(flag: bool) -> str:
            return "PASS" if flag else "FAIL"

        lines = [f"condition 1 (equal quotas): {mark(self.equal_quotas)}"]
        line2 = f"condition 2 (weight compatibility): {mark(self.weight_compatible)}"
        if not self.weight_compatible:
            line2 += f"  offending players: {list(self.offending_players)}"
        lines.append(line2)
        line3 = f"condition 3 (jointly losing stays losing): {mark(self.losing_preserved)}"
        if not self.losing_preserved:
            line3 += f"  counterexample: {self.losing_counterexample}"
        lines.append(line3)
        lines.append(
            f"condition 4 (MWC count additivity): {mark(self.mwc_count_additive)}"
            f"  union has {self.union_mwc_count}, components total {self.component_mwc_count}"
        )
        lines.append(f"WM-mergeable: {'yes' if self.overall else 'no'}")
        return lines


def _validated_family(games: Sequence[WeightedMajorityGame]) -> int:
    if len(games) < 2:
        raise FewerThanTwoGames(f"merging needs at least two games, got {len(games)}")
    n = games[0].n_players
    for g in games[1:]:
        if g.n_players != n:
            raise PlayerCountMismatch(
                f"player counts differ: {n} vs {g.n_players}"
            )
    return n


def wm_union(games: Sequence[WeightedMajorityGame]) -> WeightedMajorityGame:
    """Union game: minimum of the quotas, componentwise maximum of the weights."""
    n = _validated_family(games)
    quota = min(g.quota for g in games)
    weights = tuple(max(g.weights[i] for g in games) for i in range(n))
    return WeightedMajorityGame(quota, weights)


def _losing_counterexample(
    games: Sequence[WeightedMajorityGame], union_mwc: Sequence[Coalition]
) -> Coalition | None:
    # A proper coalition that wins in the union and loses in every game
    # contains a union mwc that does the same, since the games are monotone.
    # So the first such mwc in (cardinality, mask) order is a counterexample,
    # and a minimal one: its proper subsets lose in the union.
    n = games[0].n_players
    full = (1 << n) - 1
    tests = [mask_winning_test(g) for g in games]
    for coalition in union_mwc:
        mask = coalition.mask
        if mask != full and not any(win(mask) for win in tests):
            return coalition
    return None


def check_wm_mergeability(
    games: Sequence[WeightedMajorityGame],
) -> MergeabilityReport:
    """Evaluate all four mergeability conditions, unconditionally.

    1. every game has the same quota;
    2. each player's nonzero weights agree across all games;
    3. every proper coalition losing in every game stays below the minimum
       quota even under the componentwise maximum weights; on failure the
       report carries the first of the union's minimal winning coalitions,
       in (cardinality, mask) order, that is proper and loses in every
       game: a minimal counterexample, found without scanning all 2**n
       coalitions;
    4. the union has exactly as many minimal winning coalitions as the
       components combined.
    """
    n = _validated_family(games)
    union = wm_union(games)
    equal_quotas = len({g.quota for g in games}) == 1
    offending = tuple(
        i for i in range(n) if len({g.weights[i] for g in games} - {0}) > 1
    )
    union_mwc = minimal_winning_coalitions(union).mwc
    counterexample = _losing_counterexample(games, union_mwc)
    component_count = sum(len(minimal_winning_coalitions(g).mwc) for g in games)
    return MergeabilityReport(
        equal_quotas=equal_quotas,
        weight_compatible=not offending,
        offending_players=offending,
        losing_preserved=counterexample is None,
        losing_counterexample=counterexample,
        mwc_count_additive=len(union_mwc) == component_count,
        union_mwc_count=len(union_mwc),
        component_mwc_count=component_count,
        union=union,
    )


def merged_game(games: Sequence[WeightedMajorityGame]) -> WeightedMajorityGame:
    """The union game, but only if the family is mergeable.

    On success the union's minimal winning coalitions are guaranteed to be
    the disjoint union of the components'.
    """
    report = check_wm_mergeability(games)
    if not report.overall:
        raise NotWMMergeable("games are not WM-mergeable", report)
    return report.union


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
