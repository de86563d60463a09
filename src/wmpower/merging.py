"""Union of weighted majority games and the four-condition mergeability check.

The union of a family of weighted games takes the minimum quota and the
componentwise maximum weights. The family is mergeable when four conditions
hold: equal quotas, per-player weight compatibility, preservation of jointly
losing coalitions under max-weights, and additivity of the minimal-winning-
coalition counts. When all four hold, the union's minimal winning coalitions
are exactly the disjoint union of the components'.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import FewerThanTwoGames, NotWMMergeable
from .games import Coalition, WeightedMajorityGame, _Frozen, _items, _same_players, _weighted
from .games import minimal_winning_coalitions


class MergeabilityReport(_Frozen):
    """Per-condition verdicts of the mergeability check.

    Counterexample data is populated only for failed conditions: offending
    players for the weight-compatibility condition, and for the
    losing-preservation condition a minimal proper coalition that loses in
    every game yet wins in the union. The two coalition counts for the final
    condition, and the union game itself, are always recorded.
    """

    _fields = (
        "equal_quotas", "weight_compatible", "offending_players", "losing_preserved",
        "losing_counterexample", "mwc_count_additive", "union_mwc_count",
        "component_mwc_count", "union",
    )

    def __init__(
        self, equal_quotas: bool, weight_compatible: bool, offending_players: tuple[int, ...],
        losing_preserved: bool, losing_counterexample: Coalition | None,
        mwc_count_additive: bool, union_mwc_count: int, component_mwc_count: int,
        union: WeightedMajorityGame,
    ) -> None:
        self._set(
            equal_quotas, weight_compatible, offending_players, losing_preserved,
            losing_counterexample, mwc_count_additive, union_mwc_count,
            component_mwc_count, union,
        )

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


def _validated_family(games: Iterable[WeightedMajorityGame]) -> tuple[WeightedMajorityGame, ...]:
    games = tuple(_weighted(g, "merging") for g in _items(games, "games"))
    if len(games) < 2:
        raise FewerThanTwoGames(f"merging needs at least two games, got {len(games)}")
    _same_players(games)
    return games


def wm_union(games: Iterable[WeightedMajorityGame]) -> WeightedMajorityGame:
    """Union game: minimum of the quotas, componentwise maximum of the weights."""
    games = _validated_family(games)
    # No check of __init__ can fail on a checked family: the least quota is
    # positive, the greatest weights are not negative, and the grand coalition
    # weighs no less than in any game, at no higher quota, so it wins.
    quota = min(g.quota for g in games)
    return WeightedMajorityGame._of(quota, tuple(map(max, zip(*(g.weights for g in games)))))


def _losing_counterexample(
    union_masks: Sequence[int], component_masks: set[int]
) -> Coalition | None:
    # A proper coalition that wins in the union and loses in every game
    # contains a union mwc that does the same, since the games are monotone.
    # So the first such mwc in (cardinality, mask) order is a counterexample,
    # and a minimal one: its proper subsets lose in the union. A union mwc S
    # loses in every game iff it is no game's mwc, for any family: the union
    # has no lower weight and no higher quota than any game, so if S wins in
    # game g, an mwc T of g inside S wins in the union, and T = S as S is
    # minimal there. The grand coalition wins in every game, so the mask
    # returned is a proper coalition's.
    for mask in union_masks:
        if mask not in component_masks:
            return Coalition.from_mask(mask)
    return None


def check_wm_mergeability(games: Iterable[WeightedMajorityGame]) -> MergeabilityReport:
    """Evaluate all four mergeability conditions, unconditionally.

    1. every game has the union's quota, the least of them;
    2. each player's nonzero weights equal its union weight, the greatest;
    3. every proper coalition losing in every game stays below the minimum
       quota even under the componentwise maximum weights; on failure the
       report carries the first proper union mwc, in (cardinality, mask)
       order, that is no game's mwc. For any family, a union mwc that wins
       in a game is that game's mwc (the union weighs no less and asks no
       more), so this is a minimal counterexample, found by membership;
    4. the union has exactly as many minimal winning coalitions as the
       components combined.
    """
    games = _validated_family(games)
    union = wm_union(games)
    equal_quotas = all(g.quota == union.quota for g in games)
    offending = tuple(
        i for i, top in enumerate(union.weights) if any(g.weights[i] not in (0, top) for g in games)
    )
    union_masks = minimal_winning_coalitions(union).masks
    listings = [minimal_winning_coalitions(g).masks for g in games]
    counterexample = _losing_counterexample(union_masks, set().union(*listings))
    component_count = sum(map(len, listings))
    return MergeabilityReport(
        equal_quotas=equal_quotas,
        weight_compatible=not offending,
        offending_players=offending,
        losing_preserved=counterexample is None,
        losing_counterexample=counterexample,
        mwc_count_additive=len(union_masks) == component_count,
        union_mwc_count=len(union_masks),
        component_mwc_count=component_count,
        union=union,
    )


def merged_game(games: Iterable[WeightedMajorityGame]) -> WeightedMajorityGame:
    """The union game, but only if the family is mergeable.

    On success the union's minimal winning coalitions are guaranteed to be
    the disjoint union of the components'.
    """
    report = check_wm_mergeability(games)
    if not report.overall:
        raise NotWMMergeable("games are not WM-mergeable", report)
    return report.union
