import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import mwc_sets, rational_weighted_games, weighted_game_families
from strategies import weighted_games, wmg
from wmpower import (
    Coalition,
    WeightedMajorityGame,
    check_wm_mergeability,
    merged_game,
    minimal_winning_coalitions,
    mwc_group_decomposition,
    random_mergeable_family,
    single_mwc_decomposition,
    wm_union,
)
from wmpower.errors import (
    FewerThanTwoGames,
    GameError,
    NotMergeable,
    NotWMMergeable,
    PlayerCountMismatch,
    WeightsRequired,
)
from wmpower.games import _support_mask


PAIR_OK = (wmg(4, 3, 2, 0), wmg(4, 3, 0, 1))
PAIR_QUOTA_MISMATCH = (wmg(5, 1, 2, 3), wmg(6, 1, 4, 5))


class TestWmUnion:
    def test_min_quota_max_weights(self):
        assert wm_union(PAIR_QUOTA_MISMATCH) == wmg(5, 1, 4, 5)

    def test_disjoint_support_pair(self):
        assert wm_union(PAIR_OK) == wmg(4, 3, 2, 1)

    def test_idempotent(self):
        g = wmg(4, 3, 2, 1)
        assert wm_union((g, g)) == g

    def test_needs_two_games(self):
        with pytest.raises(FewerThanTwoGames):
            wm_union((wmg(4, 3, 2, 1),))

    def test_player_count_mismatch(self):
        with pytest.raises(PlayerCountMismatch):
            wm_union((wmg(2, 1, 1), wmg(2, 1, 1, 1)))

    def test_order_insensitive(self):
        family = single_mwc_decomposition(wmg(51, 50, 46, 4, 1))
        expected = wm_union(family)
        for permuted in itertools.permutations(family):
            assert wm_union(permuted) == expected


@pytest.mark.parametrize("merge", [wm_union, check_wm_mergeability, merged_game])
def test_bare_simple_games_are_refused(merge):
    # A bare SimpleGame has no quota and no weights to merge.
    game = PAIR_OK[0]
    for family in ([game, game.induced_simple_game], [game.induced_simple_game, game]):
        with pytest.raises(WeightsRequired):
            merge(family)


class TestCheckWmMergeability:
    def test_all_conditions_pass(self):
        report = check_wm_mergeability(PAIR_OK)
        assert report.equal_quotas
        assert report.weight_compatible and report.offending_players == ()
        assert report.losing_preserved and report.losing_counterexample is None
        assert report.mwc_count_additive
        assert report.union_mwc_count == 2 and report.component_mwc_count == 2
        assert report.overall

    def test_quota_mismatch_fails_condition_one(self):
        report = check_wm_mergeability(PAIR_QUOTA_MISMATCH)
        assert not report.equal_quotas
        assert not report.overall

    def test_losing_preservation_counterexample(self):
        report = check_wm_mergeability((wmg(4, 3, 2, 0), wmg(4, 0, 2, 3)))
        assert report.equal_quotas
        assert report.weight_compatible
        assert not report.losing_preserved
        # {0, 2} loses in both games (3 < 4) but its max weights reach 6 >= 4
        assert report.losing_counterexample == Coalition([0, 2])
        assert not report.mwc_count_additive
        assert report.union_mwc_count == 3
        assert report.component_mwc_count == 2
        assert not report.overall

    def test_incompatible_weights_reported(self):
        report = check_wm_mergeability(PAIR_QUOTA_MISMATCH)
        assert not report.weight_compatible
        assert report.offending_players == (1, 2)

    def test_all_conditions_always_evaluated(self):
        # condition 1 already fails, yet the other three are still measured
        report = check_wm_mergeability(PAIR_QUOTA_MISMATCH)
        assert report.union_mwc_count == 2
        assert report.component_mwc_count == 3
        assert report.losing_counterexample is not None

    def test_describe_lines(self):
        lines = check_wm_mergeability(PAIR_OK).describe()
        assert lines[-1] == "WM-mergeable: yes"
        assert all("PASS" in line for line in lines[:-1])


class TestMergedGame:
    def test_returns_union_with_disjoint_mwcs(self):
        union = merged_game(PAIR_OK)
        assert union == wmg(4, 3, 2, 1)
        assert mwc_sets(union) == {frozenset({0, 1}), frozenset({0, 2})}

    def test_raises_with_report(self):
        with pytest.raises(NotWMMergeable) as exc_info:
            merged_game(PAIR_QUOTA_MISMATCH)
        assert not exc_info.value.report.equal_quotas
        # the subclass is still catchable as the generic error
        with pytest.raises(NotMergeable):
            merged_game(PAIR_QUOTA_MISMATCH)

    def test_decomposition_recovers_original(self):
        g = wmg(51, 50, 46, 4, 1)
        family = single_mwc_decomposition(g)
        assert [str(part) for part in family] == [
            "[51; 50, 46, 0, 0]",
            "[51; 50, 0, 4, 0]",
            "[51; 50, 0, 0, 1]",
            "[51; 0, 46, 4, 1]",
        ]
        assert merged_game(family) == g


class TestDecomposition:
    def test_each_component_has_one_mwc(self):
        g = wmg(51, 50, 46, 4, 1)
        originals = minimal_winning_coalitions(g).mwc
        for part, coalition in zip(single_mwc_decomposition(g), originals):
            assert minimal_winning_coalitions(part).mwc == (coalition,)

    def test_null_players_keep_their_weight(self):
        g = wmg(6, 4, 2, 2, 1)  # player 3 is null
        assert mwc_sets(g) == {frozenset({0, 1}), frozenset({0, 2})}
        parts = single_mwc_decomposition(g)
        assert parts[0].weights == (4, 2, 0, 1)
        assert parts[1].weights == (4, 0, 2, 1)

    def test_needs_multiple_mwcs(self):
        with pytest.raises(GameError):
            single_mwc_decomposition(wmg(4, 2, 2, 1))

    def test_groups_must_partition(self):
        g = wmg(51, 50, 46, 4, 1)
        with pytest.raises(GameError):
            mwc_group_decomposition(g, [[0, 1], [1, 2, 3]])
        with pytest.raises(GameError):
            mwc_group_decomposition(g, [[0, 1], [2]])
        with pytest.raises(FewerThanTwoGames):
            mwc_group_decomposition(g, [[0, 1, 2, 3]])


@given(weighted_games(max_players=8))
@settings(max_examples=50, deadline=None)
def test_single_mwc_decomposition_always_mergeable(game):
    if len(minimal_winning_coalitions(game).mwc) < 2:
        return
    family = single_mwc_decomposition(game)
    report = check_wm_mergeability(family)
    assert report.overall
    assert wm_union(family) == game


# Examples: a null player of weight 1, which every component keeps; zero
# weights next to rational ones.
@given(rational_weighted_games(), st.randoms(use_true_random=False))
@example(wmg(6, 4, 2, 2, 1), random.Random(0))
@example(wmg("5/2", "3/2", 0, "3/2", 1, 1, 0), random.Random(0))
@settings(max_examples=100, deadline=None)
def test_single_mwc_components_list_what_their_diagram_lists(game, rng):
    # A component is derived from its parent without the public constructor's
    # checks, and one cut from a single mwc is handed that mwc, not listed; a
    # random partition into groups of 1-3 mwcs lists the larger groups too.
    masks = minimal_winning_coalitions(game).masks
    if len(masks) < 2:
        return
    order = list(range(len(masks)))
    rng.shuffle(order)
    groups, k = [], 0
    while k < len(order):  # no group takes every mwc
        size = rng.randint(1, min(3, len(masks) - 1))
        groups.append(order[k : k + size])
        k += size
    null = ((1 << game.n_players) - 1) ^ _support_mask(masks)
    singles = [[k] for k in range(len(masks))]
    for parts, family in (
        (singles, single_mwc_decomposition(game)),
        (groups, mwc_group_decomposition(game, groups)),
    ):
        for component, part in zip(family, parts, strict=True):
            support = null | _support_mask(masks[k] for k in part)
            assert component.weights == tuple(
                w if support >> i & 1 else 0 for i, w in enumerate(game.weights)
            )
            fresh = WeightedMajorityGame(component.quota, component.weights)
            assert component == fresh and hash(component) == hash(fresh)
            assert str(component) == str(fresh)
            assert component.integer_form == fresh.integer_form
            assert minimal_winning_coalitions(component) == minimal_winning_coalitions(fresh)


def test_passing_check_implies_disjoint_union_for_grouped_families():
    rng = random.Random(417)
    checked = 0
    while checked < 25:
        # draw games until one has enough mwcs to group
        n = rng.randint(3, 7)
        weights = [rng.randint(0, 6) for _ in range(n)]
        if sum(weights) == 0:
            continue
        quota = rng.randint(1, sum(weights))
        game = WeightedMajorityGame(quota, weights)
        count = len(minimal_winning_coalitions(game).mwc)
        if count < 3:
            continue
        indices = list(range(count))
        rng.shuffle(indices)
        cut = rng.randint(1, count - 1)
        groups = [sorted(indices[:cut]), sorted(indices[cut:])]
        family = mwc_group_decomposition(game, groups)
        report = check_wm_mergeability(family)
        if report.overall:
            union = wm_union(family)
            union_mwcs = set(minimal_winning_coalitions(union).mwc)
            component_mwcs = [
                set(minimal_winning_coalitions(part).mwc) for part in family
            ]
            assert union_mwcs == set().union(*component_mwcs)
            assert len(union_mwcs) == sum(len(m) for m in component_mwcs)
            for a, b in itertools.combinations(component_mwcs, 2):
                assert not (a & b)
        checked += 1


def test_condition3_failure_implies_new_or_coarser_mwc():
    rng = random.Random(93)
    found = 0
    while found < 20:
        n = rng.randint(2, 6)
        quota = rng.randint(2, 10)
        games = []
        ok = True
        for _ in range(2):
            weights = [rng.randint(0, 6) for _ in range(n)]
            if sum(weights) < quota:
                ok = False
                break
            games.append(WeightedMajorityGame(quota, weights))
        if not ok:
            continue
        report = check_wm_mergeability(games)
        if report.losing_preserved:
            continue
        union_mwcs = mwc_sets(wm_union(games))
        component_mwcs = mwc_sets(games[0]) | mwc_sets(games[1])
        fresh = union_mwcs - component_mwcs
        coarser = any(
            any(comp < um for comp in component_mwcs) for um in union_mwcs
        )
        assert fresh or coarser
        found += 1


@given(weighted_game_families(max_players=9))
@settings(max_examples=80, deadline=None)
def test_condition3_counterexample_matches_brute_force(games):
    expected = oracles.brute_force_losing_counterexamples(games)
    report = check_wm_mergeability(games)
    assert report.losing_preserved == (not expected)
    if expected:
        # The least counterexample in (cardinality, mask) order; having no
        # smaller counterexample, it is a minimal one.
        least = min(expected, key=lambda c: (len(c), sum(1 << i for i in c)))
        assert frozenset(report.losing_counterexample) == least


@given(weighted_game_families(max_players=9))
@settings(max_examples=80, deadline=None)
def test_conditions_1_and_2_match_their_set_definitions(games):
    report = check_wm_mergeability(games)
    assert report.equal_quotas == oracles.equal_quotas_by_definition(games)
    assert report.offending_players == oracles.offending_players_by_definition(games)


def test_random_mergeable_family_helper_is_seeded():
    family_a = random_mergeable_family(random.Random(7))
    family_b = random_mergeable_family(random.Random(7))
    assert family_a == family_b
    assert check_wm_mergeability(family_a).overall
