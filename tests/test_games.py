import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladder
import oracles
from package import run_python
from strategies import bits40_game, prime_reciprocals_game, rational_weighted_games
from strategies import mwc_sets, sg, simple_game_pairs, simple_games
from strategies import weighted_and_bare_pairs, weighted_games
from wmpower import (
    Coalition,
    PowerIndexVector,
    SimpleGame,
    WeightedMajorityGame,
    are_symmetric,
    decimal_string,
    ecuador_document,
    is_null_player,
    minimal_antichain,
    minimal_winning_coalitions,
    mwc_group_decomposition,
    simple_intersection,
    simple_mergeable,
    simple_union,
    swings,
    unanimity_game,
    wm_union,
)
from wmpower.errors import (
    EmptyCoalition,
    GameError,
    GrandCoalitionLoses,
    NegativeWeight,
    NonPositiveQuota,
    ParseError,
    PlayerCountMismatch,
    PlayerOutOfRange,
    SamePlayer,
    TooManyPlayers,
)
from wmpower.games import exact


def game_51() -> WeightedMajorityGame:
    return WeightedMajorityGame(51, (50, 46, 4, 1))


class TestWeightedGameConstruction:
    def test_valid_games(self):
        g = game_51()
        assert g.n_players == 4
        assert g.quota == Fraction(51)
        assert WeightedMajorityGame(1, (1,)).n_players == 1

    def test_grand_coalition_must_win(self):
        with pytest.raises(GrandCoalitionLoses):
            WeightedMajorityGame(5, (1, 1, 1))

    def test_quota_must_be_positive(self):
        with pytest.raises(NonPositiveQuota):
            WeightedMajorityGame(0, (1, 1))
        with pytest.raises(NonPositiveQuota):
            WeightedMajorityGame(Fraction(-1, 2), (1, 1))

    def test_weights_must_be_non_negative(self):
        with pytest.raises(NegativeWeight):
            WeightedMajorityGame(1, (2, -1))

    def test_player_cap(self):
        WeightedMajorityGame(1, (1,) * 64)
        with pytest.raises(TooManyPlayers):
            WeightedMajorityGame(1, (1,) * 65)

    def test_floats_rejected(self):
        with pytest.raises(GameError):
            WeightedMajorityGame(0.5, (1, 1))
        with pytest.raises(GameError):
            WeightedMajorityGame(1, (0.5, 1))

    def test_unprintable_fractions_rejected(self):
        # A Fraction whose numerator or denominator has more digits than
        # str() prints is refused as the game is built, not when it prints.
        huge = 10**5000
        for quota, weights in (
            (Fraction(huge), [Fraction(huge)]),
            (1, [Fraction(huge), 1]),
            (Fraction(1, huge), [1]),
            (1, [1, Fraction(huge + 1, huge)]),
        ):
            with pytest.raises(ParseError, match="too long to print"):
                WeightedMajorityGame(quota, weights)

    def test_rational_quota_and_weights(self):
        g = WeightedMajorityGame("3/2", (Fraction(1, 2), 1, "1/2"))
        assert g.quota == Fraction(3, 2)
        assert g.is_winning([1, 2])
        assert not g.is_winning([0, 2])

    def test_equality_is_exact_representation(self):
        assert game_51() == game_51()
        assert game_51() != WeightedMajorityGame(51, (50, 46, 4, 2))
        # same induced simple game, different weights: still distinct
        assert WeightedMajorityGame(2, (1, 1)) != WeightedMajorityGame(4, (2, 2))


PADDING = st.sampled_from(["", " ", "\t", "\n ", "\u00a0"])
# Decimals, p/q (x/0 and p/-q included), padded fractions, mostly malformed
# text, and 1eN with N up to 10**8.
RATIONAL_TEXTS = st.one_of(
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.builds("{}/{}".format, st.integers(), st.integers(-3, 10**6)),
    st.builds("{}{}{}".format, PADDING, st.fractions().map(str), PADDING),
    st.text(max_size=12),
    st.builds("1e{}".format, st.integers(-(10**8), 10**8)),
)
HUGE = st.integers(10**4300, 10**5000)  # past the 4300 digits str() prints
SCALARS = st.one_of(
    st.integers(),
    HUGE,
    st.fractions(),
    st.builds(Fraction, HUGE, st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(), HUGE),
    st.booleans(),
    st.floats(),
    st.none(),
    RATIONAL_TEXTS,
)


@given(SCALARS)
@example(True)
@example("1/0")
@example("2/x")
@example(10**5000)
@example("1e2000000")
@example("1e20000000")  # Fraction() alone would run for about 30 s
@example("1_000")
@example("12 / 6")
@settings(max_examples=300, deadline=1000)
def test_outside_scalars_become_fractions_or_game_errors(value):
    # exact() takes a Fraction, an int or a string to Fraction(value), and
    # refuses the rest at once with a GameError: bools, floats, None,
    # malformed text and unprintable values. PowerIndexVector and
    # decimal_string keep a Fraction as it is, since the indices compute
    # theirs, and coerce the rest with exact(), and so does a game's quota.
    try:
        rational = exact(value)
    except GameError:
        rational = None
    else:
        assert type(value) in (int, str, Fraction)
        assert rational == Fraction(value)
        str(rational)  # every accepted value prints
    if rational is None or rational <= 0:
        with pytest.raises(GameError):
            WeightedMajorityGame(value, [1])
    else:
        assert WeightedMajorityGame(value, [value]).quota == rational
    try:
        kept = PowerIndexVector("X", [value]).values[0]
    except GameError:
        kept = None
    assert kept is value if isinstance(value, Fraction) else kept == rational
    if rational is not None:
        assert decimal_string(value, 2) == decimal_string(Fraction(value), 2)
    elif not isinstance(value, Fraction):
        with pytest.raises(GameError):
            decimal_string(value, 2)


@pytest.mark.parametrize("text", ["1_000", "12 / 6", " 1_0/3 ", "1\t/2"])
def test_underscores_and_inner_whitespace_are_malformed(text):
    # Fraction reads the first from Python 3.11 on and the second from 3.12
    # on; every interpreter refuses both here.
    with pytest.raises(ParseError, match="^malformed rational "):
        exact(text)


INDEX_LIKE = st.one_of(
    st.integers(max_value=-1),
    st.integers(0, 70),
    st.integers(2**64, 2**80),
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(max_size=3),
)


@given(INDEX_LIKE | st.lists(INDEX_LIKE, max_size=4))
@example(True)  # not player 1, nor a player count, a mask or an mwc index
@example(5)  # no coalition
@example(2.5)  # no player count, nor digits
@example(1.5)  # no member
@example(1.0)  # no mwc index
@example([1, 2])  # a coalition to test a subset against
@example(10**5000)  # an int too long to print, as an index, a count or digits
@example([10**5000])  # and as a member of a coalition
@settings(max_examples=300, deadline=1000)
def test_outside_indices_and_counts_are_ints_or_game_errors(value):
    # Every entry point that takes an index, a count or a coalition accepts
    # an int that is no bool, within range, and refuses the rest at once
    # with a GameError; membership answers False for anything else.
    game = WeightedMajorityGame(2, [1, 1, 1])  # mwcs {0, 1}, {0, 2}, {1, 2}
    is_int = type(value) is int

    def accepted(call) -> bool:
        try:
            call()
        except GameError:
            return False
        return True

    for call in (lambda: is_null_player(game, value), lambda: swings(game, value)):
        assert accepted(call) == (is_int and 0 <= value < 3)
    assert accepted(lambda: are_symmetric(game, 2, value)) == (is_int and value in (0, 1))
    assert accepted(lambda: SimpleGame(value, [[0]])) == (is_int and 1 <= value <= 64)
    assert accepted(lambda: Coalition.from_mask(value)) == (is_int and 0 <= value < 2**64)
    groups = [[value], [0, 2]]
    assert accepted(lambda: mwc_group_decomposition(game, groups)) == (is_int and value == 1)
    digits = is_int and 1 <= value <= sys.get_int_max_str_digits()
    assert accepted(lambda: decimal_string(Fraction(1, 3), value)) == digits

    def members_within(n: int) -> bool:  # an iterable of player indices below n
        return isinstance(value, (list, str)) and all(
            type(p) is int and 0 <= p < n for p in value
        )

    for call in (lambda: Coalition(value), lambda: Coalition([0]).issubset(value)):
        assert accepted(call) == members_within(64)
    for call in (
        lambda: game.is_winning(value),
        lambda: game.coalition_weight(value),
        lambda: game.induced_simple_game.is_winning(value),
    ):
        assert accepted(call) == members_within(3)
    for call in (lambda: SimpleGame(3, [value]), lambda: unanimity_game(3, value)):
        assert accepted(call) == (members_within(3) and len(value) > 0)
    membership = value in Coalition([0, 1])
    assert membership is (is_int and value in (0, 1))


THREE = WeightedMajorityGame(2, [1, 1, 1])


# A container that is not iterable: a coalition, a family of coalitions, the
# groups of a decomposition or one group, a family of games.
@pytest.mark.parametrize(
    "call",
    [
        lambda: THREE.is_winning(5),
        lambda: Coalition(5),
        lambda: THREE.coalition_weight(5),
        lambda: Coalition([0]).issubset(5),
        lambda: unanimity_game(3, 5),
        lambda: SimpleGame(3, [5]),
        lambda: minimal_antichain([5]),
        lambda: SimpleGame(3, 5),
        lambda: minimal_antichain(5),
        lambda: mwc_group_decomposition(THREE, [[0], 1]),
        lambda: mwc_group_decomposition(THREE, 5),
        lambda: wm_union(5),
    ],
    ids=[
        "is_winning", "coalition", "coalition_weight", "issubset", "unanimity_game",
        "simple_game_member", "minimal_antichain_member",
        "simple_game", "minimal_antichain", "group", "groups", "wm_union",
    ],
)
def test_non_iterable_containers_are_parse_errors(call):
    with pytest.raises(ParseError, match="^expected "):
        call()


def test_minimal_antichain_takes_plain_iterables_of_player_indices():
    family = [[0, 1], (0, 1, 2), range(2, 3), Coalition([1, 0])]
    assert minimal_antichain(family) == (Coalition([2]), Coalition([0, 1]))
    with pytest.raises(PlayerOutOfRange):
        minimal_antichain([[0], [64]])


class TestSimpleGameConstruction:
    def test_canonical_order_and_equality(self):
        a = SimpleGame(3, (Coalition([1, 2]), Coalition([0])))
        b = SimpleGame(3, (Coalition([0]), Coalition([2, 1])))
        assert a == b
        assert a.mwc == (Coalition([0]), Coalition([1, 2]))

    def test_duplicates_collapse(self):
        g = SimpleGame(2, (Coalition([0]), Coalition([0])))
        assert g.mwc == (Coalition([0]),)

    def test_antichain_enforced(self):
        with pytest.raises(GameError):
            SimpleGame(3, (Coalition([0]), Coalition([0, 1])))
        # The refusal names the first coalition, in (size, mask) order, that
        # holds a kept one, and the first kept one inside it; {0, 3} comes later.
        with pytest.raises(GameError, match=re.escape("antichain; {1} vs {1, 2}")):
            SimpleGame(4, [[0], [1], [1, 2], [0, 3]])

    def test_empty_mwc_family_rejected(self):
        with pytest.raises(GameError):
            SimpleGame(3, ())

    def test_empty_coalition_rejected(self):
        with pytest.raises(EmptyCoalition):
            SimpleGame(3, (Coalition(),))

    def test_members_must_be_in_range(self):
        with pytest.raises(PlayerOutOfRange):
            SimpleGame(2, (Coalition([3]),))

    @pytest.mark.parametrize("n_players", [0, 65])
    def test_player_count_outside_the_cap_rejected(self, n_players):
        with pytest.raises(TooManyPlayers, match=f"player count {n_players} outside 1..64"):
            SimpleGame(n_players, [[0]])


@st.composite
def mask_families(draw):
    """A player count n <= 8 and a list of masks over its players, the empty one included."""
    n = draw(st.integers(1, 8))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))


@given(mask_families())
@example((4, [0b0001, 0b0010, 0b0110, 0b1001]))
@example((3, [0b011, 0b011, 0b100]))  # duplicates
@example((2, [0, 0b11]))
def test_simple_game_accepts_exactly_the_antichains(n_masks):
    n, masks = n_masks
    family = {frozenset(Coalition.from_mask(m)) for m in masks}
    antichain = (
        bool(family)
        and frozenset() not in family
        and oracles.minimal_by_definition(family) == family
    )
    try:
        game = SimpleGame(n, map(Coalition.from_mask, masks))
    except GameError as err:
        assert not antichain
        if family and frozenset() not in family:
            # The refusal names two coalitions of the family, the first
            # a proper subset of the second.
            named = re.fullmatch(r".*; (\{[\d, ]*\}) vs (\{[\d, ]*\})", str(err)).groups()
            inside, outside = (frozenset(map(int, re.findall(r"\d+", s))) for s in named)
            assert inside in family and outside in family and inside < outside
    else:
        assert antichain
        assert {frozenset(c) for c in game.mwc} == family


class TestCoalitionWeight:
    def test_pair_weight(self):
        assert game_51().coalition_weight([0, 1]) == 96

    def test_empty_weighs_zero(self):
        assert game_51().coalition_weight([]) == 0

    def test_parliament_bloc_weight(self):
        may = ecuador_document("may21").game()
        # MUPP, ID, PSC, IND
        assert may.coalition_weight([1, 2, 3, 5]) == 76

    def test_out_of_range(self):
        with pytest.raises(PlayerOutOfRange):
            game_51().coalition_weight([4])


class TestIsWinning:
    def test_exact_threshold_wins(self):
        assert game_51().is_winning([0, 3])  # 51 == quota

    def test_below_threshold_loses(self):
        assert not game_51().is_winning([2, 3])

    def test_simple_game_superset_of_mwc_wins(self):
        g = SimpleGame(3, (Coalition([0, 1]), Coalition([0, 2])))
        assert g.is_winning([0, 1, 2])
        assert not g.is_winning([1, 2])

    def test_out_of_range(self):
        with pytest.raises(PlayerOutOfRange):
            game_51().is_winning([7])


class TestMinimalWinningCoalitions:
    def test_four_player_game(self):
        assert mwc_sets(game_51()) == {
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0, 3}),
            frozenset({1, 2, 3}),
        }

    def test_three_player_game(self):
        assert mwc_sets(WeightedMajorityGame(4, (3, 2, 1))) == {
            frozenset({0, 1}),
            frozenset({0, 2}),
        }

    def test_parliament_may_2021(self):
        may = ecuador_document("may21").game()
        # UNES=0, MUPP=1, ID=2, PSC=3, CREO=4, IND=5
        assert mwc_sets(may) == {
            frozenset({0, 1}),
            frozenset({0, 2, 3}),
            frozenset({0, 2, 4}),
            frozenset({0, 2, 5}),
            frozenset({0, 3, 4}),
            frozenset({0, 3, 5}),
            frozenset({0, 4, 5}),
            frozenset({1, 2, 3, 4}),
            frozenset({1, 2, 3, 5}),
            frozenset({1, 2, 4, 5}),
            frozenset({1, 3, 4, 5}),
        }

    def test_identity_on_simple_games(self):
        g = SimpleGame(3, (Coalition([0, 1]),))
        assert minimal_winning_coalitions(g) is g

    def test_result_is_cached(self):
        g = game_51()
        assert minimal_winning_coalitions(g) is minimal_winning_coalitions(g)


class TestSwings:
    def test_heavy_player_has_six_swings(self):
        result = swings(game_51(), 0)
        assert result.player == 0
        assert {frozenset(c) for c in result.swings} == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
        }

    def test_unanimity_swing_is_the_full_remainder(self):
        u = unanimity_game(4, Coalition(range(4)))
        for i in range(4):
            result = swings(u, i)
            assert {frozenset(c) for c in result.swings} == {
                frozenset(set(range(4)) - {i})
            }

    def test_light_player_swings(self):
        result = swings(game_51(), 2)
        assert {frozenset(c) for c in result.swings} == {
            frozenset({0}),
            frozenset({1, 3}),
        }

    def test_out_of_range(self):
        with pytest.raises(PlayerOutOfRange):
            swings(game_51(), 4)


class TestNullPlayers:
    def test_null_player_detected(self):
        g = WeightedMajorityGame(4, (2, 2, 1))
        assert is_null_player(g, 2)
        assert not is_null_player(g, 0)

    def test_no_null_players_in_reference_game(self):
        g = game_51()
        assert not any(is_null_player(g, i) for i in range(4))

    def test_out_of_range(self):
        with pytest.raises(PlayerOutOfRange):
            is_null_player(game_51(), 9)


class TestSymmetry:
    def test_equal_weight_benches_are_symmetric(self):
        may = ecuador_document("may21").game()
        assert are_symmetric(may, 2, 3)  # ID, PSC

    def test_unequal_weight_benches_can_be_symmetric(self):
        may = ecuador_document("may21").game()
        assert are_symmetric(may, 4, 5)  # CREO (12), IND (13)

    def test_asymmetric_pair(self):
        # S = {2}: adding player 0 wins (54), adding player 1 loses (50)
        assert not are_symmetric(game_51(), 0, 1)

    def test_same_player_rejected(self):
        with pytest.raises(SamePlayer):
            are_symmetric(game_51(), 1, 1)

    def test_out_of_range(self):
        with pytest.raises(PlayerOutOfRange):
            are_symmetric(game_51(), 0, 17)

    def test_listed_masks_stay_out_of_equality(self):
        game = SimpleGame(3, [Coalition({0, 1}), Coalition({2})])
        assert are_symmetric(game, 0, 1)
        assert game == SimpleGame(3, [Coalition({2}), Coalition({0, 1})])
        assert "_mask_set" not in repr(game)

    def test_sixty_four_players_read_off_the_mwcs(self):
        # 61 zero-weight players: a walk over the coalitions without the
        # pair 3, 4 would visit 2**62 of them; the swing tally reads them off
        # a decision diagram of at most q + 1 = 4 nodes per level. Players 0,
        # 1, 2 form a majority of three, so 0 and 2 are symmetric; 0 and 3 are not.
        code = (
            "from wmpower import WeightedMajorityGame, are_symmetric\n"
            "game = WeightedMajorityGame(3, [2, 2, 1] + [0] * 61)\n"
            "print(*(are_symmetric(game, i, j) for i, j in ((3, 4), (0, 2), (0, 3))))\n"
        )
        result = run_python("-c", code, timeout=10)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "True", "False"]


class TestUnanimity:
    def test_full_coalition(self):
        u = unanimity_game(3, Coalition([0, 1, 2]))
        assert u.mwc == (Coalition([0, 1, 2]),)

    def test_dictator(self):
        u = unanimity_game(4, Coalition([1]))
        assert u.mwc == (Coalition([1]),)
        assert u.is_winning([1])
        assert not u.is_winning([0, 2, 3])

    def test_off_members_are_null(self):
        u = unanimity_game(3, Coalition([0, 1]))
        assert is_null_player(u, 2)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCoalition):
            unanimity_game(3, Coalition())


class TestUnionIntersectionMergeable:
    def test_union_absorbs_supersets(self):
        assert simple_union(sg(2, [0, 1]), sg(2, [0])) == sg(2, [0])

    def test_union_of_mergeable_games_keeps_all_mwcs(self):
        v = sg(5, [0, 1], [0, 2])
        v_prime = sg(5, [2, 3], [2, 4], [3, 4])
        union = simple_union(v, v_prime)
        assert {frozenset(c) for c in union.mwc} == {
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({2, 3}),
            frozenset({2, 4}),
            frozenset({3, 4}),
        }

    def test_union_idempotent(self):
        v = sg(3, [0, 1], [1, 2])
        assert simple_union(v, v) == v

    def test_intersection_of_dictators(self):
        assert simple_intersection(sg(2, [0]), sg(2, [1])) == sg(2, [0, 1])

    def test_intersection_idempotent(self):
        v = sg(3, [0, 1], [1, 2])
        assert simple_intersection(v, v) == v

    def test_intersection_reduces_to_common_core(self):
        # winning in both games: {0,1} and {0,1,2} only, so mwc is {{0,1}}
        v = sg(3, [0, 1], [0, 2])
        v_prime = sg(3, [0, 1], [1, 2])
        assert simple_intersection(v, v_prime) == sg(3, [0, 1])

    def test_mergeable_pair(self):
        assert simple_mergeable(sg(5, [0, 1], [0, 2]), sg(5, [2, 3], [2, 4], [3, 4]))

    def test_containment_blocks_mergeability(self):
        assert not simple_mergeable(sg(3, [0, 1]), sg(3, [0, 1, 2]))

    def test_game_never_mergeable_with_itself(self):
        v = sg(3, [0, 1], [1, 2])
        assert not simple_mergeable(v, v)

    def test_player_count_mismatch(self):
        with pytest.raises(PlayerCountMismatch):
            simple_union(sg(2, [0]), sg(3, [0]))
        with pytest.raises(PlayerCountMismatch):
            simple_intersection(sg(2, [0]), sg(3, [0]))
        with pytest.raises(PlayerCountMismatch):
            simple_mergeable(sg(2, [0]), sg(3, [0]))


@given(weighted_games(max_players=8))
@settings(max_examples=60, deadline=None)
def test_induced_mwc_is_canonical_antichain(game):
    induced = minimal_winning_coalitions(game)
    mwcs = induced.mwc
    assert mwcs == tuple(sorted(set(mwcs), key=lambda c: (len(c), c.mask)))
    for a in mwcs:
        for b in mwcs:
            assert a == b or not a.issubset(b)


@given(weighted_games(max_players=8))
@settings(max_examples=40, deadline=None)
def test_monotonicity(game):
    n = game.n_players
    for mask in range(1 << n):
        sub = mask
        winning = game.is_winning(Coalition.from_mask(mask))
        while sub:
            sub = (sub - 1) & mask
            if game.is_winning(Coalition.from_mask(sub)):
                assert winning
                break


@given(st.one_of(weighted_games(max_players=8), rational_weighted_games(max_players=8)))
@settings(max_examples=120, deadline=None)
def test_mwc_agrees_with_brute_force(game):
    assert mwc_sets(game) == oracles.brute_force_mwcs(game)


@given(rational_weighted_games(max_players=10))
@settings(max_examples=60, deadline=None)
def test_trusted_mwc_construction_matches_validating_constructor(game):
    induced = minimal_winning_coalitions(game)
    validated = SimpleGame(game.n_players, tuple(reversed(induced.mwc)))
    assert induced == validated
    assert induced.mwc == validated.mwc


@given(st.one_of(simple_games(max_players=7, max_mwcs=6), rational_weighted_games(max_players=9)))
@settings(max_examples=100, deadline=None)
def test_masks_are_canonical_and_mwc_boxes_them(game):
    induced = minimal_winning_coalitions(game)
    masks = induced.masks
    keys = [(m.bit_count(), m) for m in masks]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    trusted = SimpleGame._trusted(game.n_players, reversed(masks))
    validated = SimpleGame(game.n_players, reversed(induced.mwc))
    assert trusted == validated and hash(trusted) == hash(validated)
    assert trusted.masks == validated.masks == masks
    assert induced.mwc == tuple(Coalition.from_mask(m) for m in masks)
    assert all(type(c) is Coalition for c in induced.mwc)


def test_repr_boxes_the_masks():
    assert repr(SimpleGame(3, [[0, 2], [0, 1]])) == (
        "SimpleGame(n_players=3, mwc=(Coalition([0, 1]), Coalition([0, 2])))"
    )


@given(st.one_of(weighted_games(max_players=7), rational_weighted_games(max_players=7)))
@settings(max_examples=60, deadline=None)
def test_swings_empty_iff_null(game):
    for i in range(game.n_players):
        assert (len(swings(game, i)) == 0) == is_null_player(game, i)
        assert {frozenset(c) for c in swings(game, i)} == oracles.brute_force_swings(
            game, i
        )


# One walk serves both game kinds: each S without the player that loses
# while S plus the player wins, listed by (size, mask).
@given(st.one_of(rational_weighted_games(max_players=7), simple_games(max_players=7, max_mwcs=6)))
@example(WeightedMajorityGame(3, (2, 2, 1, 0, 0)))
@example(SimpleGame(4, [[0, 1], [1, 2]]))
@settings(max_examples=80, deadline=None)
def test_swings_match_definition_for_both_game_kinds(game):
    for i in range(game.n_players):
        found = swings(game, i)
        assert {frozenset(c) for c in found} == oracles.swings_by_definition(game, i)
        keys = [(len(c), c.mask) for c in found]
        assert keys == sorted(keys)


@given(weighted_games(max_players=6), weighted_games(max_players=6))
@settings(max_examples=40, deadline=None)
def test_mergeable_union_is_disjoint_union(game_a, game_b):
    if game_a.n_players != game_b.n_players:
        return
    v = minimal_winning_coalitions(game_a)
    v_prime = minimal_winning_coalitions(game_b)
    if not simple_mergeable(v, v_prime):
        return
    union = simple_union(v, v_prime)
    assert set(union.mwc) == set(v.mwc) | set(v_prime.mwc)
    assert len(union.mwc) == len(v.mwc) + len(v_prime.mwc)


@given(weighted_games(max_players=8))
@settings(max_examples=30, deadline=None)
def test_unanimity_game_has_single_mwc(game):
    induced = minimal_winning_coalitions(game)
    u = unanimity_game(game.n_players, induced.mwc[0])
    assert len(u.mwc) == 1


@given(simple_game_pairs())
@settings(max_examples=100, deadline=None)
def test_union_and_intersection_match_validating_constructor(pair):
    v, v_prime = pair
    for combined in (simple_union(v, v_prime), simple_intersection(v, v_prime)):
        validated = SimpleGame(v.n_players, tuple(reversed(combined.mwc)))
        assert combined == validated
        assert combined.mwc == validated.mwc


@given(simple_game_pairs())
@example((SimpleGame(3, [[0, 1]]), SimpleGame(3, [[2]])))  # mergeable
@example((SimpleGame(3, [[0, 1]]), SimpleGame(3, [[0, 1, 2]])))  # nested
@settings(max_examples=100, deadline=None)
def test_union_intersection_and_mergeability_match_definitions(pair):
    v, v_prime = pair
    mwcs, mwcs_prime = ([frozenset(c) for c in g.mwc] for g in pair)
    union = oracles.minimal_by_definition(mwcs + mwcs_prime)
    meet = oracles.minimal_by_definition(a | b for a in mwcs for b in mwcs_prime)
    assert {frozenset(c) for c in simple_union(v, v_prime).mwc} == union
    assert {frozenset(c) for c in simple_intersection(v, v_prime).mwc} == meet
    assert simple_mergeable(v, v_prime) == oracles.mergeable_by_definition(v, v_prime)


@given(weighted_and_bare_pairs())
@example((WeightedMajorityGame(2, [1, 1, 1]), SimpleGame(3, [[0, 1]])))  # a shared mwc
@example((SimpleGame(3, [[0, 1], [2]]), WeightedMajorityGame(2, [1, 1, 1])))
@settings(max_examples=100, deadline=None)
def test_union_and_mergeability_of_a_weighted_and_a_bare_game_match_definitions(pair):
    # The union keeps an mwc of one game where the other game loses or shares
    # it, read through the weighted game's own winning test.
    mwcs, mwcs_prime = (list(oracles.mwcs_by_definition(g)) for g in pair)
    union = oracles.minimal_by_definition(mwcs + mwcs_prime)
    assert {frozenset(c) for c in simple_union(*pair).mwc} == union
    induced = (SimpleGame(g.n_players, m) for g, m in zip(pair, (mwcs, mwcs_prime)))
    assert simple_mergeable(*pair) == oracles.mergeable_by_definition(*induced)


def test_join_of_two_20_player_games():
    # Each game has thousands of mwcs, so the join cannot afford to test each
    # pooled mask against every minimal mask kept so far.
    code = (
        "from wmpower import WeightedMajorityGame, simple_mergeable, simple_union\n"
        f"games = [WeightedMajorityGame(*game) for game in {ladder.majority_games(240206298, 20, 2)}]\n"
        "print(len(simple_union(*games).masks), simple_mergeable(*games))\n"
    )
    result = run_python("-c", code, timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["36897", "False"]


@given(st.one_of(rational_weighted_games(max_players=7), simple_games(max_players=7, max_mwcs=6)))
@example(WeightedMajorityGame(3, (2, 2, 1, 0, 0)))
@settings(max_examples=150, deadline=None)
def test_symmetry_matches_definition(game):
    n = game.n_players
    for i in range(n):
        for j in range(i + 1, n):
            assert are_symmetric(game, i, j) == oracles.symmetric_by_definition(game, i, j)


# Examples: tied weights (every pair symmetric); zero weights (null players,
# symmetric with each other); the quota at the total weight (one mwc, every
# zero-weight player null); weights above the quota; powers of two at their
# total, where only the grand coalition wins; weights 1/p for the
# primes p up to 23, whose integer quota is 111,546,435; and 40-bit weights,
# where every coalition weighs differently. The swing tally's diagram has at
# most 2**(n/2) + 1 nodes per level, whatever the weights.
@given(rational_weighted_games(max_players=7))
@example(WeightedMajorityGame("3/2", ("1/2", "1/2", "1/2", "1/2")))
@example(WeightedMajorityGame(2, (1, 0, 1, 0, 1)))
@example(WeightedMajorityGame(6, (3, 2, 0, 1)))
@example(WeightedMajorityGame("1/2", (1, 1)))
@example(WeightedMajorityGame(1, (1, 1)))
@example(WeightedMajorityGame(*ladder.powers_of_two_game(8)))
@example(prime_reciprocals_game())
@example(bits40_game(8))
@settings(max_examples=150, deadline=None)
def test_weighted_null_and_symmetric_players_match_definitions(game):
    # A weighted game answers from its swing tally; its induced simple game
    # from the mwc scans.
    induced = minimal_winning_coalitions(game)
    n = game.n_players
    for i in range(n):
        null = not oracles.brute_force_swings(game, i)
        assert is_null_player(game, i) == null == is_null_player(induced, i)
        for j in range(i + 1, n):
            symmetric = oracles.symmetric_by_definition(game, i, j)
            assert are_symmetric(game, i, j) == symmetric == are_symmetric(induced, i, j)


def test_null_player_check_on_22_players_of_distinct_sums_is_fast():
    # Every coalition of 2**0..2**21 weighs differently, so a tally of
    # swings by weight would hold 2**21 sums per size; the swing tally reads
    # a decision diagram of at most two nodes per level instead.
    code = (
        "from wmpower import WeightedMajorityGame, check_np, deegan_packel\n"
        f"g = WeightedMajorityGame(*{ladder.powers_of_two_game(22)})\n"
        "assert check_np(deegan_packel, g).holds\n"
    )
    result = run_python("-c", code, timeout=10)
    assert result.returncode == 0, result.stderr

