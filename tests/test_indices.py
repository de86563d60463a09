import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladder
import oracles
from package import run_python
from strategies import bits40_game, class_weighted_games, prime_reciprocals_game
from strategies import rational_weighted_games, simple_games, weighted_games, wmg
from wmpower import (
    Coalition,
    PowerIndexVector,
    SimpleGame,
    WeightedMajorityGame,
    are_symmetric,
    banzhaf,
    colomer_martinez,
    deegan_packel,
    ecuador_document,
    hcm,
    is_null_player,
    public_good,
    shapley_shubik,
    unanimity_game,
)
import wmpower
from wmpower.errors import GameError, WeightsRequired
from wmpower.games import mwc_count

F = Fraction


GAME_51 = wmg(51, 50, 46, 4, 1)
ALL_INDICES = (shapley_shubik, banzhaf, deegan_packel, public_good, colomer_martinez, hcm)


def test_power_index_vector_container():
    vector = PowerIndexVector("PG", (F(1, 2), F(1, 2)))
    assert len(vector) == 2
    assert vector[0] == F(1, 2)
    assert list(vector) == [F(1, 2), F(1, 2)]
    assert vector.total == 1


def test_power_index_vector_refuses_floats():
    # Fraction(0.1) would keep the binary float's error: a total of
    # 36028797018963969/36028797018963968, not 1.
    with pytest.raises(GameError, match="float"):
        PowerIndexVector("X", [0.1, 0.9])
    assert PowerIndexVector("X", [1, "1/2", F(-1, 2)]).values == (1, F(1, 2), F(-1, 2))


def test_efficiency_check_survives_optimize_flag():
    # The check must not be an assert statement, which -O strips; and it must
    # not be a GameError, which the CLI would report as bad input (exit 2).
    code = "\n".join([
        "import sys",
        "from wmpower.errors import GameError",
        "from wmpower.indices import _efficient",
        "assert sys.flags.optimize",
        "try:",
        "    _efficient('X', [1], 2)",
        "except GameError:",
        "    sys.exit('GameError raised')",
        "except Exception as err:",
        "    print(type(err).__name__, err)",
        "else:",
        "    sys.exit('accepted a vector summing to 1/2')",
    ])
    result = run_python("-O", "-c", code, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "X vector must sum to 1, got 1/2" in result.stdout


class TestShapleyShubik:
    def test_parliament_may_2021(self):
        may = ecuador_document("may21").game()
        assert shapley_shubik(may).values == (
            F(2, 5), F(1, 5), F(1, 10), F(1, 10), F(1, 10), F(1, 10),
        )

    def test_unanimity_is_equal_split(self):
        for n in (1, 2, 5):
            u = unanimity_game(n, Coalition(range(n)))
            assert shapley_shubik(u).values == (F(1, n),) * n

    def test_parliament_june_2021(self):
        jun = ecuador_document("jun21").game()
        assert shapley_shubik(jun).values == (
            F(7, 15), F(1, 6), F(1, 6), F(1, 15), F(1, 15), F(1, 15),
        )

    def test_backends_agree(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 7)
            weights = [rng.randint(0, 9) for _ in range(n)]
            if sum(weights) == 0:
                continue
            game = WeightedMajorityGame(rng.randint(1, sum(weights)), weights)
            assert (
                shapley_shubik(game.induced_simple_game).values
                == shapley_shubik(game).values
            )

    def test_backends_agree_on_rational_weights(self):
        game = wmg("5/2", "3/2", 1, "1/2", "1/3")
        assert (
            shapley_shubik(game.induced_simple_game).values
            == shapley_shubik(game).values
        )

    def test_matches_permutation_walk(self):
        for game in (GAME_51, wmg(4, 3, 2, 1), wmg(4, 2, 2, 1)):
            assert list(shapley_shubik(game).values) == oracles.shapley_by_permutations(
                game
            )


class TestBanzhaf:
    def test_dictator(self):
        dictator = unanimity_game(2, Coalition([0]))
        assert banzhaf(dictator).values == (F(1), F(0))

    def test_raw_swing_ratios(self):
        assert banzhaf(GAME_51, normalized=False).values == (
            F(6, 8), F(2, 8), F(2, 8), F(2, 8),
        )

    def test_normalized(self):
        assert banzhaf(GAME_51).values == (F(1, 2), F(1, 6), F(1, 6), F(1, 6))

    def test_raw_vector_does_not_sum_to_one(self):
        assert banzhaf(GAME_51, normalized=False).total == F(3, 2)


class TestDeeganPackel:
    def test_parliament_may_2021(self):
        may = ecuador_document("may21").game()
        assert deegan_packel(may).values == (
            F(5, 22), F(3, 22), F(7, 44), F(7, 44), F(7, 44), F(7, 44),
        )

    def test_unanimity_splits_inside_coalition(self):
        u = unanimity_game(4, Coalition([1, 3]))
        assert deegan_packel(u).values == (F(0), F(1, 2), F(0), F(1, 2))

    def test_three_player_game(self):
        assert deegan_packel(wmg(4, 3, 2, 1)).values == (F(1, 2), F(1, 4), F(1, 4))


class TestPublicGood:
    def test_parliament_may_2021(self):
        may = ecuador_document("may21").game()
        assert public_good(may).values == (
            F(7, 36), F(5, 36), F(6, 36), F(6, 36), F(6, 36), F(6, 36),
        )

    def test_parliament_june_2021(self):
        jun = ecuador_document("jun21").game()
        assert public_good(jun).values == (
            F(5, 25), F(4, 25), F(4, 25), F(4, 25), F(4, 25), F(4, 25),
        )

    def test_unanimity(self):
        u = unanimity_game(3, Coalition([0, 2]))
        assert public_good(u).values == (F(1, 2), F(0), F(1, 2))


class TestColomerMartinez:
    def test_reference_game_exact(self):
        expected = (
            F(1, 4) * (F(50, 96) + F(50, 54) + F(50, 51)),
            F(1, 4) * (F(46, 96) + F(46, 51)),
            F(1, 4) * (F(4, 54) + F(4, 51)),
            F(1, 4) * (F(1, 51) + F(1, 51)),
        )
        assert colomer_martinez(GAME_51).values == expected

    def test_single_mwc_game(self):
        assert colomer_martinez(wmg(4, 3, 2, 0)).values == (F(3, 5), F(2, 5), F(0))

    def test_single_mwc_gives_weight_shares(self):
        game = wmg(10, 6, 3, 1, 0)
        assert {frozenset(c) for c in game.induced_simple_game.mwc} == {
            frozenset({0, 1, 2})
        }
        assert colomer_martinez(game).values == (F(6, 10), F(3, 10), F(1, 10), F(0))

    def test_needs_weights(self):
        with pytest.raises(WeightsRequired):
            colomer_martinez(unanimity_game(2, Coalition([0])))


class TestHcm:
    def test_reference_game_exact(self):
        assert hcm(GAME_51).values == (
            F(150, 252), F(92, 252), F(8, 252), F(2, 252),
        )

    def test_three_player_game(self):
        assert hcm(wmg(4, 3, 2, 1)).values == (F(6, 9), F(2, 9), F(1, 9))

    def test_equal_weights_reduce_to_public_good(self):
        game = wmg(2, 1, 1, 1)
        assert hcm(game).values == public_good(game).values

    def test_needs_weights(self):
        with pytest.raises(WeightsRequired):
            hcm(unanimity_game(2, Coalition([0])))


@given(weighted_games(max_players=7))
@example(wmg(5, 3, 0, 2, 2))  # a zero weight: null, so 0 under every index
@settings(max_examples=40, deadline=None)
def test_efficiency_and_null_player(game):
    raw = banzhaf(game, normalized=False)
    nulls = [i for i in range(game.n_players) if is_null_player(game, i)]
    for index in ALL_INDICES:
        vector = index(game)
        assert vector.total == 1
        for i in nulls:
            assert vector[i] == 0
    for i in nulls:
        assert raw[i] == 0


@given(weighted_games(max_players=7))
@settings(max_examples=30, deadline=None)
def test_symmetric_players_get_equal_power(game):
    vectors = [
        shapley_shubik(game),
        banzhaf(game),
        deegan_packel(game),
        public_good(game),
    ]
    n = game.n_players
    for i in range(n):
        for j in range(i + 1, n):
            if are_symmetric(game, i, j):
                for vector in vectors:
                    assert vector[i] == vector[j]


@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=7).filter(lambda w: sum(w) > 0)
)
@settings(max_examples=40, deadline=None)
def test_weight_ratios_in_single_mwc_games(weights):
    # quota = total weight, so the only mwc is the set of nonzero-weight players
    game = WeightedMajorityGame(sum(weights), weights)
    induced = game.induced_simple_game
    assert len(induced.mwc) == 1
    members = induced.mwc[0].members
    for vector in (colomer_martinez(game), hcm(game)):
        for i in members:
            for j in members:
                if game.weights[j] != 0:
                    assert vector[i] / vector[j] == game.weights[i] / game.weights[j]


@given(
    st.integers(2, 7),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_equal_weight_games_degenerate(n, weight, data):
    quota = weight * data.draw(st.integers(1, n))
    game = WeightedMajorityGame(quota, (weight,) * n)
    assert colomer_martinez(game).values == deegan_packel(game).values
    assert hcm(game).values == public_good(game).values


@given(
    st.one_of(weighted_games(max_players=6), rational_weighted_games(max_players=6)),
    st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12),
)
@settings(max_examples=30, deadline=None)
def test_scaling_quota_and_weights_changes_nothing(game, factor):
    scaled = WeightedMajorityGame(
        game.quota * factor, tuple(w * factor for w in game.weights)
    )
    for index in ALL_INDICES:
        assert index(game).values == index(scaled).values


# Past the n <= 10 reach of the 2**n oracles: 1,763, 3,501 and 2,830 mwcs.
MAJORITY_16 = [
    WeightedMajorityGame(*ladder.majority_games(seed, 16)[0]) for seed in (16001, 16002, 16003)
]


def index_vectors(game):
    """SS, BZ, DP, PG, CM and HCM of a weighted game, then the raw BZ."""
    return [index(game).values for index in ALL_INDICES] + [
        banzhaf(game, normalized=False).values
    ]


@settings(max_examples=60, deadline=None)
@given(game=rational_weighted_games(), seed=st.integers(0, 2**32))
@example(game=MAJORITY_16[0], seed=0)
@example(game=MAJORITY_16[1], seed=1)
@example(game=MAJORITY_16[2], seed=2)
def test_permuting_the_players_permutes_every_vector(game, seed):
    order = list(range(game.n_players))
    random.Random(seed).shuffle(order)
    permuted = WeightedMajorityGame(game.quota, [game.weights[i] for i in order])
    for before, after in zip(index_vectors(game), index_vectors(permuted), strict=True):
        assert after == tuple(before[i] for i in order)


@settings(max_examples=60, deadline=None)
@given(game=rational_weighted_games())
@example(game=MAJORITY_16[0])
@example(game=MAJORITY_16[1])
@example(game=MAJORITY_16[2])
def test_appending_a_zero_weight_player_changes_no_other_value(game):
    padded = WeightedMajorityGame(game.quota, (*game.weights, 0))
    for before, after in zip(index_vectors(game), index_vectors(padded), strict=True):
        assert after == (*before, 0)


@settings(max_examples=60, deadline=None)
@given(game=rational_weighted_games())
@example(game=wmg(3, 5, 1, 1, 4))
@example(game=wmg("1/2", "7/3", "1/2", 0))
def test_clipping_weights_to_the_quota_keeps_the_winning_structure_indices(game):
    # A player of weight at least the quota wins alone either way, so every
    # coalition wins in the clipped game iff it wins in the game.
    clipped = WeightedMajorityGame(game.quota, [min(w, game.quota) for w in game.weights])
    for index in (shapley_shubik, banzhaf, deegan_packel, public_good):
        assert index(clipped).values == index(game).values
    assert banzhaf(clipped, normalized=False).values == banzhaf(game, normalized=False).values


MWC_INDEX_ORACLES = [
    pytest.param(deegan_packel, oracles.deegan_packel_by_definition, id="dp"),
    pytest.param(public_good, oracles.public_good_by_definition, id="pg"),
    pytest.param(colomer_martinez, oracles.colomer_martinez_by_definition, id="cm"),
    pytest.param(hcm, oracles.hcm_by_definition, id="hcm"),
]


# Examples for the tally's (size, weight) groups: all weights equal (one
# group); ties next to zero weights (two weights at one size); the quota at
# the total (one mwc); ten players, past the strategy's eight.
TEN_PLAYERS = wmg("27/2", 5, 4, 4, 3, 2, 2, 1, 1, 0, "1/2")


@pytest.mark.parametrize("index, oracle", MWC_INDEX_ORACLES)
@settings(max_examples=100, deadline=None)
@given(game=rational_weighted_games())
@example(game=wmg(3, "3/2", "3/2", "3/2", "3/2"))
@example(game=wmg("5/2", "3/2", 0, "3/2", 1, 1, 0))
@example(game=wmg(6, 1, 0, 2, 3))
@example(game=TEN_PLAYERS)
def test_mwc_indices_match_definition(index, oracle, game):
    assert index(game).values == tuple(oracle(game))


def counted_builds(monkeypatch, name: str) -> list:
    """Wrap the cached property ``<name>`` of both game classes to record each game it is built for.

    The wrapper is a cached property of the same name, so it keeps its
    tallies on the games the same way, and a game that already holds a
    tally records no build.
    """
    built = []
    for cls in (SimpleGame, WeightedMajorityGame):
        build = cls.__dict__[name].func

        def recorded(game, build=build):
            built.append(game)
            return build(game)

        prop = functools.cached_property(recorded)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    return built


def same_objects(built, expected) -> bool:
    return list(map(id, built)) == list(map(id, expected))


def test_one_tally_pass_per_game(monkeypatch):
    game = wmg(TEN_PLAYERS.quota, *TEN_PLAYERS.weights)  # a new object, with no tally yet
    mwc_builds = counted_builds(monkeypatch, "_mwc_tally")
    for index, oracle in (param.values for param in MWC_INDEX_ORACLES):
        assert index(game).values == tuple(oracle(game))
    assert same_objects(mwc_builds, [game])
    # The induced simple game has the same mwcs but no weights: it gets its
    # own pass, never the weighted game's tally.
    induced = game.induced_simple_game
    for index, oracle in (param.values for param in MWC_INDEX_ORACLES[:2]):
        assert index(induced).values == tuple(oracle(induced))
    assert same_objects(mwc_builds, [game, induced])
    swings = [oracles.brute_force_swings(game, i) for i in range(10)]
    fact = math.factorial
    swing_builds = counted_builds(monkeypatch, "_swing_tally")
    assert shapley_shubik(game).values == tuple(
        sum(F(fact(len(s)) * fact(9 - len(s)), fact(10)) for s in own) for own in swings
    )
    assert banzhaf(game, normalized=False).values == tuple(
        F(len(own), 1 << 9) for own in swings
    )
    assert same_objects(swing_builds, [game])


def test_hcmw_builds_one_tally_per_game(monkeypatch):
    # f(union) and theta(union) share the union's tally, and each component's
    # f and theta share its own: three passes for a two-game family, the
    # union's first.
    family = wmpower.single_mwc_decomposition(wmg(4, 3, 2, 1))
    builds = counted_builds(monkeypatch, "_mwc_tally")
    assert wmpower.check_hcmw(hcm, family).holds
    assert len(builds) == 3
    assert same_objects(builds[1:], family)


def test_alternating_games_keep_their_tallies(monkeypatch):
    # Each game keeps its own tally, whatever the call order: a, b, a builds
    # two, where a cache of the last game alone would build a's twice.
    a, b = wmg(4, 3, 2, 1), wmg(5, 3, 2, 1, 1)
    builds = counted_builds(monkeypatch, "_mwc_tally")
    first = public_good(a)
    assert public_good(b).values == tuple(oracles.public_good_by_definition(b))
    assert public_good(a) == first
    assert same_objects(builds, [a, b])


@pytest.mark.parametrize("index, oracle", MWC_INDEX_ORACLES[:2])
@settings(max_examples=100, deadline=None)
@given(game=simple_games())
def test_mwc_indices_match_definition_on_simple_games(index, oracle, game):
    assert index(game).values == tuple(oracle(game))


# Examples: zero weights among rational ones; one player, then two, at or
# above the quota next to lighter players; weights 1/p for the primes up to
# 23 (integer quota 111,546,435); 40-bit weights, all coalitions distinct.
@settings(max_examples=60, deadline=None)
@given(game=rational_weighted_games(max_players=7))
@example(game=wmg("5/2", "3/2", 0, 1, "1/2", 0, "1/3"))
@example(game=wmg(4, 5, 1, 0, 3))
@example(game=wmg(2, 2, 3, 1))
@example(game=prime_reciprocals_game())
@example(game=bits40_game(8))
def test_swing_indices_match_definition(game):
    n = game.n_players
    assert list(shapley_shubik(game).values) == oracles.shapley_by_permutations(game)
    assert banzhaf(game, normalized=False).values == tuple(
        F(len(oracles.brute_force_swings(game, i)), 1 << (n - 1)) for i in range(n)
    )


# Examples: unanimity of all players (each swings once, at the rest); a
# player in no mwc; one player.
@settings(max_examples=100, deadline=None)
@given(game=simple_games())
@example(game=SimpleGame(4, [[0, 1, 2, 3]]))
@example(game=SimpleGame(4, [[0, 1], [1, 2]]))
@example(game=SimpleGame(1, [[0]]))
def test_swing_indices_match_definition_on_simple_games(game):
    n = game.n_players
    assert list(shapley_shubik(game).values) == oracles.shapley_by_definition(game)
    assert banzhaf(game, normalized=False).values == tuple(
        F(len(oracles.swings_by_definition(game, i)), 1 << (n - 1)) for i in range(n)
    )


# The mask diagram against the definition at sizes where the permutation
# oracle is too slow. Examples: remainders that nest once player 0 joins
# ({1} and {1, 2}), which need no minimizing; a one-player mwc, whose
# remainder wins at level 1; ten players, one in no mwc.
@settings(max_examples=50, deadline=None)
@given(game=simple_games(max_players=10, max_mwcs=12))
@example(game=SimpleGame(3, [[0, 1], [1, 2]]))
@example(game=SimpleGame(4, [[0], [1, 2, 3]]))
@example(game=SimpleGame(10, [[0, 9], [1, 2, 3], [2, 4, 5, 7], [3, 7, 8], [0, 4, 8]]))
def test_mask_diagram_tally_matches_definition(game):
    by_size = [
        Counter(map(len, oracles.swings_by_definition(game, i))) for i in range(game.n_players)
    ]
    assert game._swing_tally == by_size


@settings(max_examples=100, deadline=None)
@given(game=rational_weighted_games(max_players=7))
@example(game=wmg("5/2", "3/2", 0, 1, "1/2", 0, "1/3"))
@example(game=wmg(4, 5, 1, 0, 3))
@example(game=wmg(2, 2, 3, 1))
def test_weight_diagram_matches_mask_diagram_of_induced_game(game):
    # Players by weight on one side, by index on the other: one tally.
    induced = game.induced_simple_game
    assert game._swing_tally == induced._swing_tally
    assert shapley_shubik(game).values == shapley_shubik(induced).values
    assert (
        banzhaf(game, normalized=False).values
        == banzhaf(induced, normalized=False).values
    )


@pytest.mark.parametrize("weight, k", [(1, 1), (3, 33), (F(5, 2), 50), (7, 64)])
def test_equal_weights_at_64_players_match_closed_forms(weight, k):
    # Quota k*w: a swing of i is k - 1 of the other 63 players.
    game = WeightedMajorityGame(k * weight, (weight,) * 64)
    assert shapley_shubik(game).values == (F(1, 64),) * 64
    assert banzhaf(game, normalized=False).values == (
        F(math.comb(63, k - 1), 1 << 63),
    ) * 64


def swing_vectors(game):
    """SS, BZ and raw BZ of a weighted game."""
    return [
        shapley_shubik(game).values,
        banzhaf(game).values,
        banzhaf(game, normalized=False).values,
    ]


# The library lists the mwcs for DP, PG, CM and HCM, so those are checked
# against the class oracle only where its mwc count is at most this.
LISTED_MWCS = 2000


@settings(max_examples=30, deadline=None)
@given(game=class_weighted_games(max_players=7))
@example(game=wmg(5, 2, 2, 2, 0, 0, 3, 3))
def test_weight_class_oracle_matches_the_definitions(game):
    m, expected = oracles.weight_class_indices(game)
    n = game.n_players
    assert m == len(oracles.brute_force_mwcs(game))
    assert expected["ss"] == oracles.shapley_by_permutations(game)
    assert expected["bz_raw"] == [
        F(len(oracles.brute_force_swings(game, i)), 1 << (n - 1)) for i in range(n)
    ]
    for param in MWC_INDEX_ORACLES:
        assert expected[param.id] == param.values[1](game)


def assert_class_oracle_agrees(game):
    m, expected = oracles.weight_class_indices(game)
    assert swing_vectors(game) == [tuple(expected[key]) for key in ("ss", "bz", "bz_raw")]
    if m <= LISTED_MWCS:
        assert mwc_count(game) == m
        for param in MWC_INDEX_ORACLES:
            assert param.values[0](game).values == tuple(expected[param.id])


# Examples: three classes at a majority quota (m is about 8.1e17, so only SS
# and BZ are checked); a quota at the total (one mwc); a zero-weight class.
@settings(max_examples=30, deadline=None)
@given(game=class_weighted_games())
@example(game=wmg(129, *[7] * 20, *[3] * 24, *[2] * 20))
@example(game=wmg(40, *[1] * 30, *["1/2"] * 20))
@example(game=wmg(9, *[0] * 40, *[1] * 12, *["3/2"] * 12))
def test_indices_match_the_weight_class_oracle(game):
    assert_class_oracle_agrees(game)


@settings(max_examples=15, deadline=None)
@given(game=class_weighted_games(min_players=64))
def test_indices_match_the_weight_class_oracle_at_64_players(game):
    assert_class_oracle_agrees(game)


@settings(max_examples=15, deadline=None)
@given(
    game=class_weighted_games(max_players=63),
    seed=st.integers(0, 2**32),
    factor=st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12),
)
def test_class_games_keep_the_metamorphic_relations(game, seed, factor):
    # Up to 64 players, where only the swing indices are cheap: permuting
    # the players permutes SS and BZ, scaling changes nothing, and a
    # zero-weight player gets 0 and changes no other value.
    before = swing_vectors(game)
    order = list(range(game.n_players))
    random.Random(seed).shuffle(order)
    permuted = WeightedMajorityGame(game.quota, [game.weights[i] for i in order])
    assert swing_vectors(permuted) == [tuple(v[i] for i in order) for v in before]
    scaled = WeightedMajorityGame(game.quota * factor, [w * factor for w in game.weights])
    assert swing_vectors(scaled) == before
    padded = WeightedMajorityGame(game.quota, (*game.weights, 0))
    assert swing_vectors(padded) == [(*v, 0) for v in before]
