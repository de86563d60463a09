import functools
import itertools
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import rational_weighted_games, simple_game_pairs, simple_games, weighted_games
from strategies import sg, single_mwc_games, weighted_game_pairs, wmg
from wmpower import (
    PowerIndexVector,
    WeightedMajorityGame,
    banzhaf,
    check_dpm,
    check_dpmw,
    check_eff,
    check_hcmw,
    check_np,
    check_pgm,
    check_sym,
    check_symw,
    check_tra,
    check_wm_mergeability,
    colomer_martinez,
    deegan_packel,
    ecuador_document,
    hcm,
    minimal_winning_coalitions,
    mwc_group_decomposition,
    public_good,
    random_mergeable_family,
    shapley_shubik,
    simple_intersection,
    simple_mergeable,
    simple_union,
    single_mwc_decomposition,
    witness_index,
)
from wmpower import axioms
from wmpower.errors import GameError, NotMergeable, NotUnanimityLike, NotWMMergeable, UnknownKind
from wmpower.games import mwc_count

F = Fraction


GAME_51 = wmg(51, 50, 46, 4, 1)
GAME_221 = wmg(4, 2, 2, 1)
GAME_320 = wmg(4, 3, 2, 0)
GAME_301 = wmg(4, 3, 0, 1)
GAME_321 = wmg(4, 3, 2, 1)
FAMILY = (GAME_320, GAME_301)
FIXTURES = (GAME_51, GAME_221, GAME_320, GAME_301, GAME_321)
SINGLE_MWC_FIXTURES = (GAME_221, GAME_320, GAME_301)

MERGEABLE_V = sg(5, [0, 1], [0, 2])
MERGEABLE_V_PRIME = sg(5, [2, 3], [2, 4], [3, 4])


class TestEff:
    def test_cm_is_efficient(self):
        assert check_eff(colomer_martinez, GAME_51).holds

    def test_doubled_index_fails_with_total_two(self):
        verdict = check_eff(witness_index("scaled_cm"), GAME_51)
        assert not verdict.holds
        assert verdict.witness["total"] == 2

    def test_float_values_are_refused_not_summed(self):
        # 0.5 + 0.5 is exactly 1 in binary, so only a refusal keeps floats out.
        with pytest.raises(GameError, match="float"):
            check_eff(lambda game: PowerIndexVector("X", [0.5, 0.5]), GAME_51)

    def test_ss_is_efficient_on_random_games(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 6)
            weights = [rng.randint(1, 9) for _ in range(n)]
            game = WeightedMajorityGame(rng.randint(1, sum(weights)), weights)
            assert check_eff(shapley_shubik, game).holds


class TestNp:
    def test_cm_zeroes_null_players(self):
        assert check_np(colomer_martinez, GAME_221).holds
        assert colomer_martinez(GAME_221)[2] == 0

    def test_patched_index_fails(self):
        verdict = check_np(witness_index("np_patch_cm"), GAME_221)
        assert not verdict.holds
        assert verdict.witness["player"] == 2
        assert verdict.witness["value"] == F(1, 3)

    def test_vacuous_without_null_players(self):
        assert check_np(public_good, GAME_51).holds


class TestSym:
    def test_dp_symmetric_on_parliament(self):
        may = ecuador_document("may21").game()
        assert check_sym(deegan_packel, may).holds

    def test_cm_breaks_symmetry_on_parliament(self):
        may = ecuador_document("may21").game()
        verdict = check_sym(colomer_martinez, may)
        assert not verdict.holds
        i, j = verdict.witness["players"]
        a, b = verdict.witness["values"]
        assert a != b

    def test_vacuous_without_symmetric_pairs(self):
        # [2; 2, 1]: the only pair is separated by the empty coalition
        game = wmg(2, 2, 1)
        assert check_sym(witness_index("symw_patch_hcm"), game).holds
        assert check_sym(colomer_martinez, game).holds


class TestTra:
    def test_ss_satisfies_transfer_on_fixture_pair(self):
        assert check_tra(shapley_shubik, MERGEABLE_V, MERGEABLE_V_PRIME).holds

    def test_any_index_passes_on_identical_games(self):
        v = sg(3, [0, 1], [1, 2])
        assert check_tra(deegan_packel, v, v).holds
        assert check_tra(public_good, v, v).holds

    def test_dp_fails_transfer(self):
        v = sg(3, [0, 1])
        v_prime = sg(3, [0, 2])
        # meet has mwc {{0,1,2}}, join has mwc {{0,1},{0,2}}
        left = tuple(
            a + b
            for a, b in zip(
                deegan_packel(sg(3, [0, 1, 2])).values,
                deegan_packel(sg(3, [0, 1], [0, 2])).values,
            )
        )
        right = tuple(
            a + b
            for a, b in zip(deegan_packel(v).values, deegan_packel(v_prime).values)
        )
        assert left == (F(5, 6), F(7, 12), F(7, 12))
        assert right == (F(1), F(1, 2), F(1, 2))
        verdict = check_tra(deegan_packel, v, v_prime)
        assert not verdict.holds
        assert verdict.witness["left"] == left
        assert verdict.witness["right"] == right


class TestDpmAndPgm:
    def test_dp_satisfies_dpm_on_fixture_pair(self):
        assert check_dpm(deegan_packel, MERGEABLE_V, MERGEABLE_V_PRIME).holds

    def test_pg_satisfies_pgm_on_fixture_pair(self):
        assert check_pgm(public_good, MERGEABLE_V, MERGEABLE_V_PRIME).holds

    def test_pg_also_passes_dpm_when_all_mwcs_have_equal_size(self):
        # every mwc in this pair has two members, so the |M| weights and the
        # sum-|M_i| weights coincide and the two averaging rules agree
        assert check_dpm(public_good, MERGEABLE_V, MERGEABLE_V_PRIME).holds

    def test_pg_fails_dpm_with_mixed_mwc_sizes(self):
        v = sg(3, [0])
        v_prime = sg(3, [1, 2])
        verdict = check_dpm(public_good, v, v_prime)
        assert not verdict.holds
        assert verdict.witness["left"] == (F(1, 3), F(1, 3), F(1, 3))
        assert verdict.witness["right"] == (F(1, 2), F(1, 4), F(1, 4))

    def test_dp_fails_pgm_with_mixed_mwc_sizes(self):
        v = sg(3, [0])
        v_prime = sg(3, [1, 2])
        verdict = check_pgm(deegan_packel, v, v_prime)
        assert not verdict.holds
        assert verdict.witness["left"] == (F(1, 2), F(1, 4), F(1, 4))
        assert verdict.witness["right"] == (F(1, 3), F(1, 3), F(1, 3))

    def test_non_mergeable_pair_rejected(self):
        v = sg(3, [0, 1])
        v_prime = sg(3, [0, 1, 2])
        with pytest.raises(NotMergeable):
            check_dpm(deegan_packel, v, v_prime)
        with pytest.raises(NotMergeable):
            check_pgm(public_good, v, v_prime)


class TestSymw:
    def test_cm_holds_on_equal_weight_pair(self):
        assert check_symw(colomer_martinez, GAME_221).holds

    def test_patched_index_fails(self):
        verdict = check_symw(witness_index("symw_patch_hcm"), GAME_221)
        assert not verdict.holds
        assert verdict.witness["values"] in ((F(0), F(1)), (F(1), F(0)))

    def test_hcm_matches_weight_ratio(self):
        vector = hcm(GAME_320)
        assert vector[0] / vector[1] == F(3, 2)
        assert check_symw(hcm, GAME_320).holds

    def test_dp_fails_on_unequal_weights(self):
        assert not check_symw(deegan_packel, GAME_320).holds

    def test_multiple_mwcs_rejected(self):
        with pytest.raises(NotUnanimityLike):
            check_symw(colomer_martinez, GAME_321)

    def test_zero_reference_value_is_skipped(self):
        # f_0 = 0 is no reference for player 1; against f_1 = 1, f_0 * 2 != f_1 * 3.
        def f(game):
            return PowerIndexVector("fixed", (F(0), F(1), F(0)))

        verdict = check_symw(f, GAME_320)
        assert not verdict.holds
        assert verdict.witness["players"] == (0, 1)


class TestDpmw:
    def test_cm_satisfies(self):
        assert check_dpmw(colomer_martinez, FAMILY).holds

    def test_hcm_fails_with_exact_witness(self):
        verdict = check_dpmw(hcm, FAMILY)
        assert not verdict.holds
        assert verdict.witness["left"] == (F(6, 9), F(2, 9), F(1, 9))
        assert verdict.witness["right"] == (F(27, 40), F(8, 40), F(5, 40))

    def test_dp_satisfies(self):
        assert check_dpmw(deegan_packel, FAMILY).holds
        family = random_mergeable_family(random.Random(2))
        assert check_dpmw(deegan_packel, family).holds

    def test_non_mergeable_family_rejected(self):
        with pytest.raises(NotWMMergeable) as exc_info:
            check_dpmw(colomer_martinez, (wmg(5, 1, 2, 3), wmg(6, 1, 4, 5)))
        assert not exc_info.value.report.equal_quotas


class TestHcmw:
    def test_hcm_satisfies(self):
        assert check_hcmw(hcm, FAMILY).holds

    def test_cm_fails(self):
        assert not check_hcmw(colomer_martinez, FAMILY).holds

    def test_hcm_on_reference_decomposition(self):
        family = single_mwc_decomposition(GAME_51)
        union_vector = hcm(GAME_51).values
        # recompute the averaging rule by hand
        def membership_weight_total(game):
            mwcs = minimal_winning_coalitions(game).mwc
            return sum(
                (
                    sum(i in c for c in mwcs) * game.weights[i]
                    for i in range(game.n_players)
                ),
                F(0),
            )

        denominator = membership_weight_total(GAME_51)
        expected = [
            sum(
                (membership_weight_total(g) * hcm(g)[i] for g in family),
                F(0),
            )
            / denominator
            for i in range(4)
        ]
        assert list(union_vector) == expected
        assert check_hcmw(hcm, family).holds


def test_theorems_hold_on_every_mergeable_group_decomposition():
    # Theorems 1 and 2 as relations: DP and CM satisfy DPMw, and HCM satisfies
    # HCMw, on each WM-mergeable split of a random game's mwcs into 2 or 3
    # groups. Few splits are mergeable past n = 10, so the games stay small.
    rng = random.Random(0)
    mergeable = 0
    for n in range(6, 11):
        for _ in range(100):
            weights = [rng.randint(0, 20) for _ in range(n)]
            if not (total := sum(weights)):
                continue
            game = wmg(rng.randint(max(1, total // 2), total), *weights)
            if (m := mwc_count(game)) < 3:
                continue
            order = rng.sample(range(m), m)
            cuts = sorted(rng.sample(range(1, m), rng.randint(1, 2)))
            groups = [order[a:b] for a, b in zip([0, *cuts], [*cuts, m])]
            family = mwc_group_decomposition(game, groups)
            if not check_wm_mergeability(family).overall:
                continue
            mergeable += 1
            assert check_dpmw(deegan_packel, family).holds
            assert check_dpmw(colomer_martinez, family).holds
            assert check_hcmw(hcm, family).holds
    assert mergeable >= 20


def merging_split(masks: tuple[int, ...], null_mask: int) -> list[list[int]]:
    """Indices of the mwcs, grouped first-fit so that a group's support holds only its own mwcs.

    A group split keeps the quota and each weight or 0, so it is WM-mergeable
    iff every mwc lies inside exactly one group's support (its mwcs plus the
    null players). Each mwc joins the first group whose support, grown by it,
    holds no other mwc; otherwise it starts a new group.
    """
    groups, supports = [], []
    for k, mask in enumerate(masks):
        for g, group in enumerate(groups):
            grown = supports[g] | mask
            if all(j in group or j == k for j, m in enumerate(masks) if m & grown == m):
                group.append(k)
                supports[g] = grown
                break
        else:
            groups.append([k])
            supports.append(null_mask | mask)
    return groups


def test_theorems_hold_on_splits_built_to_merge():
    # Theorems 1 and 2 at 16-20 players, where random splits are almost never
    # mergeable: the splits are built to merge, and the check confirms it.
    rng = random.Random(0)
    families = grouped = 0
    while families < 15:
        n = rng.randint(16, 20)
        weights = [rng.randint(0, 20) for _ in range(n)]
        total = sum(weights)
        game = wmg(rng.randint(total // 2 + 1, total), *weights)
        masks = minimal_winning_coalitions(game).masks
        if not 3 <= len(masks) <= 300:
            continue
        null_mask = (1 << n) - 1 & ~functools.reduce(operator.or_, masks)
        if len(groups := merging_split(masks, null_mask)) < 2:
            continue
        families += 1
        grouped += any(len(group) > 1 for group in groups)
        family = mwc_group_decomposition(game, groups)
        assert check_wm_mergeability(family).overall
        assert check_dpmw(deegan_packel, family).holds
        assert check_dpmw(colomer_martinez, family).holds
        assert check_hcmw(hcm, family).holds
    assert grouped >= 10


class TestWitnessIndex:
    def test_scaled_cm_doubles(self):
        doubled = witness_index("scaled_cm")(GAME_51)
        assert doubled.values == tuple(2 * v for v in colomer_martinez(GAME_51).values)

    def test_np_patch_on_fixture(self):
        assert witness_index("np_patch_cm")(GAME_221).values == (F(1, 3),) * 3

    def test_np_patch_elsewhere_is_base_index(self):
        assert witness_index("np_patch_cm")(GAME_320).values == (F(3, 5), F(2, 5), F(0))

    def test_patch_matches_exact_representation_only(self):
        scaled_fixture = wmg(8, 4, 4, 2)  # same simple game, different tuple
        assert witness_index("np_patch_cm")(scaled_fixture).values == colomer_martinez(
            scaled_fixture
        ).values

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            witness_index("np_patch_ss")


THM1_EVALUATORS = {
    "EFF": lambda f: all(check_eff(f, g).holds for g in FIXTURES),
    "NP": lambda f: all(check_np(f, g).holds for g in FIXTURES),
    "SYMw": lambda f: all(check_symw(f, g).holds for g in SINGLE_MWC_FIXTURES),
    "DPMw": lambda f: check_dpmw(f, FAMILY).holds,
}

THM2_EVALUATORS = {
    "EFF": THM1_EVALUATORS["EFF"],
    "NP": THM1_EVALUATORS["NP"],
    "SYMw": THM1_EVALUATORS["SYMw"],
    "HCMw": lambda f: check_hcmw(f, FAMILY).holds,
}


class TestCharacterizationMatrices:
    def test_cm_satisfies_all_four(self):
        for name, evaluate in THM1_EVALUATORS.items():
            assert evaluate(colomer_martinez), name

    def test_hcm_satisfies_all_four(self):
        for name, evaluate in THM2_EVALUATORS.items():
            assert evaluate(hcm), name

    @pytest.mark.parametrize(
        "index_fn,designated",
        [
            (witness_index("scaled_cm"), "EFF"),
            (witness_index("np_patch_cm"), "NP"),
            (deegan_packel, "SYMw"),
            (hcm, "DPMw"),
        ],
        ids=["scaled_cm", "np_patch_cm", "dp", "hcm"],
    )
    def test_thm1_independence(self, index_fn, designated):
        for name, evaluate in THM1_EVALUATORS.items():
            assert evaluate(index_fn) == (name != designated), name

    @pytest.mark.parametrize(
        "index_fn,designated",
        [
            (witness_index("scaled_hcm"), "EFF"),
            (witness_index("np_patch_hcm"), "NP"),
            (witness_index("symw_patch_hcm"), "SYMw"),
            (colomer_martinez, "HCMw"),
        ],
        ids=["scaled_hcm", "np_patch_hcm", "symw_patch_hcm", "cm"],
    )
    def test_thm2_independence(self, index_fn, designated):
        for name, evaluate in THM2_EVALUATORS.items():
            assert evaluate(index_fn) == (name != designated), name


class TestPatchFixtureIsolation:
    """The patched-game fixture cannot arise from merging, so patches stay inert."""

    @pytest.mark.parametrize(
        "partner",
        [wmg(4, 2, 2, 0), wmg(4, 2, 2, 1), wmg(4, 0, 2, 3), wmg(4, 2, 0, 2)],
        ids=str,
    )
    def test_fixture_never_wm_mergeable_with_candidates(self, partner):
        report = check_wm_mergeability((GAME_221, partner))
        assert not report.overall


class TestReproducibility:
    def test_verdicts_are_deterministic(self):
        assert check_dpmw(hcm, FAMILY) == check_dpmw(hcm, FAMILY)
        may = ecuador_document("may21").game()
        assert check_sym(colomer_martinez, may) == check_sym(colomer_martinez, may)


@given(simple_game_pairs(max_players=5))
@settings(max_examples=30, deadline=None)
def test_overview_conformance_on_random_pairs(pair):
    v, v_prime = pair
    assert check_tra(shapley_shubik, v, v_prime).holds
    if simple_mergeable(v, v_prime):
        assert check_dpm(deegan_packel, v, v_prime).holds
        assert check_pgm(public_good, v, v_prime).holds


def _outcome(verdict):
    return verdict.holds, verdict.witness and (verdict.witness["left"], verdict.witness["right"])


@given(weighted_game_pairs())
@example((wmg(4, 3, 2, 0), wmg(4, 3, 0, 1)))  # mergeable
@example((wmg(1, 0, 0, 1), wmg(1, 1, 2, 0)))  # mergeable; TRA fails for DP and PG
@example((GAME_221, GAME_221))  # a game is never mergeable with itself
@settings(max_examples=40, deadline=None)
def test_weighted_pair_stands_for_its_induced_pair(pair):
    # The algebra and the pair checks read a weighted game as its induced game.
    induced = tuple(map(minimal_winning_coalitions, pair))
    assert simple_union(*pair) == simple_union(*induced)
    assert simple_intersection(*pair) == simple_intersection(*induced)
    mergeable = simple_mergeable(*pair)
    assert mergeable == simple_mergeable(*induced)
    for f in (shapley_shubik, banzhaf, deegan_packel, public_good):
        assert _outcome(check_tra(f, *pair)) == _outcome(check_tra(f, *induced))
        for check in (check_dpm, check_pgm):
            if mergeable:
                assert _outcome(check(f, *pair)) == _outcome(check(f, *induced))
            else:
                for games in (pair, induced):
                    with pytest.raises(NotMergeable):
                        check(f, *games)


@given(weighted_games(max_players=6))
@settings(max_examples=25, deadline=None)
def test_overview_conformance_per_game(game):
    for index_fn in (shapley_shubik, deegan_packel, public_good, banzhaf):
        assert check_eff(index_fn, game).holds
        assert check_np(index_fn, game).holds
        assert check_sym(index_fn, game).holds


WITNESS_KINDS = ("scaled_cm", "scaled_hcm", "np_patch_cm", "np_patch_hcm", "symw_patch_hcm")
SIX_INDICES = (shapley_shubik, banzhaf, deegan_packel, public_good, colomer_martinez, hcm)


@given(rational_weighted_games(max_players=7))
@example(GAME_221)  # the patch fixture: np_patch_* and symw_patch_hcm fail here
@example(wmg(3, 2, 2, 1, 0, 0))  # zero weights: null, and symmetric to each other
@settings(max_examples=40, deadline=None)
def test_sym_and_np_match_predicate_first_reference(game):
    # The reference asks the definitional predicate first, on every pair and
    # player in order; the checks compare values first. Both must agree on
    # the verdict and on the first witness.
    n = game.n_players
    mwcs = oracles.brute_force_mwcs(game)
    nulls = [i for i in range(n) if not any(i in s for s in mwcs)]
    for f in (*SIX_INDICES, *map(witness_index, WITNESS_KINDS)):
        vector = f(game)
        sym_witness = next(
            (
                {"game": game, "players": (i, j), "values": (vector[i], vector[j])}
                for i, j in itertools.combinations(range(n), 2)
                if oracles.symmetric_by_definition(game, i, j) and vector[i] != vector[j]
            ),
            None,
        )
        np_witness = next(
            (
                {"game": game, "player": i, "value": vector[i]}
                for i in nulls
                if vector[i] != 0
            ),
            None,
        )
        sym = check_sym(f, game)
        np = check_np(f, game)
        assert (sym.holds, sym.witness) == (sym_witness is None, sym_witness)
        assert (np.holds, np.witness) == (np_witness is None, np_witness)


@st.composite
def single_mwc_games_with_vectors(draw):
    """A single-mwc game and a vector on it: zeros mixed in, all zero, or proportional."""
    game = draw(single_mwc_games())
    n = game.n_players
    value = st.fractions(min_value=0, max_value=3, max_denominator=12)
    shape = draw(st.sampled_from(["free", "zero", "proportional", "proportional-but-one"]))
    if shape == "free":
        vector = [draw(st.one_of(st.just(F(0)), value)) for _ in range(n)]
    elif shape == "zero":
        vector = [F(0)] * n
    else:
        factor = draw(value)
        vector = [factor * w for w in game.weights]
        if shape == "proportional-but-one":
            vector[draw(st.integers(0, n - 1))] = draw(value)
    return game, PowerIndexVector("drawn", tuple(vector))


@given(single_mwc_games_with_vectors())
@example((GAME_221, PowerIndexVector("drawn", (F(0), F(0), F(0)))))
@example((GAME_320, PowerIndexVector("drawn", (F(0), F(1), F(0)))))
@settings(max_examples=200, deadline=None)
def test_symw_verdict_and_witness_match_the_pairwise_scan(case):
    game, drawn = case
    for f in (colomer_martinez, hcm, deegan_packel, witness_index("symw_patch_hcm"),
              lambda g: drawn):
        vector = f(game)
        pair = oracles.symw_by_pairs(game, vector)
        witness = None
        if pair is not None:
            i, j = pair
            witness = {
                "game": game,
                "players": (i, j),
                "values": (vector[i], vector[j]),
                "weights": (game.weights[i], game.weights[j]),
            }
        verdict = check_symw(f, game)
        assert (verdict.holds, verdict.witness) == (pair is None, witness)


def _theta(check, *games):
    """The theta that an averaging check weighs its games by, caught from one call."""
    with mock.patch.object(axioms, "_averaging_verdict") as verdict:
        check(deegan_packel, *games)
    return verdict.call_args.args[2]


PAIR = (sg(3, [0, 1]), sg(3, [1, 2]))  # mergeable: neither mwc holds the other
FAMILY = single_mwc_decomposition(wmg(4, 3, 2, 1))  # two games, one mwc each
THETAS = {
    "DPM": _theta(check_dpm, *PAIR),
    "PGM": _theta(check_pgm, *PAIR),
    "DPMw": _theta(check_dpmw, FAMILY),
    "HCMw": _theta(check_hcmw, FAMILY),
}


@given(st.one_of(rational_weighted_games(), simple_games()))
@example(wmg("5/2", "3/2", 0, "3/2", 1, 1, 0))  # zero weights
@example(wmg(3, "3/2", "3/2", "3/2", "3/2"))  # tied weights
@example(wmg(6, 1, 0, 2, 3))  # the quota at the total weight: one mwc
@example(sg(4, [0, 1], [1, 2, 3], [0, 3]))  # a bare simple game
@settings(max_examples=100, deadline=None)
def test_mwc_count_and_thetas_match_definition(game):
    # |M|, the sum of |S| and the sum of w(S) over the definitional mwcs S.
    mwcs = oracles.mwcs_by_definition(game)
    assert mwc_count(game) == THETAS["DPM"](game) == THETAS["DPMw"](game) == len(mwcs)
    assert THETAS["PGM"](game) == sum(len(s) for s in mwcs)
    if isinstance(game, WeightedMajorityGame):
        weight = sum((game.weights[i] for s in mwcs for i in s), F(0))
        assert THETAS["HCMw"](game) == weight
