"""Acceptance suite: one test per release criterion, each printing a verdict line.

Golden decimal values are compared at 4 digits with a tolerance of one unit
in the last place, absorbing the unknown rounding convention of the source
tables. Every exact assertion is exact rational equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction

from wmpower import (
    Coalition,
    SimpleGame,
    WeightedMajorityGame,
    banzhaf,
    check_dpmw,
    check_eff,
    check_hcmw,
    check_np,
    check_symw,
    check_wm_mergeability,
    colomer_martinez,
    decimal_string,
    deegan_packel,
    ecuador_document,
    hcm,
    minimal_winning_coalitions,
    public_good,
    random_mergeable_family,
    random_weighted_game,
    render_table,
    shapley_shubik,
    simple_union,
    single_mwc_decomposition,
    wm_union,
    witness_index,
)
import oracles

F = Fraction
DIGITS = 4


def wmg(quota, *weights) -> WeightedMajorityGame:
    return WeightedMajorityGame(quota, weights)


def ulp_distance(rendered: str, expected: str) -> int:
    scale = 10**DIGITS
    return abs(int(F(rendered) * scale) - int(F(expected) * scale))


def assert_renders_to(values, expected_row):
    for value, expected in zip(values, expected_row, strict=True):
        rendered = decimal_string(value, DIGITS)
        assert ulp_distance(rendered, expected) <= 1, f"{rendered} vs {expected}"


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS - {text}")


MAY_TABLE = {
    "SS": ("0.4000", "0.2000", "0.1000", "0.1000", "0.1000", "0.1000"),
    "DP": ("0.2273", "0.1364", "0.1591", "0.1591", "0.1591", "0.1591"),
    "PG": ("0.1944", "0.1389", "0.1667", "0.1667", "0.1667", "0.1667"),
    "CM": ("0.3954", "0.1675", "0.1271", "0.1271", "0.0881", "0.0948"),
    "HCM": ("0.4064", "0.1600", "0.1280", "0.1280", "0.0853", "0.0924"),
}

LATER_CONSTANT_ROWS = {
    "SS": ("0.4667", "0.1667", "0.1667", "0.0667", "0.0667", "0.0667"),
    "DP": ("0.2500", "0.1562", "0.1562", "0.1458", "0.1458", "0.1458"),
    "PG": ("0.2000", "0.1600", "0.1600", "0.1600", "0.1600", "0.1600"),
}

LATER_CM = {
    "jun21": ("0.4080", "0.1663", "0.1663", "0.1047", "0.0929", "0.0617"),
    "jul21": ("0.4016", "0.1602", "0.1663", "0.1046", "0.0928", "0.0744"),
    "oct12": ("0.4025", "0.1657", "0.1657", "0.0928", "0.0928", "0.0806"),
    "oct26": ("0.4036", "0.1652", "0.1712", "0.0928", "0.0928", "0.0744"),
    "dec21": ("0.4061", "0.1642", "0.1820", "0.0930", "0.0930", "0.0617"),
}

LATER_HCM = {
    "jun21": ("0.4027", "0.1678", "0.1678", "0.1074", "0.0940", "0.0604"),
    "jul21": ("0.3950", "0.1613", "0.1681", "0.1076", "0.0941", "0.0739"),
    "oct12": ("0.3950", "0.1681", "0.1681", "0.0941", "0.0941", "0.0807"),
    "oct26": ("0.3950", "0.1681", "0.1748", "0.0941", "0.0941", "0.0739"),
    "dec21": ("0.3950", "0.1681", "0.1882", "0.0941", "0.0941", "0.0605"),
}

MAY_MWCS = {
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

LATER_MWCS = {
    frozenset({0, 1}),
    frozenset({0, 2}),
    frozenset({0, 3, 4}),
    frozenset({0, 3, 5}),
    frozenset({0, 4, 5}),
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2, 3, 5}),
    frozenset({1, 2, 4, 5}),
}


def mwc_sets(game):
    return {frozenset(c) for c in minimal_winning_coalitions(game).mwc}


def test_criterion_1_cm_reference_rendering_and_speed():
    expected = ("0.6068", "0.3453", "0.0381", "0.0098")
    assert_renders_to(colomer_martinez(wmg(51, 50, 46, 4, 1)).values, expected)

    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        game = wmg(51, 50, 46, 4, 1)
        rendered = [decimal_string(v, DIGITS) for v in colomer_martinez(game)]
        best = min(best, time.perf_counter() - start)
    assert len(rendered) == 4
    assert best < 0.001, f"took {best * 1e3:.3f} ms"
    report(1, f"CM reference row matches at 4 digits in {best * 1e6:.0f} us")


def test_criterion_2_hcm_reference_rendering_and_exact_form():
    vector = hcm(wmg(51, 50, 46, 4, 1))
    assert_renders_to(vector.values, ("0.5953", "0.3651", "0.0317", "0.0079"))
    assert vector.values == (F(150, 252), F(92, 252), F(8, 252), F(2, 252))
    report(2, "HCM reference row matches, exact form (150/252, 92/252, 8/252, 2/252)")


def test_criterion_3_may_2021_mwcs_and_full_table():
    start = time.perf_counter()
    game = ecuador_document("may21").game()
    assert mwc_sets(game) == MAY_MWCS
    vectors = {
        "SS": shapley_shubik(game),
        "DP": deegan_packel(game),
        "PG": public_good(game),
        "CM": colomer_martinez(game),
        "HCM": hcm(game),
    }
    for row, expected in MAY_TABLE.items():
        assert_renders_to(vectors[row].values, expected)
    rendered = render_table(list(vectors.values()), ecuador_document("may21").players)
    elapsed = time.perf_counter() - start
    assert rendered.count("\n") == 5
    assert elapsed < 0.1, f"took {elapsed * 1e3:.1f} ms"
    report(3, f"11 mwcs and 5x6 table match in {elapsed * 1e3:.1f} ms")


def test_criterion_4_june_to_december_tables():
    periods = ("jun21", "jul21", "oct12", "oct26", "dec21")
    games = {p: ecuador_document(p).game() for p in periods}
    for period, game in games.items():
        assert mwc_sets(game) == LATER_MWCS, period
    reference = games["jun21"]
    for period, game in games.items():
        assert shapley_shubik(game) == shapley_shubik(reference)
        assert deegan_packel(game) == deegan_packel(reference)
        assert public_good(game) == public_good(reference)
    assert_renders_to(shapley_shubik(reference).values, LATER_CONSTANT_ROWS["SS"])
    assert_renders_to(deegan_packel(reference).values, LATER_CONSTANT_ROWS["DP"])
    assert_renders_to(public_good(reference).values, LATER_CONSTANT_ROWS["PG"])
    cells = 0
    for period, game in games.items():
        assert_renders_to(colomer_martinez(game).values, LATER_CM[period])
        assert_renders_to(hcm(game).values, LATER_HCM[period])
        cells += 12
    assert cells == 60
    report(4, "5 periods x 8 mwcs, constant SS/DP/PG rows, 30+30 CM/HCM cells match")


def test_criterion_5_mergeability_examples():
    mergeable = (wmg(4, 3, 2, 0), wmg(4, 3, 0, 1))
    report_ok = check_wm_mergeability(mergeable)
    assert report_ok.equal_quotas
    assert report_ok.weight_compatible
    assert report_ok.losing_preserved
    assert report_ok.mwc_count_additive
    assert report_ok.overall
    union = wm_union(mergeable)
    assert union == wmg(4, 3, 2, 1)
    assert mwc_sets(union) == {frozenset({0, 1}), frozenset({0, 2})}

    mismatched = (wmg(5, 1, 2, 3), wmg(6, 1, 4, 5))
    report_bad = check_wm_mergeability(mismatched)
    assert not report_bad.equal_quotas
    assert not report_bad.overall
    report(5, "pair merges to [4; 3, 2, 1]; unequal quotas fail condition 1")


def test_criterion_6_union_not_weighted_certificate():
    v = SimpleGame(5, (Coalition([0, 1]), Coalition([0, 2])))
    v_prime = SimpleGame(5, (Coalition([2, 3]), Coalition([2, 4]), Coalition([3, 4])))
    union = simple_union(v, v_prime)
    # winning pair whose "crossed" recombination loses: any weighted
    # representation would need w0+w1 >= q and w2+w3 >= q but also
    # w0+w3 < q and w1+w2 < q, which is impossible
    assert union.is_winning([0, 1])
    assert union.is_winning([2, 3])
    assert not union.is_winning([0, 3])
    assert not union.is_winning([1, 2])
    report(6, "union game carries the non-representability certificate pattern")


def test_criterion_7_dpmw_counterexample_exact_vectors():
    verdict = check_dpmw(hcm, (wmg(4, 3, 2, 0), wmg(4, 3, 0, 1)))
    assert not verdict.holds
    assert verdict.witness["left"] == (F(6, 9), F(2, 9), F(1, 9))
    assert verdict.witness["right"] == (F(27, 40), F(8, 40), F(5, 40))
    report(7, "weighted averaging fails for HCM: (6/9,2/9,1/9) vs (27/40,8/40,5/40)")


def test_criterion_8_theorem_matrices():
    fixtures = [
        wmg(51, 50, 46, 4, 1),
        wmg(4, 2, 2, 1),
        wmg(4, 3, 2, 0),
        wmg(4, 3, 0, 1),
        wmg(4, 3, 2, 1),
    ]
    fixture_family = (wmg(4, 3, 2, 0), wmg(4, 3, 0, 1))
    single_mwc_fixtures = [g for g in fixtures if len(mwc_sets(g)) == 1]

    rng = random.Random(20210521)
    games = fixtures + [random_weighted_game(rng, max_players=8) for _ in range(200)]
    families = [fixture_family] + [
        random_mergeable_family(rng, max_players=8) for _ in range(50)
    ]
    symw_targets = list(single_mwc_fixtures)
    symw_targets.extend(g for g in games if len(mwc_sets(g)) == 1)
    symw_targets.extend(g for family in families for g in family)

    for index_fn in (colomer_martinez, hcm):
        for game in games:
            assert check_eff(index_fn, game).holds
            assert check_np(index_fn, game).holds
        for game in symw_targets:
            assert check_symw(index_fn, game).holds
    for family in families:
        assert check_dpmw(colomer_martinez, family).holds
        assert check_hcmw(hcm, family).holds

    def eff(f):
        return all(check_eff(f, g).holds for g in fixtures)

    def np_(f):
        return all(check_np(f, g).holds for g in fixtures)

    def symw(f):
        return all(check_symw(f, g).holds for g in single_mwc_fixtures)

    def dpmw(f):
        return check_dpmw(f, fixture_family).holds

    def hcmw(f):
        return check_hcmw(f, fixture_family).holds

    thm1 = {"EFF": eff, "NP": np_, "SYMw": symw, "DPMw": dpmw}
    thm2 = {"EFF": eff, "NP": np_, "SYMw": symw, "HCMw": hcmw}
    witnesses = [
        (witness_index("scaled_cm"), thm1, "EFF"),
        (witness_index("np_patch_cm"), thm1, "NP"),
        (deegan_packel, thm1, "SYMw"),
        (hcm, thm1, "DPMw"),
        (witness_index("scaled_hcm"), thm2, "EFF"),
        (witness_index("np_patch_hcm"), thm2, "NP"),
        (witness_index("symw_patch_hcm"), thm2, "SYMw"),
        (colomer_martinez, thm2, "HCMw"),
    ]
    for index_fn, matrix, designated in witnesses:
        for axiom, evaluate in matrix.items():
            assert evaluate(index_fn) == (axiom != designated), (designated, axiom)

    report(
        8,
        "CM and HCM pass their four axioms on fixtures, 200 games, 50 families;"
        " all 8 witnesses fail exactly their designated axiom",
    )


def test_criterion_9_oracle_equivalence_within_time_budget():
    start = time.perf_counter()

    rng = random.Random(1978)
    for _ in range(100):
        game = random_weighted_game(rng, max_players=8)
        expected = oracles.shapley_by_permutations(game)
        assert list(shapley_shubik(game.induced_simple_game).values) == expected
        assert list(shapley_shubik(game).values) == expected

    rng = random.Random(1982)
    for _ in range(60):
        game = random_weighted_game(rng, max_players=10)
        assert mwc_sets(game) == oracles.brute_force_mwcs(game)

    rng = random.Random(1995)
    for _ in range(50):
        n = rng.randint(2, 8)
        weight = rng.randint(1, 5)
        quota = rng.randint(1, n * weight)
        game = WeightedMajorityGame(quota, (weight,) * n)
        assert colomer_martinez(game).values == deegan_packel(game).values
        assert hcm(game).values == public_good(game).values

    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"oracle block took {elapsed:.1f} s"
    report(9, f"permutation, brute-force, and degeneration oracles agree in {elapsed:.1f} s")
