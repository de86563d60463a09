"""Every weighted game on at most six players, checked against the oracles.

A weighted game on n labeled players, with a positive quota and a winning
grand coalition, is one of a few winning structures with its players
permuted. Non-increasing integer weights 0..K with every quota reach every
structure once K is large enough: ``LIMITS`` holds such a K per n, which
gives 1, 3, 8, 25, 117 and 1,111 structures for n = 1..6. The labeled games
are the distinct permutations of each structure: 1, 4, 18, 148 and 3,285 for
n = 1..5.

Each structure keeps the first and the last (quota, weights) found, with
weight vectors in lexicographic order from the largest and quotas from 1 up.
A structure fixes the winning coalitions, not the weights, and CM, HCM and
merging read the weights, so both are checked: the first as found, and the
last with its players reversed, so that ties in weight meet the index order.

``structure_mismatches`` checks a structure's two games, and their induced
bare games, against ``tests/oracles.py``; ``suite_mismatches`` runs the
paper's two theorem suites on one game; ``merge_mismatches`` checks each
condition of the mergeability test on one family. Each returns a line per
disagreement. tests/test_corpus.py runs them for n <= 5, the last on every
ordered pair of labeled games for n <= 3. Run as a script, this module runs
the sweep: the first two at n = 6, and the last on every ordered pair of
4-player labeled games. It uses only the standard library, wmpower and
tests/oracles.py, so it runs under interpreters without pytest:

    PYTHONPATH=src python tests/corpus.py

It prints one line per part and exits 1 on any mismatch.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from fractions import Fraction

import oracles
from wmpower import (
    WeightedMajorityGame,
    are_symmetric,
    banzhaf,
    check_dpmw,
    check_eff,
    check_hcmw,
    check_np,
    check_symw,
    check_wm_mergeability,
    colomer_martinez,
    deegan_packel,
    hcm,
    is_null_player,
    minimal_winning_coalitions,
    public_good,
    shapley_shubik,
    single_mwc_decomposition,
    swings,
)

# The largest weight tried per player count; no larger K adds a structure.
LIMITS = {1: 2, 2: 3, 3: 3, 4: 3, 5: 5, 6: 10}


def _totals(weights) -> list[int]:
    """The weight of each coalition, indexed by its mask."""
    totals = [0] * (1 << len(weights))
    for i, w in enumerate(weights):
        for s in range(1 << i):
            totals[s | 1 << i] = totals[s] + w
    return totals


def structures(n: int, limit: int | None = None) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
    """Each winning structure on n players: its first and last (quota, weights) found.

    The weights run over 0..limit, ``LIMITS[n]`` by default. A structure is
    keyed by the int whose bit s is set iff the coalition of mask s wins.
    """
    found: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    top = LIMITS[n] if limit is None else limit
    for weights in itertools.combinations_with_replacement(range(top, -1, -1), n):
        weighing: dict[int, int] = {}  # a total -> the masks of its coalitions, as bits
        for s, total in enumerate(_totals(weights)):
            weighing[total] = weighing.get(total, 0) | 1 << s
        # The quotas in (lower, value] give one structure: the coalitions
        # weighing value or more.
        values = sorted(weighing)
        key, keys = 0, {}
        for value in reversed(values[1:]):
            key |= weighing[value]
            keys[value] = key
        for lower, value in zip(values, values[1:]):
            first_last = found.setdefault(keys[value], [(lower + 1, weights)] * 2)
            first_last[1] = (value, weights)
    return found


def structure_games(n: int) -> list[tuple[WeightedMajorityGame, WeightedMajorityGame]]:
    """Per structure, its first (quota, weights), and its last with the players reversed."""
    return [
        (WeightedMajorityGame(q, first), WeightedMajorityGame(q_last, last[::-1]))
        for (q, first), (q_last, last) in structures(n).values()
    ]


def labeled_games(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Each labeled game on n players, as a structure's first (quota, weights) permuted."""
    found = {}
    for (q, weights), _ in structures(n).values():
        for order in itertools.permutations(weights):
            key = sum(1 << s for s, total in enumerate(_totals(order)) if total >= q)
            found.setdefault(key, (q, order))
    return list(found.values())


def _by_definition(game: WeightedMajorityGame) -> dict:
    """What the winning structure alone fixes, read off the oracles."""
    n = game.n_players
    swung = [oracles.swings_by_definition(game, i) for i in range(n)]
    counts = [len(s) for s in swung]
    return {
        "mwc": oracles.brute_force_mwcs(game),
        "swings": swung,
        "null": [not c for c in counts],
        "symmetric": [
            (i, j) for i, j in itertools.combinations(range(n), 2)
            if oracles.symmetric_by_definition(game, i, j)
        ],
        "shapley_shubik": oracles.shapley_by_permutations(game),
        "banzhaf": [Fraction(c, sum(counts)) for c in counts],
        "raw banzhaf": [Fraction(c, 2 ** (n - 1)) for c in counts],
        "deegan_packel": oracles.deegan_packel_by_definition(game),
        "public_good": oracles.public_good_by_definition(game),
    }


def _reversed(expected: dict, n: int) -> dict:
    """``expected`` with player i renamed n - 1 - i."""

    def flip(coalitions):
        return {frozenset(n - 1 - i for i in c) for c in coalitions}

    return {
        **{key: value[::-1] for key, value in expected.items() if isinstance(value, list)},
        "mwc": flip(expected["mwc"]),
        "swings": [flip(s) for s in expected["swings"][::-1]],
        "symmetric": sorted((n - 1 - j, n - 1 - i) for i, j in expected["symmetric"]),
    }


def _canonical(coalition) -> tuple[int, int]:  # the library's (cardinality, mask) order
    return len(coalition), sum(1 << i for i in coalition)


def _differ(name: str, game, got, expected) -> list[str]:
    return [] if got == expected else [f"{name} on {game}: {got} != {expected}"]


def _structure_mismatches(game, expected: dict) -> list[str]:
    # For a weighted game and for its induced bare game, which has its winning structure.
    n = game.n_players
    listing = {frozenset(c.members) for c in minimal_winning_coalitions(game).mwc}
    out = _differ("mwc", game, listing, expected["mwc"])
    for index in (shapley_shubik, banzhaf, deegan_packel, public_good):
        out += _differ(index.__name__, game, list(index(game).values), expected[index.__name__])
    raw = list(banzhaf(game, normalized=False).values)
    out += _differ("raw banzhaf", game, raw, expected["raw banzhaf"])
    found = [{frozenset(s) for s in swings(game, i)} for i in range(n)]
    out += _differ("swings", game, found, expected["swings"])
    out += _differ("null players", game, [is_null_player(game, i) for i in range(n)],
                   expected["null"])
    symmetric = [p for p in itertools.combinations(range(n), 2) if are_symmetric(game, *p)]
    return out + _differ("symmetric pairs", game, symmetric, expected["symmetric"])


def structure_mismatches(first: WeightedMajorityGame, last: WeightedMajorityGame) -> list[str]:
    """Both games of a structure, and their induced bare games, against the oracles.

    The mwc listing, SS, BZ (normalized and raw), DP, PG, swings, null players
    and symmetric pairs are read off the structure once; CM and HCM, which
    read the weights, off each game.
    """
    expected = _by_definition(first)
    out = []
    for game, answers in ((first, expected), (last, _reversed(expected, first.n_players))):
        out += _structure_mismatches(game, answers)
        out += _structure_mismatches(game.induced_simple_game, answers)
        out += _differ("colomer_martinez", game, list(colomer_martinez(game).values),
                       oracles.colomer_martinez_by_definition(game))
        out += _differ("hcm", game, list(hcm(game).values), oracles.hcm_by_definition(game))
    return out


@functools.lru_cache(maxsize=1024)
def _mwc_total(game: WeightedMajorityGame) -> int:  # a labeled game meets many partners
    return len(oracles.brute_force_mwcs(game))


def merge_mismatches(family) -> list[str]:
    """Each condition of ``check_wm_mergeability`` against its definition."""
    report = check_wm_mergeability(family)
    name = " + ".join(map(str, family))
    union = WeightedMajorityGame(
        min(g.quota for g in family), [max(w) for w in zip(*(g.weights for g in family))]
    )
    offending = oracles.offending_players_by_definition(family)
    losing = oracles.brute_force_losing_counterexamples(family)
    union_count = _mwc_total(union)
    component_count = sum(map(_mwc_total, family))
    out = _differ("union", name, report.union, union)
    out += _differ("condition 1", name, report.equal_quotas,
                   oracles.equal_quotas_by_definition(family))
    out += _differ("condition 2", name, report.offending_players, offending)
    out += _differ("condition 2 verdict", name, report.weight_compatible, not offending)
    out += _differ("condition 3", name, report.losing_preserved, not losing)
    if losing:
        least = min(losing, key=_canonical)
        out += _differ("condition 3 counterexample", name,
                       frozenset(report.losing_counterexample), least)
    out += _differ("condition 4 counts", name,
                   (report.union_mwc_count, report.component_mwc_count),
                   (union_count, component_count))
    out += _differ("condition 4", name, report.mwc_count_additive,
                   union_count == component_count)
    return out


def suite_mismatches(game: WeightedMajorityGame) -> list[str]:
    """The thm1 suite for CM and the thm2 suite for HCM, on a game of two or more mwcs.

    A suite is EFF and NP on the game, SYMw on each single-mwc component, and
    DPMw (thm1) or HCMw (thm2) on the decomposition. Its components are
    checked against their definition, and must pass the mergeability check.
    """
    mwcs = sorted(oracles.brute_force_mwcs(game), key=_canonical)
    if len(mwcs) < 2:
        return []
    components = single_mwc_decomposition(game)
    # Component k keeps the weights of the k-th mwc's members and of the null players.
    held = set().union(*mwcs)
    expected = [
        WeightedMajorityGame(game.quota, [
            w if i in mwc or i not in held else 0 for i, w in enumerate(game.weights)
        ])
        for mwc in mwcs
    ]
    out = _differ("decomposition", game, components, expected)
    out += _differ("mergeable decomposition", game,
                   check_wm_mergeability(components).overall, True)
    for f, pair_check in ((colomer_martinez, check_dpmw), (hcm, check_hcmw)):
        verdicts = [check_eff(f, game), check_np(f, game), pair_check(f, components)]
        verdicts += [check_symw(f, c) for c in components]
        out += [f"{v.axiom} of {f.__name__} fails on {game}" for v in verdicts if not v.holds]
    return out


def pair_mismatches(n: int) -> tuple[int, list[str]]:
    """The number of ordered pairs of labeled n-player games, and their mismatches."""
    labeled = [WeightedMajorityGame(q, weights) for q, weights in labeled_games(n)]
    out = []
    for pair in itertools.product(labeled, repeat=2):
        out += merge_mismatches(pair)
    return len(labeled) ** 2, out


def main() -> int:
    start = time.perf_counter()
    found = []
    games = structure_games(6)
    for first, last in games:
        found += structure_mismatches(first, last) + suite_mismatches(first)
        found += suite_mismatches(last)
    print(f"n = 6, {len(games)} structures: {len(found)} mismatches "
          f"({time.perf_counter() - start:.1f} s)", flush=True)
    count, merged = pair_mismatches(4)
    print(f"n = 4, {count} ordered pairs of labeled games: {len(merged)} mismatches "
          f"({time.perf_counter() - start:.1f} s)")
    for line in (found + merged)[:20]:
        print(line)
    return 1 if found or merged else 0


if __name__ == "__main__":
    sys.exit(main())
