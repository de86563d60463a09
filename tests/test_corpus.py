"""Every weighted game on at most five players against the oracles (tests/corpus.py).

``python tests/corpus.py`` runs the same checks at n = 6, and the
mergeability test on every pair of 4-player labeled games, outside tier-1.
"""

import pytest

import corpus
from wmpower import minimal_winning_coalitions

# Per n = 1..5: the winning structures, those with two or more mwcs, and the
# labeled games, which are OEIS A000617(n) - 2 (the two constant functions).
STRUCTURES = (1, 3, 8, 25, 117)
MULTI_MWC = (0, 1, 5, 21, 112)
LABELED = (1, 4, 18, 148, 3285)
SIZES = range(1, 6)


@pytest.mark.parametrize("n", SIZES)
def test_the_corpus_holds_every_weighted_game(n):
    found = corpus.structures(n)
    assert len(found) == STRUCTURES[n - 1]
    assert corpus.structures(n, corpus.LIMITS[n] + 2).keys() == found.keys()
    assert len(corpus.labeled_games(n)) == LABELED[n - 1]
    multi = [
        first for first, _ in corpus.structure_games(n)
        if len(minimal_winning_coalitions(first).masks) >= 2
    ]
    assert len(multi) == MULTI_MWC[n - 1]


@pytest.mark.parametrize("n", SIZES)
def test_listing_indices_swings_and_symmetry_match_the_oracles(n):
    mismatches = [
        line for pair in corpus.structure_games(n) for line in corpus.structure_mismatches(*pair)
    ]
    assert mismatches == []


@pytest.mark.parametrize("n", SIZES)
def test_both_theorem_suites_hold_on_every_game_of_two_or_more_mwcs(n):
    mismatches = [
        line
        for pair in corpus.structure_games(n)
        for game in pair
        for line in corpus.suite_mismatches(game)
    ]
    assert mismatches == []


@pytest.mark.parametrize("n", range(1, 4))
def test_each_merge_condition_matches_its_definition_on_every_pair(n):
    count, mismatches = corpus.pair_mismatches(n)
    assert count == LABELED[n - 1] ** 2
    assert mismatches == []
