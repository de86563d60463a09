import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from wmpower import Coalition, all_coalitions, as_coalition, minimal_antichain
from wmpower.errors import PlayerOutOfRange


def test_construction_and_members():
    c = Coalition([3, 0, 1])
    assert c.members == (0, 1, 3)
    assert len(c) == 3
    assert 1 in c
    assert 2 not in c
    assert c.mask == 0b1011


def test_empty_coalition():
    empty = Coalition()
    assert len(empty) == 0
    assert not empty
    assert empty.members == ()


def test_from_mask_round_trip():
    c = Coalition.from_mask(0b101)
    assert c == Coalition([0, 2])
    assert Coalition(c.members) == c


def test_out_of_range_players_rejected():
    with pytest.raises(PlayerOutOfRange):
        Coalition([-1])
    with pytest.raises(PlayerOutOfRange):
        Coalition([64])
    with pytest.raises(PlayerOutOfRange):
        Coalition.from_mask(1 << 64)
    with pytest.raises(PlayerOutOfRange):
        Coalition.from_mask(-1)


def test_set_operations():
    a = Coalition([0, 1])
    b = Coalition([1, 2])
    assert a | b == Coalition([0, 1, 2])
    assert a & b == Coalition([1])
    assert a - b == Coalition([0])
    assert a.issubset(a | b)
    assert not a.issubset(b)
    assert (a | b).issuperset(b)
    assert a < a | b
    assert not a < a


def test_with_and_without_player():
    c = Coalition([0])
    assert c.with_player(2) == Coalition([0, 2])
    assert c.with_player(2).without_player(0) == Coalition([2])
    with pytest.raises(PlayerOutOfRange):
        c.with_player(64)


def test_hashable_and_usable_in_sets():
    assert {Coalition([0, 1]), Coalition([1, 0])} == {Coalition.from_mask(3)}


def test_str_and_repr():
    c = Coalition([2, 0])
    assert str(c) == "{0, 2}"
    assert repr(c) == "Coalition([0, 2])"


def test_as_coalition_coerces_iterables():
    c = Coalition([1, 2])
    assert as_coalition(c) is c
    assert as_coalition([2, 1]) == c
    assert as_coalition(range(2)) == Coalition([0, 1])


def test_all_coalitions_enumerates_in_mask_order():
    coalitions = list(all_coalitions(3))
    assert len(coalitions) == 8
    assert [c.mask for c in coalitions] == list(range(8))
    with pytest.raises(PlayerOutOfRange):
        list(all_coalitions(65))


def test_minimal_antichain_drops_supersets_and_duplicates():
    family = [Coalition([0, 1]), Coalition([0]), Coalition([0, 1]), Coalition([1, 2])]
    assert minimal_antichain(family) == (Coalition([0]), Coalition([1, 2]))


def test_minimal_antichain_sorted_by_size_then_mask():
    family = [Coalition([1, 2]), Coalition([3]), Coalition([0, 1])]
    assert minimal_antichain(family) == (
        Coalition([3]),
        Coalition([0, 1]),
        Coalition([1, 2]),
    )


@st.composite
def families(draw):
    """Lists of sets over at most 5 players: duplicates, nested sets and equal sizes abound."""
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=12))


def sets(*members):
    return [frozenset(m) for m in members]


@given(families())
@example([])
@example(sets({0, 1}, {0, 1}, {2}, {2}))  # duplicates
@example(sets({0, 1, 2}, {1, 2}, {2}, {0, 1, 2, 3}))  # a chain
@example(sets({0, 1}, {2}, {0, 2}, {1, 3}))  # mask order is not size order
def test_minimal_antichain_matches_definition(family):
    minimal = minimal_antichain(Coalition(s) for s in family)
    expected = sorted(
        oracles.minimal_by_definition(family), key=lambda s: (len(s), sum(1 << i for i in s))
    )
    assert [frozenset(c) for c in minimal] == expected


players_sets = st.sets(st.integers(0, 63), max_size=10)


@given(players_sets)
def test_members_round_trip(players):
    assert set(Coalition(players)) == players


@given(players_sets, players_sets)
def test_subset_agrees_with_frozenset(a, b):
    assert Coalition(a).issubset(Coalition(b)) == frozenset(a).issubset(b)
    assert (Coalition(a) | Coalition(b)).members == tuple(sorted(a | b))
    assert (Coalition(a) & Coalition(b)).members == tuple(sorted(a & b))
