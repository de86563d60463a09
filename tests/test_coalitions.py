import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from wmpower import Coalition, SimpleGame, WeightedMajorityGame, are_symmetric, as_coalition
from wmpower import is_null_player, minimal_antichain, swings, unanimity_game
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


# A bool is an int to Python, but True must not stand for player 1; other
# types must not escape as a bare TypeError. No such value is a member.
@pytest.mark.parametrize("player", [True, False, 1.5, "a", None], ids=repr)
def test_non_int_player_indices_rejected(player):
    game = WeightedMajorityGame(2, [1, 1, 1])
    calls = [
        lambda: Coalition([player]),
        lambda: Coalition.from_mask(player),
        lambda: Coalition([0]).issubset([player]),
        lambda: game.is_winning([player]),
        lambda: game.coalition_weight([player]),
        lambda: SimpleGame(3, [[player]]),
        lambda: unanimity_game(3, [player]),
        lambda: is_null_player(game, player),
        lambda: are_symmetric(game, 0, player),
        lambda: swings(game, player),
    ]
    for call in calls:
        with pytest.raises(PlayerOutOfRange):
            call()
    assert player not in Coalition([0, 1])


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
