"""Shared hypothesis strategies for random games, and fixed games for their examples."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import strategies as st

import ladder
from wmpower import (
    Coalition,
    SimpleGame,
    WeightedMajorityGame,
    minimal_antichain,
    minimal_winning_coalitions,
    single_mwc_decomposition,
)


@st.composite
def weighted_games(draw, min_players=2, max_players=8, max_weight=9):
    n = draw(st.integers(min_players, max_players))
    weights = draw(
        st.lists(st.integers(0, max_weight), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 0
        )
    )
    quota = draw(st.integers(1, sum(weights)))
    return WeightedMajorityGame(quota, weights)


@st.composite
def rational_weighted_games(draw, min_players=1, max_players=8):
    """Rational weights and quota with denominators up to 12.

    Weights repeat from a small pool (ties) and include zeros; the quota is
    often the total weight, so only the grand coalition wins.
    """
    n = draw(st.integers(min_players, max_players))
    rational = st.fractions(min_value=0, max_value=5, max_denominator=12)
    pool = draw(st.lists(rational, min_size=1, max_size=3))
    weight = st.one_of(st.just(Fraction(0)), st.sampled_from(pool), rational)
    weights = draw(
        st.lists(weight, min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    denominator = draw(st.integers(1, 12))
    top = math.floor(total * denominator)
    if top == 0 or draw(st.booleans()):
        return WeightedMajorityGame(total, weights)
    return WeightedMajorityGame(Fraction(draw(st.integers(1, top)), denominator), weights)


@st.composite
def class_weighted_games(draw, min_players=1, max_players=64, max_classes=3):
    """Players in at most ``max_classes`` classes, a_k players of weight w_k each.

    Class weights come from a small pool, so classes tie, and include zeros.
    The quota is mostly the weight of a drawn count vector, so that many
    coalitions weigh exactly the quota, else the total or a rational below
    it. The players are shuffled.
    """
    n = draw(st.integers(min_players, max_players))
    k = draw(st.integers(1, min(max_classes, n)))
    cuts = []
    if k > 1:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    rational = st.fractions(min_value=0, max_value=12, max_denominator=6)
    pool = draw(st.lists(rational, min_size=1, max_size=2))
    weight = st.one_of(st.just(Fraction(0)), st.sampled_from(pool), rational)
    classes = draw(st.lists(weight, min_size=k, max_size=k).filter(any))
    weights = draw(st.permutations([w for w, a in zip(classes, sizes) for _ in range(a)]))
    total = sum(weights)
    reached = sum(draw(st.integers(0, a)) * w for w, a in zip(classes, sizes)) or total
    denominator = draw(st.integers(1, 12))
    top = math.floor(total * denominator)
    below = Fraction(draw(st.integers(1, top)), denominator) if top else total
    quota = draw(st.sampled_from([reached, reached, total, below]))
    return WeightedMajorityGame(quota, weights)


@st.composite
def weighted_game_families(draw, min_players=1, max_players=9):
    """Two or three weighted games on one player count, or a game's decomposition.

    Decompositions pass every mergeability condition. A perturbed one has one
    component's quota, or one of its nonzero weights that another component
    shares, moved by a small step, so it fails condition 1 or 2. Free families
    mostly fail condition 3, often with a counterexample below the grand
    coalition.
    """
    n = draw(st.integers(min_players, max_players))
    games = st.one_of(
        weighted_games(min_players=n, max_players=n),
        rational_weighted_games(min_players=n, max_players=n),
    )
    game = draw(games)
    if len(minimal_winning_coalitions(game).mwc) < 2 or draw(st.booleans()):
        return [game, *draw(st.lists(games, min_size=1, max_size=2))]
    family = single_mwc_decomposition(game)
    if draw(st.booleans()):
        return family
    k = draw(st.integers(0, len(family) - 1))
    quota, weights = family[k].quota, list(family[k].weights)
    others = family[:k] + family[k + 1 :]
    shared = [i for i, w in enumerate(weights) if w and any(g.weights[i] for g in others)]
    step = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
    if shared and draw(st.booleans()):
        weights[draw(st.sampled_from(shared))] += step
    else:
        quota = quota - step if quota > step else quota / 2
    family[k] = WeightedMajorityGame(quota, weights)
    return family


@st.composite
def simple_games(draw, min_players=2, max_players=6, max_mwcs=4):
    n = draw(st.integers(min_players, max_players))
    members = st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
    family = draw(st.lists(members, min_size=1, max_size=max_mwcs))
    return SimpleGame(n, minimal_antichain(Coalition(m) for m in family))


@st.composite
def simple_game_pairs(draw, min_players=2, max_players=6):
    n = draw(st.integers(min_players, max_players))
    return (
        draw(simple_games(min_players=n, max_players=n)),
        draw(simple_games(min_players=n, max_players=n)),
    )


@st.composite
def weighted_and_bare_pairs(draw, max_players=6):
    """A weighted game and a bare simple game on the same players, in either order."""
    weighted = draw(weighted_games(max_players=max_players))
    n = weighted.n_players
    pair = (weighted, draw(simple_games(min_players=n, max_players=n)))
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def weighted_game_pairs(draw, min_players=1, max_players=6):
    n = draw(st.integers(min_players, max_players))
    games = st.one_of(
        weighted_games(min_players=n, max_players=n),
        rational_weighted_games(min_players=n, max_players=n),
    )
    return draw(games), draw(games)


@st.composite
def single_mwc_games(draw, max_players=8):
    """Games whose one mwc is a drawn member set S, with the quota at w(S).

    Members have positive rational weights, often tied. An outsider weighs 0
    or a positive share, and the shares sum below S's lightest weight, so the
    outsiders are null and S stays the only mwc.
    """
    n = draw(st.integers(1, max_players))
    is_member = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    rational = st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12)
    pool = draw(st.lists(rational, min_size=1, max_size=3))
    member_weight = st.one_of(st.sampled_from(pool), rational)
    weights = [
        draw(member_weight) if member else Fraction(draw(st.integers(0, 5)))
        for member in is_member
    ]
    inside = [w for w, member in zip(weights, is_member) if member]
    scale = min(inside) / (sum(weights) - sum(inside) + 1)
    weights = [w if member else w * scale for w, member in zip(weights, is_member)]
    return WeightedMajorityGame(sum(inside), weights)


def wmg(quota, *weights) -> WeightedMajorityGame:
    """The weighted majority game [quota; weights]."""
    return WeightedMajorityGame(quota, weights)


def sg(n, *coalitions) -> SimpleGame:
    """The simple game on n players won by the supersets of the given coalitions."""
    return SimpleGame(n, tuple(Coalition(c) for c in coalitions))


def mwc_sets(game) -> set[frozenset[int]]:
    """The game's minimal winning coalitions, each as a set of players."""
    return {frozenset(c) for c in minimal_winning_coalitions(game).mwc}


def bits40_game(n: int) -> WeightedMajorityGame:
    """``ladder.bits40_game(n)``: n 40-bit weights, quota half the total plus one."""
    return WeightedMajorityGame(*ladder.bits40_game(n))


def prime_reciprocals_game() -> WeightedMajorityGame:
    """Weights 1/p for the primes p up to 23 and quota 1/2: integer quota 111,546,435."""
    return WeightedMajorityGame("1/2", [Fraction(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)])
