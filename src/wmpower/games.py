"""Simple games and weighted majority games, and their mwc enumeration.

A simple game is stored canonically as the antichain of its minimal winning
coalitions, so games built by different routes compare equal exactly when
they have the same winning structure. A weighted majority game keeps its
quota and weight vector as exact rationals; its integer form and its induced
simple game are computed on demand and cached.

No floating point is used anywhere: weights and quotas are
``fractions.Fraction`` values, and winning tests compare the integers of the
game's integer form, so every comparison is exact.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import cached_property

from .coalitions import MAX_PLAYERS, Coalition, as_coalition
from .errors import EmptyCoalition, GameError, GrandCoalitionLoses, NegativeWeight
from .errors import NonPositiveQuota, PlayerOutOfRange, TooManyPlayers


def exact(value: "Fraction | int | str") -> Fraction:
    """Coerce to an exact rational; floats are rejected to keep arithmetic exact."""
    if isinstance(value, float):
        raise GameError(
            f"refusing float {value!r}; pass an int, Fraction, or 'p/q' string"
        )
    return value if isinstance(value, Fraction) else Fraction(value)


def _checked_mask(coalition, n_players: int) -> int:
    mask = as_coalition(coalition).mask
    if mask >> n_players:
        raise PlayerOutOfRange(
            f"coalition {Coalition.from_mask(mask)} not within 0..{n_players - 1}"
        )
    return mask


def _check_player(player: int, n_players: int) -> None:
    if not 0 <= player < n_players:
        raise PlayerOutOfRange(f"player index {player} not within 0..{n_players - 1}")


class _Frozen:
    """Base of the immutable records: ``==``, hash and repr over ``_fields``.

    ``__init__`` stores the fields once with ``_set``; then assignment and
    deletion raise ``AttributeError`` (``cached_property`` writes to
    ``__dict__`` directly). Not a dataclass: importing ``dataclasses`` took
    about a tenth of each CLI run.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SimpleGame(_Frozen):
    """A monotone 0/1 game given by its antichain of minimal winning coalitions.

    The stored ``mwc`` tuple is canonical: duplicates removed, sorted by
    (cardinality, mask). Construction rejects families that are not
    antichains, contain the empty coalition, or reach outside 0..n-1.
    """

    _fields = ("n_players", "mwc")

    def __init__(self, n_players: int, mwc: Iterable[Coalition]) -> None:
        if not 1 <= n_players <= MAX_PLAYERS:
            raise TooManyPlayers(f"player count {n_players} outside 1..{MAX_PLAYERS}")
        coalitions = sorted({as_coalition(c) for c in mwc}, key=lambda c: (len(c), c.mask))
        if not coalitions:
            raise GameError("a simple game needs at least one minimal winning coalition")
        for c in coalitions:
            if not c:
                raise EmptyCoalition("the empty coalition cannot be minimal winning")
            _checked_mask(c, n_players)
        # Sorted by size: no coalition holds a later one.
        for a, b in itertools.combinations(coalitions, 2):
            if a.issubset(b):
                raise GameError(
                    f"minimal winning coalitions must form an antichain; {a} vs {b}"
                )
        self._set(n_players, tuple(coalitions))

    @classmethod
    def _trusted(cls, n_players: int, masks: Iterable[int]) -> "SimpleGame":
        # For masks the library itself produced as an antichain of non-empty
        # coalitions within 0..n-1: sort canonically, skip the O(m**2) checks.
        game = object.__new__(cls)
        ordered = sorted(masks, key=lambda m: (m.bit_count(), m))
        game._set(n_players, tuple(map(Coalition.from_mask, ordered)))
        return game

    @cached_property
    def _masks(self) -> frozenset[int]:
        # The mwc masks as a set; not a field, so equality ignores it.
        return frozenset(c.mask for c in self.mwc)

    def is_winning(self, coalition) -> bool:
        """True iff the coalition contains some minimal winning coalition."""
        return mask_winning_test(self)(_checked_mask(coalition, self.n_players))

    def mwc_containing(self, player: int) -> tuple[Coalition, ...]:
        """The minimal winning coalitions the player belongs to."""
        _check_player(player, self.n_players)
        return tuple(c for c in self.mwc if player in c)


class WeightedMajorityGame(_Frozen):
    """Quota plus non-negative weights; a coalition wins iff its weight reaches the quota.

    Quota and weights are exact rationals. Construction enforces quota > 0,
    weights >= 0, and that the grand coalition wins.
    """

    _fields = ("quota", "weights")

    def __init__(self, quota: Fraction | int | str, weights: Iterable) -> None:
        quota = exact(quota)
        weights = tuple(exact(w) for w in weights)
        self._set(quota, weights)
        if quota <= 0:
            raise NonPositiveQuota(f"quota {quota} must be positive")
        if not weights:
            raise GameError("a game needs at least one player")
        if len(weights) > MAX_PLAYERS:
            raise TooManyPlayers(f"{len(weights)} players exceed the cap of {MAX_PLAYERS}")
        for i, w in enumerate(weights):
            if w < 0:
                raise NegativeWeight(f"weight of player {i} is negative ({w})")
        scaled_weights, scaled_quota, _ = self.integer_form
        if sum(scaled_weights) < scaled_quota:
            # Not the total: a sum of printable weights may be too long to print.
            raise GrandCoalitionLoses(f"the total weight is below the quota {quota}")

    @property
    def n_players(self) -> int:
        return len(self.weights)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int, int]:
        """``(weights, quota, scale)``: weights and quota times ``scale``, as integers.

        ``scale`` is the LCM of their denominators. Scaling by a positive
        number keeps every winning test, so all winning tests run on these.
        """
        scale = math.lcm(self.quota.denominator, *(w.denominator for w in self.weights))
        weights = tuple(w.numerator * (scale // w.denominator) for w in self.weights)
        return weights, self.quota.numerator * (scale // self.quota.denominator), scale

    def coalition_weight(self, coalition) -> Fraction:
        """Sum of the members' weights; the empty coalition weighs 0."""
        mask = _checked_mask(coalition, self.n_players)
        weights, _, scale = self.integer_form
        return Fraction(_mask_weight(weights, mask), scale)

    def is_winning(self, coalition) -> bool:
        """True iff the coalition's weight is at least the quota (exact comparison)."""
        return mask_winning_test(self)(_checked_mask(coalition, self.n_players))

    @cached_property
    def induced_simple_game(self) -> SimpleGame:
        """The simple game of this weighted game: its minimal winning coalitions."""
        weights, quota, _ = self.integer_form
        return SimpleGame._trusted(self.n_players, _enumerate_mwc_masks(weights, quota))

    def __str__(self) -> str:
        return f"[{self.quota}; " + ", ".join(str(w) for w in self.weights) + "]"


Game = SimpleGame | WeightedMajorityGame


def _mask_weight(weights: tuple[int, ...], mask: int) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _enumerate_mwc_masks(weights: tuple[int, ...], quota: int) -> list[int]:
    # Depth-first over the nonzero-weight players in descending weight. A
    # branch is pruned once the players left cannot lift its total to the
    # quota. The player that first lifts the total to the quota is the
    # coalition's lightest member, so dropping any member loses: the
    # coalition is minimal, and no extension of it is.
    order = sorted((i for i, w in enumerate(weights) if w), key=lambda i: -weights[i])
    heavy = [weights[i] for i in order]
    bits = [1 << i for i in order]
    reach = list(itertools.accumulate(reversed(heavy)))[::-1]
    found: list[int] = []

    def extend(start: int, mask: int, total: int) -> None:
        for k in range(start, len(order)):
            if total + reach[k] < quota:
                return
            grown = total + heavy[k]
            if grown >= quota:
                found.append(mask | bits[k])
            else:
                extend(k + 1, mask | bits[k], grown)

    extend(0, 0, 0)
    return found


def mask_winning_test(game: Game) -> Callable[[int], bool]:
    """A fast mask-level winning predicate for inner enumeration loops."""
    if isinstance(game, WeightedMajorityGame):
        weights, quota, _ = game.integer_form

        def win(mask: int) -> bool:
            return _mask_weight(weights, mask) >= quota

    else:
        mwc_masks = game._masks

        def win(mask: int) -> bool:
            return any(mask & m == m for m in mwc_masks)

    return win


def minimal_winning_coalitions(game: Game) -> SimpleGame:
    """The induced simple game (the antichain M of minimal winning coalitions)."""
    if isinstance(game, SimpleGame):
        return game
    return game.induced_simple_game


def swing_masks(game: Game, player: int) -> Iterator[int]:
    """Masks of the player's swings, in decreasing mask order."""
    _check_player(player, game.n_players)
    win = mask_winning_test(game)
    bit = 1 << player
    # k + (k & -bit) puts a 0 in k at the player's bit, keeping the order.
    others = (k + (k & -bit) for k in reversed(range(1 << (game.n_players - 1))))
    return (sub for sub in others if not win(sub) and win(sub | bit))
