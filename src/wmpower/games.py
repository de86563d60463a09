"""Coalitions, simple games and weighted majority games, and their mwc enumeration.

A coalition of the players 0..n-1 (n at most ``MAX_PLAYERS``) is an int bit
mask, so membership and subset tests are bit operations; the library builds a
``Coalition`` only where a caller sees one.

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
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cached_property

from .errors import EmptyCoalition, GameError, GrandCoalitionLoses, NegativeWeight
from .errors import NonPositiveQuota, ParseError, PlayerOutOfRange, TooManyPlayers

MAX_PLAYERS = 64


class Coalition:
    """Immutable set of player indices backed by a bit mask."""

    __slots__ = ("_mask",)

    def __init__(self, players: Iterable[int] = ()) -> None:
        mask = 0
        for p in players:
            if not 0 <= p < MAX_PLAYERS:
                raise PlayerOutOfRange(f"player index {p} outside 0..{MAX_PLAYERS - 1}")
            mask |= 1 << p
        self._mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "Coalition":
        if mask < 0 or mask >> MAX_PLAYERS:
            raise PlayerOutOfRange(f"mask {mask:#x} exceeds {MAX_PLAYERS} players")
        coalition = cls.__new__(cls)
        coalition._mask = mask
        return coalition

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def issubset(self, other: "Coalition") -> bool:
        return self._mask & other._mask == self._mask

    def __contains__(self, player: int) -> bool:
        return 0 <= player < MAX_PLAYERS and bool(self._mask >> player & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self._mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coalition) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"Coalition({sorted(self)})"

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self) + "}"


def as_coalition(value: "Coalition | Iterable[int]") -> Coalition:
    """Coerce an iterable of player indices to a Coalition (pass-through for Coalitions)."""
    return value if isinstance(value, Coalition) else Coalition(value)


def exact(value: "Fraction | int | str") -> Fraction:
    """An exact rational from a Fraction, an int, or a string like ``'3'`` or ``'2/5'``.

    Library calls and game documents both coerce here: a bool, a float, any
    other type, or a value too long to print raises ``ParseError``.
    """
    if isinstance(value, Fraction):
        rational = value
    elif isinstance(value, bool):
        raise ParseError(f"expected a rational, got boolean {value!r}")
    elif isinstance(value, int):
        rational = Fraction(value)
    elif isinstance(value, float):
        raise ParseError(
            f"floats are not accepted ({value!r}); write the value as a string"
        )
    elif isinstance(value, str):
        text = value.strip()
        _check_exponent(text)
        try:
            rational = Fraction(text)
        except (ValueError, ZeroDivisionError) as err:
            raise ParseError(f"malformed rational {value!r}") from err
    else:
        raise ParseError(f"expected a rational, got {type(value).__name__}")
    # Outputs print every value, so refuse one that str() cannot: an int of
    # more than ``limit`` digits. One under 2**(3 * limit) < 10**limit prints.
    limit = _print_limit()
    for part in (rational.numerator, rational.denominator):
        if limit and part.bit_length() > 3 * limit and abs(part) >= 10**limit:
            raise ParseError(f"rational too long to print: more than {limit} digits")
    return rational


def _print_limit() -> int:  # the most digits str() gives an int; 0: no limit
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _check_exponent(text: str) -> None:
    # Fraction("1e20000000") spends ~30 s on a number that the printable check
    # then refuses, so first refuse an exponent beyond the printable digits.
    limit = _print_limit()
    try:
        magnitude = abs(int(text.lower().partition("e")[2] or 0))
    except ValueError:  # malformed or too long: Fraction refuses it at once
        return
    if limit and magnitude > limit:
        raise ParseError(f"rational too long to print: {text!r} has an exponent over {limit}")


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

    The stored ``masks`` tuple, the bit masks of the minimal winning
    coalitions, is canonical: duplicates removed, sorted by (cardinality,
    mask). ``mwc`` boxes them as ``Coalition``s on first access.
    Construction rejects families that are not antichains, contain the
    empty coalition, or reach outside 0..n-1.
    """

    _fields = ("n_players", "masks")

    def __init__(self, n_players: int, mwc: Iterable[Coalition]) -> None:
        if not 1 <= n_players <= MAX_PLAYERS:
            raise TooManyPlayers(f"player count {n_players} outside 1..{MAX_PLAYERS}")
        masks = _canonical({as_coalition(c).mask for c in mwc})
        if not masks:
            raise GameError("a simple game needs at least one minimal winning coalition")
        for m in masks:
            if not m:
                raise EmptyCoalition("the empty coalition cannot be minimal winning")
            _checked_mask(Coalition.from_mask(m), n_players)
        # Sorted by size: no mask holds a later one.
        for a, b in itertools.combinations(masks, 2):
            if a & b == a:
                raise GameError(
                    "minimal winning coalitions must form an antichain; "
                    f"{Coalition.from_mask(a)} vs {Coalition.from_mask(b)}"
                )
        self._set(n_players, tuple(masks))

    @classmethod
    def _trusted(cls, n_players: int, masks: Iterable[int]) -> "SimpleGame":
        # For masks the library itself produced as an antichain of non-empty
        # coalitions within 0..n-1: sort canonically, skip the O(m**2) checks.
        game = object.__new__(cls)
        game._set(n_players, tuple(_canonical(masks)))
        return game

    @cached_property
    def mwc(self) -> tuple[Coalition, ...]:
        """The minimal winning coalitions, in the order of ``masks``."""
        return tuple(map(Coalition.from_mask, self.masks))

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        # For membership tests; not a field, so equality ignores it.
        return frozenset(self.masks)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n_players={self.n_players!r}, mwc={self.mwc!r})"

    def is_winning(self, coalition) -> bool:
        """True iff the coalition contains some minimal winning coalition."""
        mask = _checked_mask(coalition, self.n_players)
        return any(mask & m == m for m in self.masks)


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
        weights, quota, _ = self.integer_form
        return _mask_weight(weights, _checked_mask(coalition, self.n_players)) >= quota

    @cached_property
    def induced_simple_game(self) -> SimpleGame:
        """The simple game of this weighted game: its minimal winning coalitions."""
        weights, quota, _ = self.integer_form
        return SimpleGame._trusted(self.n_players, _enumerate_mwc_masks(weights, quota))

    def __str__(self) -> str:
        return f"[{self.quota}; " + ", ".join(str(w) for w in self.weights) + "]"


Game = SimpleGame | WeightedMajorityGame


def _canonical(masks: Iterable[int]) -> list[int]:
    """The masks in (popcount, mask) order: a stable sort by popcount of the sorted masks."""
    return sorted(sorted(masks), key=int.bit_count)


def _mask_weight(weights: tuple[int, ...], mask: int) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _support_mask(masks: Iterable[int]) -> int:
    support = 0
    for mask in masks:
        support |= mask
    return support


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


def minimal_winning_coalitions(game: Game) -> SimpleGame:
    """The induced simple game (the antichain M of minimal winning coalitions)."""
    if isinstance(game, SimpleGame):
        return game
    return game.induced_simple_game


def mwc_count(game: Game) -> int:
    """|M|, the number of minimal winning coalitions; every count-only reader asks here."""
    return len(minimal_winning_coalitions(game).masks)


def swing_pivots(game: SimpleGame) -> Iterator[tuple[int, int]]:
    """Each losing S, by increasing mask, and its pivots: the i with M - S = {i} for an mwc M."""
    masks = game.masks
    for s in range(1 << game.n_players):
        pivots, out = 0, ~s
        for m in masks:
            if not (rest := m & out):
                break  # M lies in S: S wins
            if not rest & (rest - 1):
                pivots |= rest
        else:
            yield s, pivots
