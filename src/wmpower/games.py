"""Coalitions, simple and weighted majority games, mwc enumeration and game documents.

A coalition of the players 0..n-1 (n at most ``MAX_PLAYERS``) is an int bit
mask, so membership and subset tests are bit operations; the library builds a
``Coalition`` only where a caller sees one.

A simple game is stored canonically as the antichain of its minimal winning
coalitions, so games built by different routes compare equal exactly when
they have the same winning structure. A weighted majority game keeps its
quota and weight vector as exact rationals. What is derived from a game is a
cached property of it: a weighted game's integer form and induced simple game,
and each game's swing and mwc tallies, which the indices and axioms read.

No floating point is used anywhere: weights and quotas are
``fractions.Fraction`` values, and winning tests compare the integers of the
game's integer form, so every comparison is exact.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence, Set
from fractions import Fraction
from functools import cached_property

from .errors import EmptyCoalition, GameError, GrandCoalitionLoses, NegativeWeight
from .errors import NonPositiveQuota, ParseError, PlayerCountMismatch, PlayerOutOfRange
from .errors import TooManyPlayers, WeightsRequired

MAX_PLAYERS = 64
_FULL_MASK = (1 << MAX_PLAYERS) - 1


class Coalition:
    """Immutable set of player indices backed by a bit mask."""

    __slots__ = ("_mask",)

    def __init__(self, players: Iterable[int] = ()) -> None:
        self._mask = _checked_mask(players, MAX_PLAYERS)

    @classmethod
    def from_mask(cls, mask: int) -> "Coalition":
        coalition = cls.__new__(cls)
        coalition._mask = _checked_int(mask, 0, _FULL_MASK, "mask")
        return coalition

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def issubset(self, other: "Coalition | Iterable[int]") -> bool:
        return self._mask & _checked_mask(other, MAX_PLAYERS) == self._mask

    def __contains__(self, player: object) -> bool:
        try:
            return bool(self._mask >> _checked_int(player, 0, MAX_PLAYERS - 1, "player index") & 1)
        except PlayerOutOfRange:
            return False

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
    other type, a string holding ``_`` or inner whitespace, or a value too
    long to print raises ``ParseError``.
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
        # Fraction reads "1_000" from Python 3.11 on and "12 / 6" from 3.12
        # on; refusing both keeps one grammar on every interpreter.
        if "_" in text or any(map(str.isspace, text)):
            raise ParseError(f"malformed rational {value!r}")
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


def _checked_int(value, low: int, high: int, what: str, error=PlayerOutOfRange) -> int:
    # The one rule for every outside index and count. A bool is an int to
    # Python, but no index or count: True is not player 1.
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise error(f"{what} {_shown(value)} outside {low}..{high}")
    return value


def _shown(value) -> str:
    # The repr of a refused value. One that repr() cannot print, an int past
    # the printable digits or a container of one, is named by its size or type.
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too long to print>"


def _items(container, what: str) -> tuple:
    # The one rule for every outside container: its members, as a tuple. Text,
    # bytes and mappings iterate as characters, bytes or keys, never the items meant.
    text_or_keys = isinstance(container, (str, bytes, bytearray, Mapping))
    if text_or_keys or not isinstance(container, Iterable):
        raise ParseError(f"expected an iterable of {what}, got {type(container).__name__}")
    return tuple(container)


def _ordered(container, what: str) -> tuple:
    # The container rule where the order is the meaning (weights, values, names,
    # table rows): a set iterates in hash order, so it is refused too.
    if isinstance(container, Set):
        raise ParseError(f"expected an iterable of {what} in order, got {type(container).__name__}")
    return _items(container, what)


def _names(players) -> tuple[str, ...]:  # the player names of a document or a table
    names = _ordered(players, "player names")
    if not all(isinstance(p, str) for p in names):
        raise ParseError("'players' must be a list of strings")
    return names


def _checked_mask(coalition, n_players: int) -> int:
    # The mask of a Coalition or any iterable of player indices in 0..n-1.
    if isinstance(coalition, Coalition) and not coalition._mask >> n_players:
        return coalition._mask  # its members were checked as it was built
    mask = 0
    for player in _items(coalition, "player indices"):
        mask |= 1 << _checked_int(player, 0, n_players - 1, "player index")
    return mask


class _Frozen:
    """Base of the immutable records: ``==``, hash and repr over ``_fields``.

    ``__init__`` stores the fields once with ``_set``; then assignment and
    deletion raise ``AttributeError`` (``cached_property`` writes to
    ``__dict__`` directly). Not a dataclass: importing ``dataclasses`` took
    about a tenth of each CLI run.
    """

    _fields: tuple[str, ...] = ()

    @classmethod
    def _of(cls, *values):  # values the library derived and checked: no __init__
        record = object.__new__(cls)
        record._set(*values)
        return record

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
        n_players = _checked_int(n_players, 1, MAX_PLAYERS, "player count", TooManyPlayers)
        masks = _canonical({_checked_mask(c, n_players) for c in _items(mwc, "coalitions")})
        if not masks:
            raise GameError("a simple game needs at least one minimal winning coalition")
        if masks[0] == 0:  # (popcount, mask) order puts the empty mask first
            raise EmptyCoalition("the empty coalition cannot be minimal winning")
        kept = _minimal_masks(masks)
        if len(kept) < len(masks):
            dropped = next(m for m in masks if m not in kept)
            inside = next(k for k in kept if k & dropped == k)
            raise GameError(
                "minimal winning coalitions must form an antichain; "
                f"{Coalition.from_mask(inside)} vs {Coalition.from_mask(dropped)}"
            )
        self._set(n_players, tuple(masks))

    @classmethod
    def _trusted(cls, n_players: int, masks: Iterable[int]) -> "SimpleGame":
        # For masks the library itself produced as an antichain of non-empty
        # coalitions within 0..n-1: sort canonically, skip the O(m**2) checks.
        return cls._of(n_players, tuple(_canonical(masks)))

    @cached_property
    def mwc(self) -> tuple[Coalition, ...]:
        """The minimal winning coalitions, in the order of ``masks``."""
        return tuple(map(Coalition.from_mask, self.masks))

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        # For membership tests; not a field, so equality ignores it.
        return frozenset(self.masks)

    @cached_property
    def _swing_tally(self) -> list[Counter]:
        # Per player i, a Counter of |S| over i's swings S; SS and BZ read
        # only this. Both game kinds count it on a decision diagram.
        return _diagram_tally(*_mask_diagram(self.n_players, self.masks))

    @cached_property
    def _mwc_tally(self) -> list[Counter]:
        # Per player i, a Counter of (|S|, 0) over the mwcs S that hold i.
        return _mwc_counts(self.n_players, self.masks, ())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n_players={self.n_players!r}, mwc={self.mwc!r})"

    def is_winning(self, coalition) -> bool:
        """True iff the coalition contains some minimal winning coalition."""
        return self._wins(_checked_mask(coalition, self.n_players))

    def _wins(self, mask: int) -> bool:
        return any(mask & m == m for m in self.masks)


class WeightedMajorityGame(_Frozen):
    """Quota plus non-negative weights; a coalition wins iff its weight reaches the quota.

    Quota and weights are exact rationals. Construction enforces quota > 0,
    weights >= 0, and that the grand coalition wins.
    """

    _fields = ("quota", "weights")

    def __init__(self, quota: Fraction | int | str, weights: Iterable) -> None:
        quota = exact(quota)
        weights = tuple(exact(w) for w in _ordered(weights, "weights"))
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
        return self._wins(_checked_mask(coalition, self.n_players))

    def _wins(self, mask: int) -> bool:
        weights, quota, _ = self.integer_form
        return _mask_weight(weights, mask) >= quota

    @cached_property
    def induced_simple_game(self) -> SimpleGame:
        """The simple game of this weighted game: its minimal winning coalitions."""
        weights, quota, _ = self.integer_form
        return SimpleGame._trusted(self.n_players, _diagram_mwc_masks(weights, quota))

    @cached_property
    def _swing_tally(self) -> list[Counter]:
        # As a simple game's, on the weight diagram; a weighted game's null
        # players and symmetric pairs read it too.
        return _diagram_tally(*_weight_diagram(*self.integer_form[:2])[:3])

    @cached_property
    def _mwc_tally(self) -> list[Counter]:
        # Per player i, a Counter of (|S|, w(S)) over the mwcs S that hold i,
        # w the integer weight.
        masks = self.induced_simple_game.masks
        return _mwc_counts(self.n_players, masks, self.integer_form[0])

    def _restricted(self, support: int, mwc: int | None = None) -> "WeightedMajorityGame":
        # This game with every weight outside the mask ``support`` set to 0: the
        # support holds an mwc, so no check of __init__ can fail. Cut from one
        # mwc S, with the null players, its only mwc is S: an mwc T of it lies in
        # S and the null players (it holds no weight-0 player) and wins in the
        # parent, so holds a parent mwc, which lies in S, so is S; T = S, minimal.
        zero = Fraction(0)
        weights = tuple(w if support >> i & 1 else zero for i, w in enumerate(self.weights))
        game = self._of(self.quota, weights)
        if mwc is not None:
            game.__dict__["induced_simple_game"] = SimpleGame._trusted(self.n_players, [mwc])
        return game

    def __str__(self) -> str:
        return f"[{self.quota}; " + ", ".join(str(w) for w in self.weights) + "]"


Game = SimpleGame | WeightedMajorityGame


def _canonical(masks: Iterable[int]) -> list[int]:
    """The masks in (popcount, mask) order: a stable sort by popcount of the sorted masks."""
    return sorted(sorted(masks), key=int.bit_count)


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    # In (popcount, mask) order every proper subset of a mask comes before
    # it, so a mask is minimal iff no mask kept so far lies inside it.
    kept: list[int] = []
    for m in _canonical(set(masks)):
        for k in kept:  # a loop: all() over a generator takes 1.5 times as long
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


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


def _weight_diagram(weights: tuple[int, ...], quota: int) -> tuple:
    # The quasi-reduced ordered BDD of the game (Bolus 2011), players in
    # (weight descending, index) order. A node at level k is the function
    # "the players from level k on weigh at least r" of a residual quota r,
    # kept with its interval (lo, hi) of residuals; a residual finds its node
    # by bisecting the level's sorted lows. Node 0 is TRUE (r <= 0) and node
    # 1 FALSE (r >= 1), clipped to q - W..q, where every residual lies.
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    spans, kids = [(quota - sum(weights), 0), (1, quota)], [(0, 0), (1, 1)]
    lows = [[] for _ in order] + [[lo for lo, _ in spans]]
    ids = [[] for _ in order] + [[0, 1]]

    def node(level: int, r: int) -> int:
        k = bisect_right(lows[level], r)
        if k and r <= spans[v := ids[level][k - 1]][1]:
            return v
        w = weights[order[level]]
        t, e = node(level + 1, r - w), node(level + 1, r)
        spans.append((max(spans[e][0], spans[t][0] + w), min(spans[e][1], spans[t][1] + w)))
        kids.append((t, e))
        lows[level].insert(k, spans[-1][0])
        ids[level].insert(k, len(kids) - 1)
        return len(kids) - 1

    node(0, quota)
    return order, kids, ids, spans


def _diagram_mwc_masks(weights: tuple[int, ...], quota: int) -> list[int]:
    # The mwcs read off the weight diagram (Berghammer and Bolus 2012): each is
    # a losing path to a node whose 1-child is TRUE (hi <= 0), as the player at
    # that level comes last in weight order, so is the lightest member. below[v]:
    # such a node lies at or under v. A losing node's 0-child loses, so the walk
    # enters only losing nodes, flagged ones, and each step leads to an mwc.
    order, kids, _, spans = _weight_diagram(weights, quota)
    below = [False, False]
    for t, e in kids[2:]:  # children come before parents
        below.append(spans[t][1] <= 0 or below[t] or below[e])
    found: list[int] = []

    def walk(v: int, level: int, mask: int) -> None:
        t, e = kids[v]
        if spans[t][1] <= 0:
            found.append(mask | 1 << order[level])
        elif below[t]:
            walk(t, level + 1, mask | 1 << order[level])
        if below[e]:
            walk(e, level + 1, mask)

    walk(len(kids) - 1, 0, 0)
    return found


def _mask_diagram(n: int, masks: tuple[int, ...]) -> tuple:
    # As _weight_diagram, for a bare simple game, players in index order. A
    # node at level k is the family of mwc remainders M - S, over the mwcs M
    # whose players before k all lie in S; one that holds the empty mask wins.
    kids, ids = [(0, 0), (1, 1)], [{} for _ in range(n)] + [{frozenset([0]): 0, frozenset(): 1}]

    def node(level: int, family: frozenset) -> int:
        family = frozenset([0]) if 0 in family else family
        if (v := ids[level].get(family)) is None:
            bit = 1 << level
            t = node(level + 1, frozenset(m & ~bit for m in family))
            e = node(level + 1, frozenset(m for m in family if not m & bit))
            kids.append((t, e))
            v = ids[level][family] = len(kids) - 1
        return v

    node(0, frozenset(masks))
    return range(n), kids, [list(level.values()) for level in ids]


def _diagram_tally(order: Sequence[int], kids: list, ids: list[list[int]]) -> list[Counter]:
    # Children come before parents, the root last. Per node, the paths from
    # the root (f) and the winning completions (g) by size, one (n + 2)-bit
    # slot per size in one int: no count reaches 2**n, so no slot carries.
    n, root = len(order), len(kids) - 1
    slot = n + 2
    g = [1, 0]
    for t, e in kids[2:]:
        g.append((g[t] << slot) + g[e])
    f = [0] * root + [1]
    for v in range(root, 1, -1):
        f[kids[v][0]] += f[v] << slot
        f[kids[v][1]] += f[v]
    # A player's swings by size: the sum of f_v (g_t - g_e) over its level's
    # nodes v, with no negative slot, since t wins wherever e does.
    swings = [0] * n
    for level, player in enumerate(order):
        swings[player] = sum(f[v] * (g[kids[v][0]] - g[kids[v][1]]) for v in ids[level])
    full = (1 << slot) - 1
    return [Counter({s: c for s in range(n) if (c := p >> s * slot & full)}) for p in swings]


def _mwc_counts(n: int, masks: tuple[int, ...], weights: tuple[int, ...]) -> list[Counter]:
    # One pass over the mwc masks: per player i, a Counter c_i of (|S|, w(S))
    # over the mwcs S that contain i, w the integer weight (0 without weights).
    # DP, PG, CM and HCM read only this and mwc_count: a counting backend replaces both.
    groups = defaultdict(list)
    for mask in masks:
        weight = _mask_weight(weights, mask) if weights else 0
        groups[mask.bit_count(), weight].append(mask)
    tallies = [Counter() for _ in range(n)]
    for key, group in groups.items():
        support = _support_mask(group)  # only these players have a nonzero count
        for i, tally in enumerate(tallies):
            if support >> i & 1:
                tally[key] = len([m for m in group if m >> i & 1])
    return tallies


def minimal_winning_coalitions(game: Game) -> SimpleGame:
    """The induced simple game (the antichain M of minimal winning coalitions)."""
    if isinstance(game, SimpleGame):
        return game
    return game.induced_simple_game


def _weighted(game, what: str) -> WeightedMajorityGame:
    # The one rule for what is defined on weights (CM, HCM, merging, SYMw, decompositions).
    if not isinstance(game, WeightedMajorityGame):
        raise WeightsRequired(f"{what} needs a weighted game, got a {type(game).__name__}")
    return game


def _same_players(games: Sequence[Game]) -> None:
    # The one rule for games combined in one operation: one player count. The
    # error carries the position of the first game of another size.
    for k, g in enumerate(games):
        if g.n_players != (n := games[0].n_players):
            raise PlayerCountMismatch(f"player counts differ: {n} vs {g.n_players}", k)


def mwc_count(game: Game) -> int:
    """|M|, the number of minimal winning coalitions; every count-only reader asks here."""
    return len(minimal_winning_coalitions(game).masks)



# Game documents: a small JSON wire format. A document carries player display
# names, the quota and the weights. Quota and weights travel as strings (or
# plain JSON integers) so no binary float can sneak into the exact arithmetic;
# "1/2" and "0.5" both parse to the exact rational one half, while JSON floats
# are rejected.
parse_rational = exact


def format_rational(value: Fraction) -> str:
    """Render a rational compactly: ``'3'`` for integers, else ``'p/q'``."""
    try:
        return str(value)
    except ValueError as err:  # a computed value past sys.get_int_max_str_digits()
        raise GameError(f"value too long to print: {err}") from err


class GameDocument(_Frozen):
    """A named weighted majority game as it appears on disk.

    The constructor checks every field, for documents built in code and read
    from JSON alike; the JSON reader checks only the JSON shape.
    """

    _fields = ("quota", "weights", "players", "label", "date")

    def __init__(
        self, quota: Fraction | int | str, weights: Iterable, players: Iterable[str],
        label: str | None = None, date: str | None = None,
    ) -> None:
        quota, weights = exact(quota), tuple(exact(w) for w in _ordered(weights, "weights"))
        names = _names(players)
        for field, value in (("label", label), ("date", date)):
            if not isinstance(value, (str, type(None))):
                raise ParseError(f"'metadata.{field}' must be a string")
        # A str may hold a lone surrogate (valid JSON can), which no output can encode.
        try:
            "".join([*names, label or "", date or ""]).encode("utf-8")
        except UnicodeEncodeError as err:
            bad = err.object[err.start : err.end]
            raise ParseError(f"names and metadata must be UTF-8 text, not {bad!r}") from err
        if len(names) != len(weights):
            raise ParseError(f"{len(names)} player names for {len(weights)} weights")
        # Build the game now, so construction errors (bad quota, negative
        # weight, ...) surface here, and later calls share its cached mwcs.
        game = WeightedMajorityGame(quota, weights)
        self._set(quota, weights, names, label, date)
        object.__setattr__(self, "_game", game)

    def game(self) -> WeightedMajorityGame:
        """The validated game this document describes, built once."""
        return self._game

    def to_json_obj(self) -> dict:
        obj: dict = {
            "players": list(self.players),
            "quota": format_rational(self.quota),
            "weights": [format_rational(w) for w in self.weights],
        }
        metadata = {}
        if self.label is not None:
            metadata["label"] = self.label
        if self.date is not None:
            metadata["date"] = self.date
        if metadata:
            obj["metadata"] = metadata
        return obj

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GameDocument":
        if not isinstance(obj, dict):
            raise ParseError(f"expected an object, got {type(obj).__name__}")
        if "quota" not in obj:
            raise ParseError("document is missing 'quota'")
        if not isinstance(obj.get("weights"), list):
            raise ParseError("document needs a 'weights' list")
        players = obj.get("players")
        if players is None:
            players = [f"P{k + 1}" for k in range(len(obj["weights"]))]
        metadata = {} if obj.get("metadata") is None else obj["metadata"]
        if not isinstance(metadata, dict):
            raise ParseError("'metadata' must be an object")
        label, date = metadata.get("label"), metadata.get("date")
        return cls(obj["quota"], obj["weights"], players, label, date)

    @classmethod
    def from_json(cls, text: str) -> "GameDocument":
        try:
            obj = json.loads(text)
        except ValueError as err:  # JSONDecodeError, or an int literal too long
            raise ParseError(f"invalid JSON: {err}") from err
        except RecursionError as err:
            raise ParseError("invalid JSON: nested too deeply") from err
        return cls.from_json_obj(obj)


def parse_game(text: str) -> GameDocument:
    """Parse a document from JSON text."""
    return GameDocument.from_json(text)


def load_game(path: str | os.PathLike[str]) -> GameDocument:
    """Load a document from a JSON file (UTF-8 text); each refusal names the path."""
    # open() takes an int as a file descriptor, which it reads and then closes.
    if not isinstance(path, (str, os.PathLike)):
        raise ParseError(f"expected a path as a str or os.PathLike, got {type(path).__name__}")
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 ({err.reason} at byte {err.start})") from err
    except ValueError as err:  # open() refuses a path holding a NUL
        raise ParseError(f"cannot open {path!r}: {err}") from err
    try:
        return parse_game(text)
    except GameError as err:
        err.args = (f"{path}: {err}",)
        raise
