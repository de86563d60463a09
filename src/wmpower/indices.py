"""Exact power indices for simple and weighted majority games.

Six indices are provided. Shapley-Shubik, Banzhaf, Deegan-Packel, and
Public Good depend only on the winning structure and accept either game
kind. Colomer-Martinez and HCM are defined on the weighted representation
itself (different weight vectors inducing the same simple game give
different values), so they insist on a ``WeightedMajorityGame``.

Every returned vector is exact rational; every vector except the raw
Banzhaf form sums to exactly 1. ``render_table`` expands the vectors to a
fixed number of decimal places with round-half-even, as text, CSV or JSON;
rounding is presentation only.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import wraps

from .errors import GameError, WeightsRequired
from .games import Game, WeightedMajorityGame, _Frozen, _mask_weight, _print_limit
from .games import _checked_int, _shown, _support_mask, _weight_diagram, exact
from .games import minimal_winning_coalitions, mwc_count


class PowerIndexVector(_Frozen):
    """One exact rational power value per player, tagged with the index kind."""

    _fields = ("kind", "values")

    def __init__(self, kind: str, values: Iterable) -> None:
        # A Fraction is kept as it is: the indices compute theirs, and only
        # rendering needs one short enough to print.
        self._set(kind, tuple(v if isinstance(v, Fraction) else exact(v) for v in values))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, player: int) -> Fraction:
        return self.values[player]

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


def _efficient(kind: str, numerators: list[int], denominator: int) -> PowerIndexVector:
    if (total := sum(numerators)) != denominator:
        # A broken invariant, not bad input: callers map it to an internal error.
        raise AssertionError(f"{kind} vector must sum to 1, got {Fraction(total, denominator)}")
    return PowerIndexVector(kind, (Fraction(v, denominator) for v in numerators))


def _kept_on_game(build):
    # build(game) once per game object, kept in the game's own __dict__ as
    # cached_property keeps integer_form: a tally lives as long as its game.
    @wraps(build)
    def tally(game: Game) -> list[Counter]:
        if build.__name__ not in game.__dict__:
            game.__dict__[build.__name__] = build(game)
        return game.__dict__[build.__name__]

    return tally


@_kept_on_game
def _swing_tally(game: Game) -> list[Counter]:
    # Per player i, a Counter c_i of |S| over i's swings S; SS and BZ read
    # only this tally, and so do a weighted game's null players and symmetric
    # pairs. Both game kinds count on one decision diagram.
    if isinstance(game, WeightedMajorityGame):
        return _diagram_tally(*_weight_diagram(*game.integer_form[:2])[:3])
    return _diagram_tally(*_mask_diagram(game.n_players, game.masks))


def _mask_diagram(n: int, masks: tuple[int, ...]) -> tuple:
    # The same diagram for a bare simple game, players in index order. A
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


def shapley_shubik(game: Game) -> PowerIndexVector:
    """Shapley-Shubik index: each swing S of player i contributes |S|!(n-|S|-1)!/n!."""
    n = game.n_players
    fact = [math.factorial(k) for k in range(n + 1)]
    sums = [sum(c * fact[s] * fact[n - s - 1] for s, c in t.items()) for t in _swing_tally(game)]
    return _efficient("SS", sums, fact[n])


def banzhaf(game: Game, normalized: bool = True) -> PowerIndexVector:
    """Banzhaf index: swing counts over 2**(n-1), or normalized to sum 1."""
    counts = [t.total() for t in _swing_tally(game)]
    if normalized:
        # Never zero: the empty coalition loses and the grand coalition wins,
        # so some player swings.
        return _efficient("BZ", counts, sum(counts))
    denominator = 1 << (game.n_players - 1)
    return PowerIndexVector("BZ", tuple(Fraction(c, denominator) for c in counts))


@_kept_on_game
def _mwc_tally(game: Game) -> list[Counter]:
    # One pass over the mwc masks: per player i, a Counter c_i of (|S|, w(S))
    # over the mwcs S that contain i, w the integer weight (0 for a bare simple game).
    # DP, PG, CM and HCM read only this and mwc_count: a counting backend replaces both.
    weights = game.integer_form[0] if isinstance(game, WeightedMajorityGame) else ()
    groups = defaultdict(list)
    for mask in minimal_winning_coalitions(game).masks:
        weight = _mask_weight(weights, mask) if weights else 0
        groups[mask.bit_count(), weight].append(mask)
    tallies = [Counter() for _ in range(game.n_players)]
    for key, group in groups.items():
        support = _support_mask(group)  # only these players have a nonzero count
        for i, tally in enumerate(tallies):
            if support >> i & 1:
                tally[key] = len([m for m in group if m >> i & 1])
    return tallies


def _memberships(game: Game) -> list[int]:
    # c_i, the number of mwcs holding player i; their sum is the theta of PGM.
    return [t.total() for t in _mwc_tally(game)]


def _weighted_memberships(game: WeightedMajorityGame) -> list[int]:
    # c_i * w_i on the integer form; their sum over the scale is the theta of HCMw.
    return [c * w for c, w in zip(_memberships(game), game.integer_form[0])]


def deegan_packel(game: Game) -> PowerIndexVector:
    """Deegan-Packel index: average over a player's mwcs of the equal split 1/|S|."""
    lcm = math.lcm(*range(1, game.n_players + 1))  # a multiple of every size |S|
    sums = [sum(c * lcm // s for (s, _), c in t.items()) for t in _mwc_tally(game)]
    return _efficient("DP", sums, lcm * mwc_count(game))


def public_good(game: Game) -> PowerIndexVector:
    """Public Good index: a player's mwc count over the total of all players' counts."""
    counts = _memberships(game)
    return _efficient("PG", counts, sum(counts))


def _require_weights(game: Game, index_name: str) -> WeightedMajorityGame:
    if not isinstance(game, WeightedMajorityGame):
        raise WeightsRequired(
            f"{index_name} is defined on the weighted representation; "
            "got a bare simple game"
        )
    return game


def colomer_martinez(game: Game) -> PowerIndexVector:
    """Colomer-Martinez index: average over a player's mwcs of its weight share w_i/w_S."""
    # On the integer form: scaling every weight keeps each ratio w_i/w(S).
    weights, _, _ = _require_weights(game, "colomer_martinez").integer_form
    m, tallies = mwc_count(game), _mwc_tally(game)
    # Over a common multiple of the mwc weights t, each c/t is the integer
    # c * (lcm // t); every player shares the quotients.
    totals = {t for tally in tallies for _, t in tally}
    lcm = math.lcm(*totals)
    quotients = {t: lcm // t for t in totals}
    sums = (sum(c * quotients[t] for (_, t), c in tally.items()) for tally in tallies)
    return _efficient("CM", [w * v for w, v in zip(weights, sums)], lcm * m)


def hcm(game: Game) -> PowerIndexVector:
    """HCM index: power proportional to (own mwc count) times (own weight)."""
    # On the integer form, as in colomer_martinez: the scale cancels.
    numerators = _weighted_memberships(_require_weights(game, "hcm"))
    return _efficient("HCM", numerators, sum(numerators))


INDEX_FUNCTIONS = {
    "ss": shapley_shubik,
    "bz": banzhaf,
    "dp": deegan_packel,
    "pg": public_good,
    "cm": colomer_martinez,
    "hcm": hcm,
}


def decimal_string(value: Fraction, digits: int = 4) -> str:
    """Fixed-point decimal expansion of an exact rational, round-half-even."""
    if _checked_int(digits, -math.inf, math.inf, "digits", GameError) < 1:
        raise GameError(f"digits must be at least 1, got {digits}")
    # More digits could not be printed; refuse them before the long division.
    limit = _print_limit()
    if limit and digits > limit:
        raise GameError(f"digits must be at most {limit}, got {_shown(digits)}")
    sign = "-" if value < 0 else ""
    scale = 10**digits
    # round() of a Fraction is exact, and rounds half to even.
    whole, frac = divmod(round(abs(value) * scale), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


def render_table(
    vectors: Sequence[PowerIndexVector],
    names: Sequence[str],
    fmt: str = "table",
    digits: int = 4,
    exact: bool = False,
) -> str:
    """Render index vectors in the requested format (``table``, ``csv``, or ``json``).

    All three read one model: per vector, its kind, its decimals, and its
    exact forms (``None`` without ``exact``).
    """
    if fmt not in ("table", "csv", "json"):
        raise GameError(f"unknown format {fmt!r}; use table, csv, or json")
    if any(len(vector) != len(names) for vector in vectors):
        raise GameError(f"{len(names)} player names, but a vector of another length")
    try:
        model = [
            (vector.kind, [decimal_string(v, digits) for v in vector],
             [str(v) for v in vector] if exact else None)
            for vector in vectors
        ]
    except GameError:
        raise
    except ValueError as err:
        # An integer past Python's printable digits (sys.get_int_max_str_digits),
        # from an exact value or a large ``digits``: bad input, not a fault.
        raise GameError(f"value too long to print: {err}") from err
    if fmt == "json":
        entries = []
        for kind, decimals, forms in model:
            entry: dict = {"index": kind, "decimal": decimals}
            if forms is not None:
                entry["exact"] = forms
            entries.append(entry)
        return json.dumps(
            {"players": list(names), "digits": digits, "indices": entries}, indent=2
        )
    rows = [["index", *names]]
    for kind, decimals, forms in model:
        rows.append([kind, *decimals])
        if forms is not None:
            rows.append([f"{kind} (exact)", *forms])
    if fmt == "csv":
        import csv  # here, not at the top: only ``--format csv`` pays for it

        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()
    # An aligned text table: one row per index, one column per player.
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )
