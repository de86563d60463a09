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
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction

from .errors import GameError, ParseError
from .games import Game, WeightedMajorityGame, _Frozen, _checked_int, _print_limit, _shown
from .games import _names, _ordered, _weighted, exact, format_rational, mwc_count


class PowerIndexVector(_Frozen):
    """One exact rational power value per player, tagged with the index kind."""

    _fields = ("kind", "values")

    def __init__(self, kind: str, values: Iterable) -> None:
        if not isinstance(kind, str):
            raise ParseError(f"expected an index kind as a str, got {type(kind).__name__}")
        # A Fraction is kept as it is: the indices compute theirs, and only
        # rendering needs one short enough to print.
        values = _ordered(values, "values")
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
    return PowerIndexVector._of(kind, tuple(Fraction(v, denominator) for v in numerators))


def _sums(n: int, tally: dict, value: Callable) -> list[int]:
    # Per player i, the sum over the keys k of value(k) times i's count at k:
    # every index is one such weighted count. A zero count adds no product.
    sums = [0] * n
    for key, counts in tally.items():
        v = value(key)
        for i, c in enumerate(counts):
            if c:
                sums[i] += c * v
    return sums


def shapley_shubik(game: Game) -> PowerIndexVector:
    """Shapley-Shubik index: each swing S of player i contributes |S|!(n-|S|-1)!/n!."""
    n = game.n_players
    fact = [math.factorial(k) for k in range(n + 1)]
    sums = _sums(n, game._swing_tally, lambda s: fact[s] * fact[n - s - 1])
    return _efficient("SS", sums, fact[n])


def banzhaf(game: Game, normalized: bool = True) -> PowerIndexVector:
    """Banzhaf index: swing counts over 2**(n-1), or normalized to sum 1."""
    counts = _sums(game.n_players, game._swing_tally, lambda s: 1)
    if normalized:
        # Never zero: the empty coalition loses and the grand coalition wins,
        # so some player swings.
        return _efficient("BZ", counts, sum(counts))
    denominator = 1 << (game.n_players - 1)
    return PowerIndexVector._of("BZ", tuple(Fraction(c, denominator) for c in counts))


def _memberships(game: Game) -> list[int]:
    # c_i, the number of mwcs holding player i; their sum is the theta of PGM.
    return _sums(game.n_players, game._mwc_tally, lambda k: 1)


def _weighted_memberships(game: WeightedMajorityGame) -> list[int]:
    # c_i * w_i on the integer form; their sum over the scale is the theta of HCMw.
    return [c * w for c, w in zip(_memberships(game), game.integer_form[0])]


def deegan_packel(game: Game) -> PowerIndexVector:
    """Deegan-Packel index: average over a player's mwcs of the equal split 1/|S|."""
    lcm = math.lcm(*range(1, game.n_players + 1))  # a multiple of every size |S|
    sums = _sums(game.n_players, game._mwc_tally, lambda k: lcm // k[0])
    return _efficient("DP", sums, lcm * mwc_count(game))


def public_good(game: Game) -> PowerIndexVector:
    """Public Good index: a player's mwc count over the total of all players' counts."""
    counts = _memberships(game)
    return _efficient("PG", counts, sum(counts))


def colomer_martinez(game: Game) -> PowerIndexVector:
    """Colomer-Martinez index: average over a player's mwcs of its weight share w_i/w_S."""
    # On the integer form: scaling every weight keeps each ratio w_i/w(S).
    weights, _, _ = _weighted(game, "colomer_martinez").integer_form
    # Over a common multiple of the mwc weights t, each c/t is the integer
    # c * (lcm // t); each quotient is computed once, for its key, and dropped.
    lcm = math.lcm(*(t for _, t in game._mwc_tally))
    sums = _sums(len(weights), game._mwc_tally, lambda k: lcm // k[1])
    return _efficient("CM", [w * v for w, v in zip(weights, sums)], lcm * mwc_count(game))


def hcm(game: Game) -> PowerIndexVector:
    """HCM index: power proportional to (own mwc count) times (own weight)."""
    # On the integer form, as in colomer_martinez: the scale cancels.
    numerators = _weighted_memberships(_weighted(game, "hcm"))
    return _efficient("HCM", numerators, sum(numerators))


INDEX_FUNCTIONS = {
    "ss": shapley_shubik,
    "bz": banzhaf,
    "dp": deegan_packel,
    "pg": public_good,
    "cm": colomer_martinez,
    "hcm": hcm,
}


def _checked_digits(digits) -> None:  # decimal places: 1 up to what str() prints
    if _checked_int(digits, -math.inf, math.inf, "digits", GameError) < 1:
        raise GameError(f"digits must be at least 1, got {digits}")
    # More digits could not be printed; refuse them before the long division.
    limit = _print_limit()
    if limit and digits > limit:
        raise GameError(f"digits must be at most {limit}, got {_shown(digits)}")


def decimal_string(value: Fraction | int | str, digits: int = 4) -> str:
    """Fixed-point decimal expansion of an exact rational, round-half-even."""
    value = value if isinstance(value, Fraction) else exact(value)
    _checked_digits(digits)
    return _decimal(value, digits)


def _decimal(value: Fraction, digits: int) -> str:  # decimal_string on checked input
    sign = "-" if value < 0 else ""
    scale = 10**digits
    # round() of a Fraction is exact, and rounds half to even.
    whole, frac = divmod(round(abs(value) * scale), scale)
    return f"{sign}{format_rational(whole)}.{frac:0{digits}d}"


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
    _checked_digits(digits)
    vectors, names = _ordered(vectors, "index vectors"), _names(names)
    if any(len(vector) != len(names) for vector in vectors):
        raise GameError(f"{len(names)} player names, but a vector of another length")
    model = [
        (vector.kind, [_decimal(v, digits) for v in vector],
         [format_rational(v) for v in vector] if exact else None)
        for vector in vectors
    ]
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
