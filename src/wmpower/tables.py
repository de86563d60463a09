"""Decimal rendering of exact index vectors as text, CSV, or JSON tables.

Exact rationals are expanded to a fixed number of decimal places with
round-half-even; the exact ``p/q`` forms can be emitted alongside. Rounding
is presentation only, all computation upstream stays rational.
"""

from __future__ import annotations

import io
import json
from collections.abc import Sequence
from fractions import Fraction

from .errors import GameError
from .games import _print_limit
from .indices import PowerIndexVector


def decimal_string(value: Fraction, digits: int = 4) -> str:
    """Fixed-point decimal expansion of an exact rational, round-half-even."""
    if digits < 1:
        raise GameError(f"digits must be at least 1, got {digits}")
    # More digits could not be printed; refuse them before the long division.
    limit = _print_limit()
    if limit and digits > limit:
        raise GameError(f"digits must be at most {limit}, got {digits}")
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
