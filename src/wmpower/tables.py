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
from .indices import PowerIndexVector


def decimal_string(value: Fraction, digits: int = 4) -> str:
    """Fixed-point decimal expansion of an exact rational, round-half-even."""
    if digits < 1:
        raise GameError(f"digits must be at least 1, got {digits}")
    sign = "-" if value < 0 else ""
    magnitude = -value if value < 0 else value
    scale = 10**digits
    quotient, remainder = divmod(magnitude.numerator * scale, magnitude.denominator)
    doubled = 2 * remainder
    if doubled > magnitude.denominator or (
        doubled == magnitude.denominator and quotient % 2 == 1
    ):
        quotient += 1
    whole, frac = divmod(quotient, scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _rows(
    vectors: Sequence[PowerIndexVector], digits: int, exact: bool
) -> list[tuple[str, list[str]]]:
    rows = []
    for vector in vectors:
        rows.append((vector.kind, [decimal_string(v, digits) for v in vector]))
        if exact:
            rows.append((f"{vector.kind} (exact)", [str(v) for v in vector]))
    return rows


def render_text_table(
    vectors: Sequence[PowerIndexVector],
    names: Sequence[str],
    digits: int = 4,
    exact: bool = False,
) -> str:
    """Aligned text table: one row per index, one column per player."""
    rows = _rows(vectors, digits, exact)
    header = ["index", *names]
    table = [header] + [[label, *cells] for label, cells in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_csv(
    vectors: Sequence[PowerIndexVector],
    names: Sequence[str],
    digits: int = 4,
    exact: bool = False,
) -> str:
    import csv  # here, not at the top: only ``--format csv`` pays for it

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["index", *names])
    for label, cells in _rows(vectors, digits, exact):
        writer.writerow([label, *cells])
    return buffer.getvalue()


def render_json(
    vectors: Sequence[PowerIndexVector],
    names: Sequence[str],
    digits: int = 4,
    exact: bool = False,
) -> str:
    entries = []
    for vector in vectors:
        entry: dict = {
            "index": vector.kind,
            "decimal": [decimal_string(v, digits) for v in vector],
        }
        if exact:
            entry["exact"] = [str(v) for v in vector]
        entries.append(entry)
    return json.dumps(
        {"players": list(names), "digits": digits, "indices": entries}, indent=2
    )


_RENDERERS = {
    "table": render_text_table,
    "csv": render_csv,
    "json": render_json,
}


def render_table(
    vectors: Sequence[PowerIndexVector],
    names: Sequence[str],
    fmt: str = "table",
    digits: int = 4,
    exact: bool = False,
) -> str:
    """Render index vectors in the requested format (``table``, ``csv``, or ``json``)."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise GameError(f"unknown format {fmt!r}; use table, csv, or json") from None
    try:
        return renderer(vectors, names, digits=digits, exact=exact)
    except GameError:
        raise
    except ValueError as err:
        # An integer past Python's printable digits (sys.get_int_max_str_digits),
        # from an exact value or a large ``digits``: bad input, not a fault.
        raise GameError(f"value too long to print: {err}") from err
