"""Bundled National Assembly of Ecuador compositions (2021).

Six snapshots of the 137-seat assembly, one game document per period. The
quota is 70 in every period: half plus one of 137 is 69.5, and the electoral
law rounds the required votes up to the nearest integer. Minority members
are aggregated into the single IND bloc their period's totals report.
"""

from __future__ import annotations

from .errors import GameError
from .games import GameDocument

ECUADOR_QUOTA = 70

ECUADOR_PERIODS = ("may21", "jun21", "jul21", "oct12", "oct26", "dec21")

_MAY_PLAYERS = ("UNES", "MUPP", "ID", "PSC", "CREO", "IND")
_LATER_PLAYERS = ("UNES", "MUPP", "BAN", "ID", "PSC", "IND")

_COMPOSITIONS = {
    "may21": (_MAY_PLAYERS, (49, 27, 18, 18, 12, 13), "May 2021", "2021-05"),
    "jun21": (_LATER_PLAYERS, (48, 25, 25, 16, 14, 9), "June 2021", "2021-06"),
    "jul21": (_LATER_PLAYERS, (47, 24, 25, 16, 14, 11), "July 2021", "2021-07"),
    "oct12": (_LATER_PLAYERS, (47, 25, 25, 14, 14, 12), "12 October 2021", "2021-10-12"),
    "oct26": (_LATER_PLAYERS, (47, 25, 26, 14, 14, 11), "26 October 2021", "2021-10-26"),
    "dec21": (_LATER_PLAYERS, (47, 25, 28, 14, 14, 9), "December 2021", "2021-12"),
}


def ecuador_document(period: str) -> GameDocument:
    """The game document for one period key (see ``ECUADOR_PERIODS``)."""
    try:
        players, seats, label, date = _COMPOSITIONS[period]
    except KeyError:
        raise GameError(
            f"unknown period {period!r}; expected one of {', '.join(ECUADOR_PERIODS)}"
        ) from None
    return GameDocument(
        quota=ECUADOR_QUOTA,
        weights=seats,
        players=players,
        label=f"National Assembly of Ecuador, {label}",
        date=date,
    )


def ecuador_documents() -> dict[str, GameDocument]:
    """All six period documents, in chronological order."""
    return {period: ecuador_document(period) for period in ECUADOR_PERIODS}
