"""Coalitions of players stored as fixed-width bit sets.

Players are identified by indices 0..n-1 for an ambient player count n.
A coalition is a single machine word, so membership and subset tests are
bit operations. The library works on the bare int masks, and builds a
``Coalition`` only where a caller sees one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import PlayerOutOfRange

MAX_PLAYERS = 64


class Coalition:
    """Immutable set of player indices backed by a bit mask."""

    __slots__ = ("_mask",)

    def __init__(self, players: Iterable[int] = ()) -> None:
        mask = 0
        for p in players:
            if not 0 <= p < MAX_PLAYERS:
                raise PlayerOutOfRange(
                    f"player index {p} outside 0..{MAX_PLAYERS - 1}"
                )
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
