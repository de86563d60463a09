"""Game documents: a small JSON wire format with string-encoded rationals.

A document carries player display names, the quota, and the weights. Quota
and weights travel as strings (or plain JSON integers) so no binary float
can sneak into the exact arithmetic; ``"1/2"`` and ``"0.5"`` both parse to
the exact rational one half, while JSON floats are rejected.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from .errors import ParseError
from .games import WeightedMajorityGame, _Frozen


def parse_rational(value: "int | str") -> Fraction:
    """Parse an exact rational from an int or a string like ``'3'`` or ``'2/5'``."""
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
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
    try:
        # Outputs print every value, so refuse one that cannot be printed.
        str(rational)
    except ValueError as err:
        raise ParseError(f"rational too long to print: {err}") from err
    return rational


def _check_exponent(text: str) -> None:
    # Fraction("1e20000000") spends ~30 s on a number that the printable check
    # then refuses, so first refuse an exponent beyond the printable digits.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    try:
        magnitude = abs(int(text.lower().partition("e")[2] or 0))
    except ValueError:  # malformed or too long: Fraction refuses it at once
        return
    if limit and magnitude > limit:
        raise ParseError(f"rational too long to print: {text!r} has an exponent over {limit}")


def format_rational(value: Fraction) -> str:
    """Render a rational compactly: ``'3'`` for integers, else ``'p/q'``."""
    return str(value)


class GameDocument(_Frozen):
    """A named weighted majority game as it appears on disk."""

    _fields = ("quota", "weights", "players", "label", "date")

    def __init__(
        self, quota: Fraction, weights: tuple[Fraction, ...], players: tuple[str, ...],
        label: str | None = None, date: str | None = None,
    ) -> None:
        self._set(quota, weights, players, label, date)
        if len(players) != len(weights):
            raise ParseError(f"{len(players)} player names for {len(weights)} weights")
        # Build the game now, so construction errors (bad quota, negative
        # weight, ...) surface here, and later calls share its cached mwcs.
        object.__setattr__(self, "_game", WeightedMajorityGame(quota, weights))

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
        if "weights" not in obj or not isinstance(obj["weights"], list):
            raise ParseError("document needs a 'weights' list")
        quota = parse_rational(obj["quota"])
        weights = tuple(parse_rational(w) for w in obj["weights"])
        players = obj.get("players")
        if players is None:
            players = tuple(f"P{k + 1}" for k in range(len(weights)))
        elif isinstance(players, list) and all(isinstance(p, str) for p in players):
            players = tuple(players)
        else:
            raise ParseError("'players' must be a list of strings")
        metadata = obj.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise ParseError("'metadata' must be an object")
        for field in ("label", "date"):
            if not isinstance(metadata.get(field), (str, type(None))):
                raise ParseError(f"'metadata.{field}' must be a string")
        return cls(
            quota=quota,
            weights=weights,
            players=players,
            label=metadata.get("label"),
            date=metadata.get("date"),
        )

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
    """Load a document from a JSON file (UTF-8 text)."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 ({err.reason} at byte {err.start})") from err
    return parse_game(text)
