"""Exception types shared across the library."""


class GameError(ValueError):
    """Base class for every domain error raised by this package."""


class NonPositiveQuota(GameError):
    """Quota must be strictly positive."""


class NegativeWeight(GameError):
    """All player weights must be non-negative."""


class GrandCoalitionLoses(GameError):
    """The total weight falls short of the quota, so no coalition can win."""


class TooManyPlayers(GameError):
    """Player count exceeds the supported bit-set width."""


class PlayerOutOfRange(GameError):
    """A player index falls outside the game's 0..n-1 range."""


class SamePlayer(GameError):
    """An operation on a pair of players received the same index twice."""


class EmptyCoalition(GameError):
    """The empty coalition is not allowed here."""


class PlayerCountMismatch(GameError):
    """Games combined in one operation must share the player count.

    Carries ``index``, the position of the first game of another size.
    """

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class FewerThanTwoGames(GameError):
    """Merging operations need at least two games."""


class WeightsRequired(GameError):
    """The operation is defined on weighted games only, not bare simple games."""


class NotUnanimityLike(GameError):
    """The game does not have exactly one minimal winning coalition."""


class UnknownKind(GameError):
    """Unrecognized witness-index kind."""


class ParseError(GameError):
    """A value or a game document is malformed."""


class NotMergeable(GameError):
    """The given games are not mergeable."""


class NotWMMergeable(NotMergeable):
    """Weighted games failed the mergeability conditions; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
