"""Set algebra of simple games and their structural predicates.

Union, intersection and mergeability of simple games, the minimal elements
of a family of coalitions, swings, null players, symmetric pairs and
unanimity games. Of the CLI commands only ``axioms`` runs these, so they
live apart from ``games``, which every command loads. The algebra works on
the integer masks of the coalitions.
"""

from __future__ import annotations

from collections.abc import Iterable

from .coalitions import Coalition, as_coalition
from .errors import EmptyCoalition, PlayerCountMismatch, SamePlayer
from .games import Game, SimpleGame, WeightedMajorityGame, _canonical, _check_player, _Frozen
from .games import _mask_weight, minimal_winning_coalitions, swing_pivots

# The largest integer quota whose reachable sums below it are read as one int
# (2 MB); above it, null players and symmetry fall through to the mwc scans.
_REACH_LIMIT = 1 << 24


class SwingSet(_Frozen):
    """All swings of one player: losing coalitions it turns winning by joining."""

    _fields = ("player", "swings")

    def __init__(self, player: int, swings: tuple[Coalition, ...]) -> None:
        self._set(player, swings)

    def __len__(self) -> int:
        return len(self.swings)

    def __iter__(self):
        return iter(self.swings)


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    # In (popcount, mask) order every proper subset of a mask comes before
    # it, so a mask is minimal iff no mask kept so far lies inside it.
    kept: list[int] = []
    for m in _canonical(set(masks)):
        if all(k & m != k for k in kept):
            kept.append(m)
    return kept


def minimal_antichain(coalitions: Iterable[Coalition]) -> tuple[Coalition, ...]:
    """Minimal elements of a family of coalitions, sorted by (cardinality, mask).

    Duplicates collapse; a coalition survives iff no distinct member of the
    family is a proper subset of it.
    """
    return tuple(map(Coalition.from_mask, _minimal_masks(c.mask for c in coalitions)))


def swings(game: Game, player: int) -> SwingSet:
    """Losing coalitions S (excluding the player) such that S plus the player wins."""
    _check_player(player, game.n_players)
    if isinstance(game, WeightedMajorityGame):
        weights, quota, _ = game.integer_form
        window = range(quota - weights[player], quota)
        walk = range(1 << game.n_players)
        masks = (s for s in walk if not s >> player & 1 and _mask_weight(weights, s) in window)
    else:
        masks = (s for s, pivots in swing_pivots(game) if pivots >> player & 1)
    return SwingSet(player, tuple(map(Coalition.from_mask, _canonical(masks))))


def _weighs_between(
    game: WeightedMajorityGame, outside: int, light: int, heavy: int
) -> bool | None:
    # Whether some coalition of the players not in the mask ``outside`` weighs
    # in [q - heavy, q - light) on the integer form; None when q is over
    # _REACH_LIMIT. Bit t of ``reach`` is set iff some such coalition weighs t.
    weights, quota, _ = game.integer_form
    if quota > _REACH_LIMIT:
        return None
    top = max(quota - light, 0)
    below = (1 << top) - 1
    reach = 1 & below
    for k, w in enumerate(weights):
        if not outside >> k & 1 and w < top:
            reach = (reach | reach << w) & below
    return reach >> max(quota - heavy, 0) != 0


def is_null_player(game: Game, player: int) -> bool:
    """True iff the player belongs to no minimal winning coalition: iff it has no swing."""
    _check_player(player, game.n_players)
    if isinstance(game, WeightedMajorityGame):
        # A swing of i is a coalition without i weighing in [q - w_i, q).
        swing = _weighs_between(game, 1 << player, 0, game.integer_form[0][player])
        if swing is not None:
            return not swing
    bit = 1 << player
    return not any(m & bit for m in minimal_winning_coalitions(game).masks)


def are_symmetric(game: Game, i: int, j: int) -> bool:
    """True iff swapping i and j maps the minimal winning coalitions onto themselves."""
    _check_player(i, game.n_players)
    _check_player(j, game.n_players)
    if i == j:
        raise SamePlayer(f"symmetry needs two distinct players, got {i} twice")
    if isinstance(game, WeightedMajorityGame):
        # With w_i <= w_j, S plus i wins only if S plus j does: the two differ
        # iff some coalition S without both weighs in [q - w_j, q - w_i).
        weights = game.integer_form[0]
        light, heavy = sorted((weights[i], weights[j]))
        differ = _weighs_between(game, 1 << i | 1 << j, light, heavy)
        if differ is not None:
            return not differ
    # The game is monotone, so the swap keeps its winning coalitions iff it
    # keeps their minimal ones: each mwc holding one of i, j swaps into M.
    masks = minimal_winning_coalitions(game)._mask_set
    pair = 1 << i | 1 << j
    return all(m ^ pair in masks for m in masks if 0 < m & pair != pair)


def unanimity_game(n_players: int, coalition) -> SimpleGame:
    """The simple game whose only minimal winning coalition is the given one."""
    c = as_coalition(coalition)
    if not c:
        raise EmptyCoalition("a unanimity game needs a non-empty coalition")
    return SimpleGame(n_players, (c,))


def _simple_pair(v: Game, v_prime: Game) -> tuple[SimpleGame, SimpleGame]:
    # A weighted game stands for its induced simple game.
    if v.n_players != v_prime.n_players:
        raise PlayerCountMismatch(
            f"player counts differ: {v.n_players} vs {v_prime.n_players}"
        )
    return minimal_winning_coalitions(v), minimal_winning_coalitions(v_prime)


def simple_union(v: Game, v_prime: Game) -> SimpleGame:
    """Game winning where either game wins; mwc = minimal elements of both antichains."""
    v, v_prime = _simple_pair(v, v_prime)
    return SimpleGame._trusted(v.n_players, _minimal_masks(v.masks + v_prime.masks))


def simple_intersection(v: Game, v_prime: Game) -> SimpleGame:
    """Game winning where both games win; mwc = minimal pairwise unions of their mwcs."""
    v, v_prime = _simple_pair(v, v_prime)
    candidates = {a | b for a in v.masks for b in v_prime.masks}
    return SimpleGame._trusted(v.n_players, _minimal_masks(candidates))


def simple_mergeable(v: Game, v_prime: Game) -> bool:
    """True iff no minimal winning coalition of one game contains one of the other."""
    v, v_prime = _simple_pair(v, v_prime)
    # a & b is a iff a lies inside b, and b iff b lies inside a.
    return all(a & b not in (a, b) for a in v.masks for b in v_prime.masks)
