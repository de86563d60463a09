"""Machine checks for power-index axioms, plus the independence witnesses.

Each check takes an index function (any deterministic callable from a game
to a :class:`PowerIndexVector`) and concrete games, and returns a verdict
with an exact counterexample when the axiom fails. All comparisons are
exact rational equality; a verdict is evidence about the supplied games,
never a universal proof.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

from .errors import NotMergeable, NotUnanimityLike, UnknownKind
from .games import Game, WeightedMajorityGame, _Frozen
from .games import minimal_winning_coalitions, mwc_count
from .indices import PowerIndexVector, _memberships, _weighted_memberships
from .indices import colomer_martinez, hcm
from .merging import merged_game
from .simple import are_symmetric, is_null_player, simple_intersection, simple_mergeable
from .simple import simple_union

IndexFunction = Callable[[Game], PowerIndexVector]


class AxiomVerdict(_Frozen):
    """Outcome of one axiom check; carries a counterexample iff it failed."""

    _fields = ("axiom", "holds", "witness")

    def __init__(
        self, axiom: str, holds: bool, witness: Mapping[str, object] | None = None
    ) -> None:
        self._set(axiom, holds, witness)


def _verdict(axiom: str, holds: bool, witness: dict | None = None) -> AxiomVerdict:
    return AxiomVerdict(axiom, holds, None if holds else witness)


def check_eff(f: IndexFunction, game: Game) -> AxiomVerdict:
    """Efficiency: the power values sum to exactly 1."""
    vector = f(game)
    total = vector.total
    return _verdict("EFF", total == 1, {"game": game, "total": total})


def check_np(f: IndexFunction, game: Game) -> AxiomVerdict:
    """Null player: every player outside all minimal winning coalitions gets 0.

    A player is asked whether it is null only when its value is not 0.
    """
    vector = f(game)
    for i in range(game.n_players):
        if vector[i] != 0 and is_null_player(game, i):
            return _verdict(
                "NP", False, {"game": game, "player": i, "value": vector[i]}
            )
    return _verdict("NP", True)


def check_sym(f: IndexFunction, game: Game) -> AxiomVerdict:
    """Symmetry: interchangeable players receive equal power.

    A pair is asked whether it is symmetric only when its values differ;
    ``are_symmetric`` then reads the sums a weighted game's coalitions
    reach, or the minimal winning coalitions of a simple game (and of a
    weighted game whose integer quota is over ``simple._REACH_LIMIT``).
    """
    vector = f(game)
    n = game.n_players
    for i in range(n):
        for j in range(i + 1, n):
            if vector[i] != vector[j] and are_symmetric(game, i, j):
                return _verdict(
                    "SYM",
                    False,
                    {"game": game, "players": (i, j), "values": (vector[i], vector[j])},
                )
    return _verdict("SYM", True)


def _vectors_equal(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    return all(x == y for x, y in zip(a, b, strict=True))


def check_tra(f: IndexFunction, v: Game, v_prime: Game) -> AxiomVerdict:
    """Transfer: f(meet) + f(join) equals f(v) + f(v'), componentwise.

    f must depend only on the winning structure: a weighted game is read as its induced game.
    """
    join = simple_union(v, v_prime)
    meet = simple_intersection(v, v_prime)
    left = [a + b for a, b in zip(f(meet).values, f(join).values, strict=True)]
    right = [a + b for a, b in zip(f(v).values, f(v_prime).values, strict=True)]
    return _verdict(
        "TRA",
        _vectors_equal(left, right),
        {"games": (v, v_prime), "left": tuple(left), "right": tuple(right)},
    )


def _require_simple_mergeable(v: Game, v_prime: Game) -> None:
    if not simple_mergeable(v, v_prime):
        raise NotMergeable(
            "the axiom is stated for mergeable simple games; "
            "some minimal winning coalition of one game contains one of the other"
        )


def _averaging_verdict(
    axiom: str,
    f: IndexFunction,
    theta: Callable[[Game], "int | Fraction"],
    whole: Game,
    parts: Sequence[Game],
) -> AxiomVerdict:
    """f(whole) against the theta-weighted average of f over the parts."""
    left = f(whole).values
    total = theta(whole)
    shares = [(Fraction(theta(g), total), f(g).values) for g in parts]
    right = [sum(s * values[i] for s, values in shares) for i in range(whole.n_players)]
    return _verdict(
        axiom,
        _vectors_equal(left, right),
        {"games": tuple(parts), "left": tuple(left), "right": tuple(right)},
    )


def check_dpm(f: IndexFunction, v: Game, v_prime: Game) -> AxiomVerdict:
    """Mergeability with mwc-count weights: f(join) is the |M|-weighted average.

    As in TRA, f must depend only on the winning structure.
    """
    _require_simple_mergeable(v, v_prime)
    join = simple_union(v, v_prime)
    return _averaging_verdict("DPM", f, mwc_count, join, (v, v_prime))


def check_pgm(f: IndexFunction, v: Game, v_prime: Game) -> AxiomVerdict:
    """Mergeability with membership-count weights: f(join) is the sum-|M_i| average.

    As in TRA, f must depend only on the winning structure.
    """
    _require_simple_mergeable(v, v_prime)
    join = simple_union(v, v_prime)
    return _averaging_verdict("PGM", f, lambda g: sum(_memberships(g)), join, (v, v_prime))


def check_symw(f: IndexFunction, game: WeightedMajorityGame) -> AxiomVerdict:
    """Weighted symmetry on single-mwc games: power ratios match weight ratios.

    Checked by cross-multiplication (f_i * w_j == f_j * w_i) over ordered
    member pairs with f_j != 0, so no division is needed; pairs whose
    reference value and weight are both zero are vacuous.
    """
    masks = minimal_winning_coalitions(game).masks
    if len(masks) != 1:
        raise NotUnanimityLike(
            f"weighted symmetry needs exactly one minimal winning coalition, "
            f"got {len(masks)}"
        )
    members = [i for i in range(game.n_players) if masks[0] >> i & 1]
    vector = f(game)
    for j in members:
        if vector[j] == 0:
            continue
        for i in members:
            if i == j:
                continue
            if vector[i] * game.weights[j] != vector[j] * game.weights[i]:
                return _verdict(
                    "SYMw",
                    False,
                    {
                        "game": game,
                        "players": (i, j),
                        "values": (vector[i], vector[j]),
                        "weights": (game.weights[i], game.weights[j]),
                    },
                )
    return _verdict("SYMw", True)


def check_dpmw(
    f: IndexFunction, games: Sequence[WeightedMajorityGame]
) -> AxiomVerdict:
    """Weighted DP-mergeability: f(union) is the mwc-count weighted average."""
    return _averaging_verdict("DPMw", f, mwc_count, merged_game(games), games)


def check_hcmw(
    f: IndexFunction, games: Sequence[WeightedMajorityGame]
) -> AxiomVerdict:
    """Weighted HCM-mergeability: f(union) is the sum-|M_i|w_i weighted average."""
    def theta(g: WeightedMajorityGame) -> Fraction:  # on the integer form, over its scale
        return Fraction(sum(_weighted_memberships(g)), g.integer_form[2])

    return _averaging_verdict("HCMw", f, theta, merged_game(games), games)


_PATCH_FIXTURE = WeightedMajorityGame(Fraction(4), (Fraction(2), Fraction(2), Fraction(1)))


def _scaled(base: IndexFunction, kind: str) -> IndexFunction:
    def index(game: Game) -> PowerIndexVector:
        return PowerIndexVector(kind, tuple(2 * v for v in base(game).values))

    return index


def _patched(
    base: IndexFunction, kind: str, patch_values: tuple[Fraction, ...]
) -> IndexFunction:
    def index(game: Game) -> PowerIndexVector:
        if game == _PATCH_FIXTURE:
            return PowerIndexVector(kind, patch_values)
        return base(game)

    return index


def witness_index(kind: str) -> IndexFunction:
    """The independence witnesses: deliberately broken variants of CM and HCM.

    ``scaled_cm`` / ``scaled_hcm`` double every value (efficiency fails);
    ``np_patch_cm`` / ``np_patch_hcm`` return the equal split on the one
    fixture game where it gives a null player positive power; and
    ``symw_patch_hcm`` concentrates all power on the first player of that
    fixture. Fixture matching is exact equality of (quota, weights).
    """
    third = Fraction(1, 3)
    if kind == "scaled_cm":
        return _scaled(colomer_martinez, kind)
    if kind == "scaled_hcm":
        return _scaled(hcm, kind)
    if kind == "np_patch_cm":
        return _patched(colomer_martinez, kind, (third, third, third))
    if kind == "np_patch_hcm":
        return _patched(hcm, kind, (third, third, third))
    if kind == "symw_patch_hcm":
        return _patched(hcm, kind, (Fraction(1), Fraction(0), Fraction(0)))
    raise UnknownKind(f"unknown witness kind {kind!r}")
