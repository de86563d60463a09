"""Machine checks for power-index axioms, the independence witnesses, and their runner.

Each check takes an index function (any deterministic callable from a game
to a :class:`PowerIndexVector`) and concrete games, and returns a verdict
with an exact counterexample when the axiom fails. All comparisons are
exact rational equality; a verdict is evidence about the supplied games,
never a universal proof. The axioms are stated over the set algebra of
simple games that lives here too: union, intersection and mergeability, the
minimal elements of a family of coalitions, swings, null players, symmetric
pairs and unanimity games, all worked on the integer masks of the coalitions.

The weighted suites split a game into one component per mwc, which keeps the
quota and the weights of that mwc's members and of the null players, and
zeroes the rest. Such a family is always WM-mergeable, and its union is the
game again. ``games`` derives each component from the game, re-running none of
its checks, and hands one cut from a single mwc S that mwc as its listing; the
proof is in the comment of ``WeightedMajorityGame._restricted``. A sampler is
handed its ``random.Random``, never imports ``random``: its hints name the C
base class ``_random.Random``, so they resolve all the same. ``run_axioms``
reads its index, checks, decompositions, sampler and loaders through the
``cli`` accessor it is handed, so a name replaced on ``cli`` is the one run.
"""

from __future__ import annotations

import _random
import functools
import math
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import EmptyCoalition, FewerThanTwoGames, GameError, NotMergeable
from .errors import NotUnanimityLike, SamePlayer, UnknownKind
from .games import MAX_PLAYERS, Coalition, Game, SimpleGame, WeightedMajorityGame, _Frozen
from .games import _canonical, _checked_int, _checked_mask, _items, _minimal_masks
from .games import _same_players, _support_mask, _weighted, minimal_winning_coalitions, mwc_count
from .indices import PowerIndexVector, _memberships, _weighted_memberships
from .indices import colomer_martinez, hcm
from .merging import merged_game


class SwingSet(_Frozen):
    """All swings of one player: losing coalitions it turns winning by joining."""

    _fields = ("player", "swings")

    def __init__(self, player: int, swings: tuple[Coalition, ...]) -> None:
        self._set(player, swings)

    def __len__(self) -> int:
        return len(self.swings)

    def __iter__(self):
        return iter(self.swings)


def minimal_antichain(coalitions: Iterable[Coalition | Iterable[int]]) -> tuple[Coalition, ...]:
    """Minimal elements of a family of coalitions, sorted by (cardinality, mask).

    Each member is a ``Coalition`` or an iterable of player indices.
    Duplicates collapse; a coalition survives iff no distinct member of the
    family is a proper subset of it.
    """
    masks = (_checked_mask(c, MAX_PLAYERS) for c in _items(coalitions, "coalitions"))
    return tuple(map(Coalition.from_mask, _minimal_masks(masks)))


def swings(game: Game, player: int) -> SwingSet:
    """Losing coalitions S (excluding the player) such that S plus the player wins."""
    bit = 1 << _checked_int(player, 0, game.n_players - 1, "player index")
    wins = [game._wins(s) for s in range(1 << game.n_players)]
    masks = (s for s, won in enumerate(wins) if not s & bit and wins[s | bit] and not won)
    return SwingSet(player, tuple(map(Coalition.from_mask, _canonical(masks))))


def is_null_player(game: Game, player: int) -> bool:
    """True iff the player belongs to no minimal winning coalition: iff it has no swing."""
    _checked_int(player, 0, game.n_players - 1, "player index")
    if isinstance(game, WeightedMajorityGame):
        return not game._swing_tally[player]
    bit = 1 << player
    return not any(m & bit for m in minimal_winning_coalitions(game).masks)


def are_symmetric(game: Game, i: int, j: int) -> bool:
    """True iff swapping i and j maps the minimal winning coalitions onto themselves."""
    last = game.n_players - 1
    if _checked_int(i, 0, last, "player index") == _checked_int(j, 0, last, "player index"):
        raise SamePlayer(f"symmetry needs two distinct players, got {i} twice")
    if isinstance(game, WeightedMajorityGame):
        # i and j are symmetric iff they swing equally often. For w_i <= w_j,
        # S -> S when j is not in S, and T + j -> T + i, maps i's swings
        # injectively into j's. If i and j are not symmetric, some T without
        # both has T + j winning and T + i losing, and then T + i is a swing
        # of j outside that image.
        tallies = game._swing_tally
        return tallies[i].total() == tallies[j].total()
    # The game is monotone, so the swap keeps its winning coalitions iff it
    # keeps their minimal ones: each mwc holding one of i, j swaps into M.
    masks = minimal_winning_coalitions(game)._mask_set
    pair = 1 << i | 1 << j
    return all(m ^ pair in masks for m in masks if 0 < m & pair != pair)


def unanimity_game(n_players: int, coalition) -> SimpleGame:
    """The simple game whose only minimal winning coalition is the given one."""
    if not (mask := _checked_mask(coalition, MAX_PLAYERS)):
        raise EmptyCoalition("a unanimity game needs a non-empty coalition")
    return SimpleGame(n_players, (Coalition.from_mask(mask),))


def _simple_pair(v: Game, v_prime: Game) -> tuple[SimpleGame, SimpleGame]:
    # A weighted game stands for its induced simple game.
    _same_players((v, v_prime))
    return minimal_winning_coalitions(v), minimal_winning_coalitions(v_prime)


def simple_union(v: Game, v_prime: Game) -> SimpleGame:
    """Game winning where either game wins; mwc = minimal elements of both antichains."""
    u, u_prime = _simple_pair(v, v_prime)
    # An mwc of one game is minimal in the union iff no mwc of the other game
    # lies strictly inside it: iff the other game loses on it, or has it as an
    # mwc too, as an antichain holds no proper subset of its own members.
    kept = {a for a in u.masks if a in u_prime._mask_set or not v_prime._wins(a)}
    kept.update(b for b in u_prime.masks if not v._wins(b))
    return SimpleGame._trusted(u.n_players, kept)


def simple_intersection(v: Game, v_prime: Game) -> SimpleGame:
    """Game winning where both games win; mwc = minimal pairwise unions of their mwcs."""
    v, v_prime = _simple_pair(v, v_prime)
    candidates = {a | b for a in v.masks for b in v_prime.masks}
    return SimpleGame._trusted(v.n_players, _minimal_masks(candidates))


def simple_mergeable(v: Game, v_prime: Game) -> bool:
    """True iff no minimal winning coalition of one game contains one of the other."""
    u, u_prime = _simple_pair(v, v_prime)
    # An mwc of one game holds an mwc of the other iff the other game wins on it.
    return not any(map(v_prime._wins, u.masks)) and not any(map(v._wins, u_prime.masks))


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
    ``are_symmetric`` then reads a weighted game's swing tally, or the
    minimal winning coalitions of a simple game.
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
    """f(whole) against the theta-weighted average of f over the parts.

    The sum runs on integers over one common denominator of every share and
    value, and builds one ``Fraction`` per player.
    """
    left = f(whole).values
    total = theta(whole)
    shares = [Fraction(theta(g), total) for g in parts]
    vectors = [f(g).values for g in parts]
    s = math.lcm(*(share.denominator for share in shares))
    d = math.lcm(*{v.denominator for values in vectors for v in values})
    scaled = [share.numerator * (s // share.denominator) for share in shares]
    right = [
        Fraction(sum(t * v.numerator * (d // v.denominator) for t, v in zip(scaled, column)), s * d)
        for column in zip(*vectors, strict=True)
    ]
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

    The mwc S holds no player of weight 0 (dropping one leaves a coalition
    that still wins), so SYMw holds iff the ratios f_i / w_i agree over S,
    that is iff f_i * w_j == f_j * w_i for every member i, where j is the
    first member with f_j != 0 (any member if every f_i is 0). A scan of all
    ordered pairs with f_j != 0 tries this j first and fails on some pair iff
    it fails on one with this j, so its first failure is this one's.
    """
    masks = minimal_winning_coalitions(_weighted(game, "SYMw")).masks
    if len(masks) != 1:
        raise NotUnanimityLike(
            f"weighted symmetry needs exactly one minimal winning coalition, "
            f"got {len(masks)}"
        )
    members = [i for i in range(game.n_players) if masks[0] >> i & 1]
    vector = f(game)
    j = next((k for k in members if vector[k] != 0), members[0])
    for i in members:
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


def check_dpmw(f: IndexFunction, games: Iterable[WeightedMajorityGame]) -> AxiomVerdict:
    """Weighted DP-mergeability: f(union) is the mwc-count weighted average."""
    games = _items(games, "games")
    return _averaging_verdict("DPMw", f, mwc_count, merged_game(games), games)


def check_hcmw(f: IndexFunction, games: Iterable[WeightedMajorityGame]) -> AxiomVerdict:
    """Weighted HCM-mergeability: f(union) is the sum-|M_i|w_i weighted average."""
    def theta(g: WeightedMajorityGame) -> Fraction:  # on the integer form, over its scale
        return Fraction(sum(_weighted_memberships(g)), g.integer_form[2])

    games = _items(games, "games")
    return _averaging_verdict("HCMw", f, theta, merged_game(games), games)


_PATCH_FIXTURE = WeightedMajorityGame(Fraction(4), (Fraction(2), Fraction(2), Fraction(1)))


def _scaled(base: IndexFunction, kind: str) -> IndexFunction:
    def index(game: Game) -> PowerIndexVector:
        return PowerIndexVector._of(kind, tuple(2 * v for v in base(game).values))

    return index


def _patched(
    base: IndexFunction, kind: str, patch_values: tuple[Fraction, ...]
) -> IndexFunction:
    def index(game: Game) -> PowerIndexVector:
        if game == _PATCH_FIXTURE:
            return PowerIndexVector._of(kind, patch_values)
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


def mwc_group_decomposition(
    game: WeightedMajorityGame, groups: Sequence[Sequence[int]]
) -> list[WeightedMajorityGame]:
    """Split a game into one component per group of its minimal winning coalitions.

    Component k keeps the original quota and the original weight for every
    player inside the group's coalitions (null players keep their weight
    everywhere); all other weights drop to zero. Groups must partition the
    indices of the game's canonical mwc tuple.
    """
    masks = minimal_winning_coalitions(_weighted(game, "a decomposition")).masks
    groups = [_items(g, "mwc indices") for g in _items(groups, "groups of mwc indices")]
    if len(groups) < 2:
        raise FewerThanTwoGames(
            "a decomposition needs at least two groups of minimal winning coalitions, "
            f"got {len(groups)}"
        )
    seen = [_checked_int(k, 0, len(masks) - 1, "mwc index", GameError) for g in groups for k in g]
    if sorted(seen) != list(range(len(masks))) or any(not group for group in groups):
        raise GameError(
            f"groups must partition the {len(masks)} minimal winning coalitions"
        )
    null_mask = ((1 << game.n_players) - 1) ^ _support_mask(masks)
    cuts = [[masks[k] for k in group] for group in groups]  # each group's mwc masks
    return [
        game._restricted(null_mask | _support_mask(cut), cut[0] if len(cut) == 1 else None)
        for cut in cuts
    ]


def single_mwc_decomposition(
    game: WeightedMajorityGame,
) -> list[WeightedMajorityGame]:
    """One component per minimal winning coalition; always a mergeable family.

    Requires at least two minimal winning coalitions. Merging the result
    recovers the original game.
    """
    return mwc_group_decomposition(game, [[k] for k in range(mwc_count(game))])


def random_weighted_game(
    rng: _random.Random, max_players: int = 8, max_weight: int = 9
) -> WeightedMajorityGame:
    """A weighted game with 2..max_players players and small integer weights.

    Zero weights are allowed, so null players occur; the quota is drawn from
    1..total so the grand coalition always wins.
    """
    n = rng.randint(2, _checked_int(max_players, 2, MAX_PLAYERS, "max_players", GameError))
    max_weight = _checked_int(max_weight, 1, math.inf, "max_weight", GameError)
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(n)]
        total = sum(weights)
        if total > 0:
            break
    quota = rng.randint(1, total)
    return WeightedMajorityGame(quota, weights)


def random_mergeable_family(
    rng: _random.Random, max_players: int = 8, max_weight: int = 9
) -> list[WeightedMajorityGame]:
    """A mergeable family: the per-mwc decomposition of a random multi-mwc game."""
    while True:
        game = random_weighted_game(rng, max_players, max_weight)
        if mwc_count(game) >= 2:
            return single_mwc_decomposition(game)


def _builtin_fixture_games(cli) -> list:
    games = [
        WeightedMajorityGame(q, weights)
        for q, weights in (
            (51, (50, 46, 4, 1)),
            (4, (2, 2, 1)),
            (4, (3, 2, 0)),
            (4, (3, 0, 1)),
            (4, (3, 2, 1)),
        )
    ]
    games.extend(cli.ecuador_document(period).game() for period in cli.ECUADOR_PERIODS)
    return games


def _load_games_dir(cli, path: str) -> list:
    if not os.path.isdir(path):
        raise GameError(f"{path!r} is not a directory of game documents")
    files = sorted(name for name in os.listdir(path) if name.endswith(".json"))
    if not files:
        raise GameError(f"no *.json game documents found in {path!r}")
    return [cli.load_game(os.path.join(path, name)).game() for name in files]


def _report_axiom(name: str, outcomes, unit: str) -> tuple[str, bool, str]:
    # Each outcome is a subject (a tuple of games) and its verdict. A line with
    # no subject reads NONE; it holds only with a subject and no failure.
    total = len(outcomes)
    failures = [subject for subject, verdict in outcomes if not verdict.holds]
    mark = "FAIL" if failures else "PASS" if total else "NONE"
    line = f"{name:5s} {mark}  {total - len(failures)}/{total} {unit}"
    if failures:
        line += f"; first failure on {' + '.join(map(str, failures[0]))}"
    return name, mark == "PASS", line


def _report_each(name: str, check, f, games, unit: str) -> tuple[str, bool, str]:
    return _report_axiom(name, [((g,), check(f, g)) for g in games], unit)


def _run_weighted_suite(cli, f, axiom_name, pair_check, games) -> list[tuple[str, bool, str]]:
    mwc_counts = [mwc_count(g) for g in games]
    families = [cli.single_mwc_decomposition(g) for g, m in zip(games, mwc_counts) if m >= 2]
    single = [g for g, m in zip(games, mwc_counts) if m == 1]
    single.extend(g for family in families for g in family)
    return [
        _report_each("SYMw", cli.check_symw, f, single, "single-mwc games"),
        _report_axiom(axiom_name, [(tuple(fs), pair_check(f, fs)) for fs in families], "families"),
    ]


def _run_classic_suite(cli, f, games) -> list[tuple[str, bool, str]]:
    records = [_report_each("SYM", cli.check_sym, f, games, "games")]
    # Pairs of games of one size; a game lists its mwcs (once, cached on it)
    # only if it is in a pair.
    pairs = [
        (a, b) for k, a in enumerate(games) for b in games[k + 1 :] if a.n_players == b.n_players
    ]
    records.append(_report_axiom("TRA", [(p, cli.check_tra(f, *p)) for p in pairs], "pairs"))
    mergeable = [p for p in pairs if cli.simple_mergeable(*p)]
    dpm = [(p, cli.check_dpm(f, *p)) for p in mergeable]
    pgm = [(p, cli.check_pgm(f, *p)) for p in mergeable]
    records.append(_report_axiom("DPM", dpm, "mergeable pairs"))
    records.append(_report_axiom("PGM", pgm, "mergeable pairs"))
    return records


def run_axioms(cli, args) -> int:
    """Print the verdict of each axiom of ``args.suite`` for ``args.index`` on the chosen games."""
    if args.suite == "classic" and args.index in ("cm", "hcm"):
        raise GameError(
            "the classic suite evaluates the index on simple games; "
            "cm and hcm need weights, use suite thm1 or thm2"
        )
    # Each game's vector is computed once and shared by every axiom line.
    f = functools.cache(cli.INDEX_FUNCTIONS[args.index])
    if args.games == "builtin":
        games = _builtin_fixture_games(cli)
    else:
        games = _load_games_dir(cli, args.games)
    if args.samples:
        import random

        rng = random.Random(args.seed)
        games = games + [cli.random_weighted_game(rng) for _ in range(args.samples)]
    print(f"index: {args.index}  suite: {args.suite}  games: {len(games)}")
    records = [
        _report_each("EFF", cli.check_eff, f, games, "games"),
        _report_each("NP", cli.check_np, f, games, "games"),
    ]
    if args.suite == "classic":
        records += _run_classic_suite(cli, f, games)
    else:
        pair_axiom = {"thm1": ("DPMw", cli.check_dpmw), "thm2": ("HCMw", cli.check_hcmw)}
        records += _run_weighted_suite(cli, f, *pair_axiom[args.suite], games)
    for _, _, line in records:
        print(line)
    satisfied = [name for name, holds, _ in records if holds]
    print(f"satisfied on this evidence: {', '.join(satisfied) if satisfied else 'none'}")
    return 0
