"""Command-line surface: power tables, mwc listings, merging, axiom suites, demos.

Exit codes: 0 on success, 2 on validation failures (bad flags, malformed or
invalid game documents), 1 on internal errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import wmpower

from .datasets import ECUADOR_PERIODS, ecuador_document
from .documents import GameDocument, load_game
from .errors import GameError
from .games import WeightedMajorityGame, minimal_winning_coalitions, simple_mergeable
from .indices import INDEX_FUNCTIONS
from .tables import render_table

# Names that only merge and axioms use, imported on first use from their
# home modules (through the package's lazy table). A name becomes a global
# when first read as an attribute or bound by a handler; one already bound (a
# wrapper installed from outside) stays, and the handlers call it. No handler
# calls wm_union: bench/traced_cli.py spans that name.
_LAZY = (
    *(f"check_{a}" for a in ("eff", "np", "sym", "symw", "tra", "dpm", "pgm", "dpmw", "hcmw")),
    "check_wm_mergeability",
    "single_mwc_decomposition",
    "wm_union",
    "random_weighted_game",
)


def _bind(*names: str) -> None:
    for name in names:
        globals().setdefault(name, getattr(wmpower, name))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


def _index_list(text: str) -> list[str]:
    keys = [part.strip().lower() for part in text.split(",") if part.strip()]
    if not keys:
        raise argparse.ArgumentTypeError("no index names given")
    for key in keys:
        if key not in INDEX_FUNCTIONS:
            raise argparse.ArgumentTypeError(
                f"unknown index {key!r}; choose from {', '.join(INDEX_FUNCTIONS)}"
            )
    return keys


def _single_index(text: str) -> str:
    keys = _index_list(text)
    if len(keys) != 1:
        raise argparse.ArgumentTypeError("expected exactly one index name")
    return keys[0]


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _render_vectors(document: GameDocument, args) -> str:
    game = document.game()
    vectors = [INDEX_FUNCTIONS[key](game) for key in args.index]
    return render_table(
        vectors,
        document.players,
        fmt=args.format,
        digits=args.digits,
        exact=args.exact,
    )


def _format_coalition(coalition, names) -> str:
    return "{" + ", ".join(names[i] for i in coalition) + "}"


def cmd_power(args) -> int:
    document = load_game(args.game)
    print(_render_vectors(document, args))
    return 0


def cmd_mwc(args) -> int:
    document = load_game(args.game)
    game = document.game()
    induced = minimal_winning_coalitions(game)
    print(f"{document.label or 'game'} {game}")
    plural = "s" if len(induced.mwc) != 1 else ""
    print(f"{len(induced.mwc)} minimal winning coalition{plural}:")
    for coalition in induced.mwc:
        print(f"  {_format_coalition(coalition, document.players)}")
    return 0


def cmd_merge(args) -> int:
    _bind("check_wm_mergeability")
    documents = [load_game(path) for path in args.games]
    games = [doc.game() for doc in documents]
    report = check_wm_mergeability(games)
    for line in report.describe():
        print(line)
    if report.overall and not args.check_only:
        print(f"union: {report.union}")
    return 0


def _builtin_fixture_games() -> list:
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
    games.extend(ecuador_document(period).game() for period in ECUADOR_PERIODS)
    return games


def _load_games_dir(path: str) -> list:
    if not os.path.isdir(path):
        raise GameError(f"{path!r} is not a directory of game documents")
    files = sorted(name for name in os.listdir(path) if name.endswith(".json"))
    if not files:
        raise GameError(f"no *.json game documents found in {path!r}")
    return [load_game(os.path.join(path, name)).game() for name in files]


def _report_axiom(name: str, outcomes, unit: str) -> tuple[str, bool]:
    total = len(outcomes)
    failures = [(subject, verdict) for subject, verdict in outcomes if not verdict.holds]
    passed = total - len(failures)
    if not failures:
        return f"{name:5s} PASS  {passed}/{total} {unit}", True
    subject, _ = failures[0]
    return (
        f"{name:5s} FAIL  {passed}/{total} {unit}; first failure on {subject}",
        False,
    )


def _report_each(name: str, check, f, games, unit: str) -> tuple[str, bool]:
    return _report_axiom(name, [(str(g), check(f, g)) for g in games], unit)


def _run_weighted_suite(f, axiom_name, pair_check, games) -> list[tuple[str, bool]]:
    mwc_counts = [len(minimal_winning_coalitions(g).mwc) for g in games]
    families = [single_mwc_decomposition(g) for g, m in zip(games, mwc_counts) if m >= 2]
    single = [g for g, m in zip(games, mwc_counts) if m == 1]
    single.extend(g for family in families for g in family)
    family_outcomes = [
        (" + ".join(str(g) for g in family), pair_check(f, family))
        for family in families
    ]
    return [
        _report_each("SYMw", check_symw, f, single, "single-mwc games"),
        _report_axiom(axiom_name, family_outcomes, "families"),
    ]


def _run_classic_suite(f, games) -> list[tuple[str, bool]]:
    lines = [_report_each("SYM", check_sym, f, games, "games")]
    simple_games = [minimal_winning_coalitions(g) for g in games]
    pairs = [
        (a, b)
        for k, a in enumerate(simple_games)
        for b in simple_games[k + 1 :]
        if a.n_players == b.n_players
    ]
    tra = [(f"pair {k}", check_tra(f, a, b)) for k, (a, b) in enumerate(pairs)]
    lines.append(_report_axiom("TRA", tra, "pairs"))
    mergeable_pairs = [(a, b) for a, b in pairs if simple_mergeable(a, b)]
    dpm = [(f"pair {k}", check_dpm(f, a, b)) for k, (a, b) in enumerate(mergeable_pairs)]
    pgm = [(f"pair {k}", check_pgm(f, a, b)) for k, (a, b) in enumerate(mergeable_pairs)]
    lines.append(_report_axiom("DPM", dpm, "mergeable pairs"))
    lines.append(_report_axiom("PGM", pgm, "mergeable pairs"))
    return lines


def cmd_axioms(args) -> int:
    if args.suite == "classic" and args.index in ("cm", "hcm"):
        raise GameError(
            "the classic suite evaluates the index on simple games; "
            "cm and hcm need weights, use suite thm1 or thm2"
        )
    _bind(*_LAZY)
    # Each game's vector is computed once and shared by every axiom line.
    f = functools.cache(INDEX_FUNCTIONS[args.index])
    if args.games == "builtin":
        games = _builtin_fixture_games()
    else:
        games = _load_games_dir(args.games)
    if args.samples:
        import random

        rng = random.Random(args.seed)
        games = games + [random_weighted_game(rng) for _ in range(args.samples)]
    print(f"index: {args.index}  suite: {args.suite}  games: {len(games)}")
    lines = [
        _report_each("EFF", check_eff, f, games, "games"),
        _report_each("NP", check_np, f, games, "games"),
    ]
    if args.suite == "classic":
        lines += _run_classic_suite(f, games)
    else:
        # Built per call, so a check replaced as a module attribute is the one run.
        pair_axiom = {"thm1": ("DPMw", check_dpmw), "thm2": ("HCMw", check_hcmw)}
        lines += _run_weighted_suite(f, *pair_axiom[args.suite], games)
    for text, _ in lines:
        print(text)
    satisfied = [text.split()[0] for text, ok in lines if ok]
    print(f"satisfied on this evidence: {', '.join(satisfied) if satisfied else 'none'}")
    return 0


def cmd_demo(args) -> int:
    periods = list(ECUADOR_PERIODS) if args.period == "all" else [args.period]
    blocks = []
    for period in periods:
        document = ecuador_document(period)
        game = document.game()
        induced = minimal_winning_coalitions(game)
        header = f"{document.label}  {game}"
        count = f"minimal winning coalitions: {len(induced.mwc)}"
        blocks.append("\n".join([header, count, _render_vectors(document, args)]))
    print("\n\n".join(blocks))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmpower",
        description="exact power indices and merging for weighted majority games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    power = sub.add_parser("power", help="compute power indices for a game document")
    power.add_argument("--game", required=True, help="game document (JSON)")
    power.add_argument(
        "--index",
        type=_index_list,
        default=list(INDEX_FUNCTIONS),
        help="comma-separated index names (default: all)",
    )
    power.add_argument("--digits", type=_int_at_least(1), default=4)
    power.add_argument("--exact", action="store_true", help="also print exact p/q values")
    power.add_argument("--format", choices=("table", "csv", "json"), default="table")
    power.set_defaults(handler=cmd_power)

    mwc = sub.add_parser("mwc", help="list the minimal winning coalitions of a game")
    mwc.add_argument("--game", required=True, help="game document (JSON)")
    mwc.set_defaults(handler=cmd_mwc)

    merge = sub.add_parser("merge", help="check mergeability and print the union game")
    merge.add_argument("games", nargs="+", metavar="FILE", help="game documents (JSON)")
    merge.add_argument(
        "--check-only", action="store_true", help="print the report, skip the union"
    )
    merge.set_defaults(handler=cmd_merge)

    axioms = sub.add_parser("axioms", help="run an axiom suite for one index")
    axioms.add_argument("--index", type=_single_index, required=True)
    axioms.add_argument("--suite", choices=("thm1", "thm2", "classic"), required=True)
    axioms.add_argument(
        "--games",
        default="builtin",
        help="'builtin' or a directory of game documents",
    )
    axioms.add_argument(
        "--samples", type=_int_at_least(0), default=0, help="extra random games"
    )
    axioms.add_argument("--seed", type=int, default=0, help="seed for --samples")
    axioms.set_defaults(handler=cmd_axioms)

    demo = sub.add_parser("demo", help="reproduce the bundled parliament tables")
    demo.add_argument("topic", choices=("ecuador",))
    demo.add_argument(
        "--period", choices=(*ECUADOR_PERIODS, "all"), default="all"
    )
    demo.add_argument(
        "--index",
        type=_index_list,
        default=["ss", "dp", "pg", "cm", "hcm"],
        help="comma-separated index names",
    )
    demo.add_argument("--digits", type=_int_at_least(1), default=4)
    demo.add_argument("--exact", action="store_true")
    demo.add_argument("--format", choices=("table", "csv", "json"), default="table")
    demo.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GameError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - last-resort guard for exit code 1
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
