"""Command-line surface: power tables, mwc listings, merging, axiom suites, demos.

Exit codes: 0 on success, 2 on validation failures (bad flags, malformed or
invalid game documents), 1 on internal errors and when the reader of stdout
closes the pipe early.
"""

from __future__ import annotations

import argparse
import os
import sys

import wmpower

from .datasets import ECUADOR_PERIODS, ecuador_document
from .documents import GameDocument, load_game
from .errors import GameError
from .games import minimal_winning_coalitions

# Names imported on first use (through the package's lazy table), so that a
# command compiles only the modules it runs. A name becomes a global when first
# read as an attribute or bound by a handler; one already bound (a wrapper
# installed from outside) stays, and the handlers call it. No handler calls
# wm_union: bench/traced_cli.py spans that name.
_LAZY = (
    *(f"check_{a}" for a in ("eff", "np", "sym", "symw", "tra", "dpm", "pgm", "dpmw", "hcmw")),
    "check_wm_mergeability",
    "single_mwc_decomposition",
    "simple_mergeable",
    "wm_union",
    "random_weighted_game",
    "INDEX_FUNCTIONS",
    "render_table",
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
    _bind("INDEX_FUNCTIONS")
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
    _bind("INDEX_FUNCTIONS", "render_table")
    game = document.game()
    # power's --index defaults to None: every index, in the table's order.
    vectors = [INDEX_FUNCTIONS[key](game) for key in args.index or INDEX_FUNCTIONS]
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


def cmd_axioms(args) -> int:
    if args.suite == "classic" and args.index in ("cm", "hcm"):
        raise GameError(
            "the classic suite evaluates the index on simple games; "
            "cm and hcm need weights, use suite thm1 or thm2"
        )
    from ._suites import run_axioms

    _bind("INDEX_FUNCTIONS")
    # The runner calls wmpower through this module's attributes, so a
    # replacement set on them is the one run.
    return run_axioms(sys.modules[__name__], INDEX_FUNCTIONS[args.index], args)


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
    except BrokenPipeError:
        # The reader of stdout went away (as with `| head`): stop quietly, and
        # send what is still buffered to devnull so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GameError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - last-resort guard for exit code 1
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
