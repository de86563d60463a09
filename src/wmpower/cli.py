"""Command-line surface: power tables, mwc listings, merging, axiom suites, demos.

Exit codes: 0 on success, 2 on validation failures (bad flags, malformed or
invalid game documents, names that stdout's encoding cannot carry), 1 on
internal errors and when the reader of stdout closes the pipe early.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

import wmpower

from .errors import GameError, PlayerCountMismatch
from .games import ECUADOR_PERIODS, GameDocument, ecuador_document, load_game
from .games import minimal_winning_coalitions, mwc_count


class _Names:
    """This module's globals as attributes; a name of the package is bound on first read.

    A command compiles only the modules it runs, so each handler reads the
    names outside ``games`` through ``_names``, the one instance, and the module's
    ``__getattr__`` is its method. A name already set on this module (a
    wrapper installed from outside, as a traced run does) wins, and the
    handlers call it; otherwise the name is imported from the package and
    kept as a global. It reads ``globals()``, not ``sys.modules``: under
    ``python -m cProfile``, ``sys.modules["__main__"]`` is the profiler's.
    """

    def __getattr__(self, name):
        if name not in globals():
            if name not in wmpower._HOMES:
                raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
            globals()[name] = getattr(wmpower, name)
        return globals()[name]


_names = _Names()
__getattr__ = _names.__getattr__


def _usage_error(message: str) -> Exception:
    """The error an argument type raises, which argparse reports as a usage error."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _index_list(text: str) -> list[str]:
    keys = [part.strip().lower() for part in text.split(",") if part.strip()]
    if not keys:
        raise _usage_error("no index names given")
    for key in keys:
        if key not in _names.INDEX_FUNCTIONS:
            raise _usage_error(
                f"unknown index {key!r}; choose from {', '.join(_names.INDEX_FUNCTIONS)}"
            )
    return keys


def _single_index(text: str) -> str:
    keys = _index_list(text)
    if len(keys) != 1:
        raise _usage_error("expected exactly one index name")
    return keys[0]


def _int_at_least(low: int):
    """An argument type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _usage_error(f"not an integer: {text!r}") from None
        if value < low:
            raise _usage_error(f"must be at least {low}, got {value}")
        return value

    return parse


def _render_vectors(document: GameDocument, args) -> str:
    game = document.game()
    # power's --index defaults to None: every index, in the table's order.
    vectors = [_names.INDEX_FUNCTIONS[key](game) for key in args.index or _names.INDEX_FUNCTIONS]
    return _names.render_table(
        vectors,
        document.players,
        fmt=args.format,
        digits=args.digits,
        exact=args.exact,
    )


def _mwc_line(names):
    """A function from an mwc mask to its line ``  {name, ...}``, in player order."""
    # For each 8-player chunk, the names of its members, indexed by its bits.
    chunks = [names[low : low + 8] for low in range(0, len(names), 8)]
    tables = [
        [
            tuple(name for k, name in enumerate(chunk) if bits >> k & 1)
            for bits in range(1 << len(chunk))
        ]
        for chunk in chunks
    ]

    def line(mask: int) -> str:
        members: list[str] = []
        for table in tables:
            members += table[mask & 255]
            mask >>= 8
        return "  {" + ", ".join(members) + "}\n"

    return line


def cmd_power(args) -> int:
    document = load_game(args.game)
    print(_render_vectors(document, args))
    return 0


def cmd_mwc(args) -> int:
    document = load_game(args.game)
    label = document.label or "game"
    # Encode the names as stdout will, so that one it cannot carry (exit 2)
    # stops the listing before its first line. A StringIO has no encoding.
    if encoding := sys.stdout.encoding:
        for text in (label, *document.players):
            text.encode(encoding, sys.stdout.errors)
    game = document.game()
    masks = minimal_winning_coalitions(game).masks
    print(f"{label} {game}")
    plural = "s" if len(masks) != 1 else ""
    print(f"{len(masks)} minimal winning coalition{plural}:")
    line = _mwc_line(document.players)
    for start in range(0, len(masks), 4096):
        sys.stdout.write("".join(map(line, masks[start : start + 4096])))
    return 0


def cmd_merge(args) -> int:
    games = [load_game(path).game() for path in args.games]
    try:
        report = _names.check_wm_mergeability(games)
    except PlayerCountMismatch as err:  # name the first document of another size
        err.args = (f"{args.games[err.index]}: {err}",)
        raise
    for line in report.describe():
        print(line)
    if report.overall and not args.check_only:
        print(f"union: {report.union}")
    return 0


def cmd_axioms(args) -> int:
    from .axioms import run_axioms

    return run_axioms(_names, args)


def cmd_demo(args) -> int:
    periods = ECUADOR_PERIODS if args.period == "all" else [args.period]
    blocks = []
    for period in periods:
        document = ecuador_document(period)
        game = document.game()
        header = f"{document.label}  {game}"
        count = f"minimal winning coalitions: {mwc_count(game)}"
        blocks.append("\n".join([header, count, _render_vectors(document, args)]))
    print("\n\n".join(blocks))
    return 0


_FORMATS = ("table", "csv", "json")
_GAME = ("--game", dict(required=True, help="game document (JSON)"))

# The grammar of the command line, read by both parsers. Per command: its
# handler, its help, and each argument's name and add_argument keywords. A
# command has at most one positional argument (_read_common assumes so).
COMMANDS = {
    "power": (cmd_power, "compute power indices for a game document", (
        _GAME,
        ("--index", dict(type=_index_list, help="comma-separated index names (default: all)")),
        ("--digits", dict(type=_int_at_least(1), default=4)),
        ("--exact", dict(action="store_true", help="also print exact p/q values")),
        ("--format", dict(choices=_FORMATS, default="table")),
    )),
    "mwc": (cmd_mwc, "list the minimal winning coalitions of a game", (_GAME,)),
    "merge": (cmd_merge, "check mergeability and print the union game", (
        ("games", dict(nargs="+", metavar="FILE", help="game documents (JSON)")),
        ("--check-only", dict(action="store_true", help="print the report, skip the union")),
    )),
    "axioms": (cmd_axioms, "run an axiom suite for one index", (
        ("--index", dict(type=_single_index, required=True)),
        ("--suite", dict(choices=("thm1", "thm2", "classic"), required=True)),
        ("--games", dict(default="builtin", help="'builtin' or a directory of game documents")),
        ("--samples", dict(type=_int_at_least(0), default=0, help="extra random games")),
        ("--seed", dict(type=int, default=0, help="seed for --samples")),
    )),
    "demo": (cmd_demo, "reproduce the bundled parliament tables", (
        ("topic", dict(choices=("ecuador",))),
        ("--period", dict(choices=(*ECUADOR_PERIODS, "all"), default="all")),
        ("--index", dict(
            type=_index_list, default=["ss", "dp", "pg", "cm", "hcm"],
            help="comma-separated index names",
        )),
        ("--digits", dict(type=_int_at_least(1), default=4)),
        ("--exact", dict(action="store_true")),
        ("--format", dict(choices=_FORMATS, default="table")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of COMMANDS: the source of help, usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="wmpower",
        description="exact power indices and merging for weighted majority games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, arguments) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, spec in arguments:
            command_parser.add_argument(name, **spec)
        command_parser.set_defaults(handler=handler)
    return parser


def _read_common(argv) -> SimpleNamespace | None:
    """The namespace argparse would return for argv, if argv has the common form.

    The common form is a command, then its flags spelled in full, each at most
    once, with each value in a token of its own that does not start with '-',
    and its positionals in one run. Every required argument is present and
    every value passes its type and choices. Any other argv (help,
    abbreviations, --flag=value, '--', negative numbers, and every usage
    error) gives None, and is left to argparse, so that argparse alone writes
    help and errors.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, arguments = COMMANDS[argv[0]]
    specs = dict(arguments)
    given: dict[str, list[str]] = {}  # argument name -> its value tokens
    loose: list[int] = []  # the positions of positional tokens
    tokens = enumerate(argv[1:], 1)
    for k, token in tokens:
        if not token.startswith("-"):
            loose.append(k)
        elif token not in specs or token in given:
            return None
        elif specs[token].get("action") == "store_true":
            given[token] = []
        else:
            _, value = next(tokens, (None, "-"))
            if value.startswith("-"):
                return None
            given[token] = [value]
    if loose:
        positional = [name for name, _ in arguments if not name.startswith("-")]
        if not positional or loose[-1] - loose[0] != len(loose) - 1:
            return None
        given[positional[0]] = [argv[k] for k in loose]
    values = {"command": argv[0], "handler": handler}
    for name, spec in arguments:
        dest = name.lstrip("-").replace("-", "_")
        store_true = spec.get("action") == "store_true"
        if name not in given:
            if spec.get("required", not name.startswith("-")):
                return None
            values[dest] = spec.get("default", False if store_true else None)
        elif store_true:
            values[dest] = True
        elif len(given[name]) > 1 and spec.get("nargs") != "+":
            return None
        else:
            try:
                parsed = [spec.get("type", str)(text) for text in given[name]]
            except Exception:  # argparse reports it, or raises it, on its own pass
                return None
            if "choices" in spec and any(value not in spec["choices"] for value in parsed):
                return None
            values[dest] = parsed if spec.get("nargs") == "+" else parsed[0]
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_common(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The reader of stdout went away (as with `| head`): stop quietly, and
        # send what is still buffered to devnull so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GameError, OSError, UnicodeEncodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - last-resort guard for exit code 1
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


def run() -> None:
    code = main()
    # The process ends here, so the interpreter's shutdown collections need not
    # walk what lives now. main() never freezes: in-process callers keep a
    # normal collector.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
