"""Traced run of ``python -m wmpower.cli``, used by the benchmark's traced run.

Usage: python bench/traced_cli.py SPANS.json CLI-ARGS...

It wraps in spans the public wmpower functions that wmpower.cli calls, under
the names the cli module bound them to, and then runs wmpower.cli.main on
CLI-ARGS. So the CLI's own handlers run, and the standard output and exit
code are the CLI's; the benchmark still checks that. Spans stay in memory and
are written to SPANS.json as the process ends.

Enumeration of minimal winning coalitions is spanned at its single point,
WeightedMajorityGame.induced_simple_game (span ``games.mwc``), and nests
inside the span of whatever call triggered it, so the self times of index,
merging and axiom spans exclude it. After the op's root span, a probe
rebuilds ``SimpleGame`` from every mwc tuple the op emitted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import wmpower.cli as cli
from wmpower.games import SimpleGame, WeightedMajorityGame

# cli-module name -> span name
SPANS = {
    "load_game": "documents.load_game",
    "ecuador_document": "datasets.ecuador_document",
    "simple_mergeable": "games.simple_mergeable",
    "wm_union": "merging.wm_union",
    "single_mwc_decomposition": "merging.single_mwc_decomposition",
    "random_weighted_game": "sampling.random_weighted_game",
    "render_table": "tables.render_table",
    **{
        f"check_{a}": f"axioms.check_{a}"
        for a in ("eff", "np", "sym", "symw", "tra", "dpm", "pgm", "dpmw", "hcmw")
    },
}


class Tracer:
    """Spans of one op: name, start, end and parent, plus per-span counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.probes: list[SimpleGame] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """fn inside a span; annotate(record, args, result) adds counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate:
                    annotate(record, args, result)
                return result

        return traced


def install(t: Tracer) -> None:
    """Replace the cli module's wmpower functions, and mwc enumeration, by traced ones."""
    for attr, name in SPANS.items():
        setattr(cli, attr, t.wrap(name, getattr(cli, attr)))

    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = t.wrap("cli.parse_args", parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser

    def players(record, args, result):
        record["players"] = args[0].n_players

    for key, fn in cli.INDEX_FUNCTIONS.items():
        cli.INDEX_FUNCTIONS[key] = t.wrap(f"indices.{key}", fn, players)

    def mergeability(record, args, report):
        record["name"] = "merging.check_mergeable" if report.overall else "merging.check_nonmergeable"
        record["union_mwc"] = report.union_mwc_count
        record["component_mwc"] = report.component_mwc_count

    cli.check_wm_mergeability = t.wrap(
        "merging.check_wm_mergeability", cli.check_wm_mergeability, mergeability
    )

    def emitted(record, args, induced):
        record["emitted"] = len(induced.mwc)
        t.probes.append(induced)

    enumerate_mwc = WeightedMajorityGame.__dict__["induced_simple_game"].func
    prop = functools.cached_property(t.wrap("games.mwc", enumerate_mwc, emitted))
    prop.__set_name__(WeightedMajorityGame, "induced_simple_game")
    WeightedMajorityGame.induced_simple_game = prop


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = Tracer()
    install(t)
    try:
        with t.span("op"):
            code = cli.main(argv)
        sys.stdout.flush()
        for induced in t.probes:
            with t.span("probe.simple_game_build"):
                SimpleGame(induced.n_players, induced.mwc)
    finally:
        Path(spans_path).write_text(json.dumps(t.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
