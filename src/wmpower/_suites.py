"""The ``axioms`` command's runner, imported by that command only.

It calls the checks, decompositions, sampler and loaders it needs through the
cli module it is handed, so a name replaced there is the one run.
"""

from __future__ import annotations

import functools
import os

from .datasets import ECUADOR_PERIODS
from .errors import GameError
from .games import WeightedMajorityGame, mwc_count


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
    games.extend(cli.ecuador_document(period).game() for period in ECUADOR_PERIODS)
    return games


def _load_games_dir(cli, path: str) -> list:
    if not os.path.isdir(path):
        raise GameError(f"{path!r} is not a directory of game documents")
    files = sorted(name for name in os.listdir(path) if name.endswith(".json"))
    if not files:
        raise GameError(f"no *.json game documents found in {path!r}")
    return [cli.load_game(os.path.join(path, name)).game() for name in files]


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


def _run_weighted_suite(cli, f, axiom_name, pair_check, games) -> list[tuple[str, bool]]:
    mwc_counts = [mwc_count(g) for g in games]
    families = [cli.single_mwc_decomposition(g) for g, m in zip(games, mwc_counts) if m >= 2]
    single = [g for g, m in zip(games, mwc_counts) if m == 1]
    single.extend(g for family in families for g in family)
    family_outcomes = [
        (" + ".join(str(g) for g in family), pair_check(f, family))
        for family in families
    ]
    return [
        _report_each("SYMw", cli.check_symw, f, single, "single-mwc games"),
        _report_axiom(axiom_name, family_outcomes, "families"),
    ]


def _run_classic_suite(cli, f, games) -> list[tuple[str, bool]]:
    lines = [_report_each("SYM", cli.check_sym, f, games, "games")]
    # Pairs of games of one size; a game lists its mwcs (once, cached on it)
    # only if it is in a pair.
    pairs = [
        (a, b) for k, a in enumerate(games) for b in games[k + 1 :] if a.n_players == b.n_players
    ]
    tra = [(f"pair {k}", cli.check_tra(f, a, b)) for k, (a, b) in enumerate(pairs)]
    lines.append(_report_axiom("TRA", tra, "pairs"))
    mergeable_pairs = [(a, b) for a, b in pairs if cli.simple_mergeable(a, b)]
    dpm = [(f"pair {k}", cli.check_dpm(f, a, b)) for k, (a, b) in enumerate(mergeable_pairs)]
    pgm = [(f"pair {k}", cli.check_pgm(f, a, b)) for k, (a, b) in enumerate(mergeable_pairs)]
    lines.append(_report_axiom("DPM", dpm, "mergeable pairs"))
    lines.append(_report_axiom("PGM", pgm, "mergeable pairs"))
    return lines


def run_axioms(cli, index, args) -> int:
    """Print the verdict of each axiom of ``args.suite`` for ``index`` on the chosen games."""
    # Each game's vector is computed once and shared by every axiom line.
    f = functools.cache(index)
    if args.games == "builtin":
        games = _builtin_fixture_games(cli)
    else:
        games = _load_games_dir(cli, args.games)
    if args.samples:
        import random

        rng = random.Random(args.seed)
        games = games + [cli.random_weighted_game(rng) for _ in range(args.samples)]
    print(f"index: {args.index}  suite: {args.suite}  games: {len(games)}")
    lines = [
        _report_each("EFF", cli.check_eff, f, games, "games"),
        _report_each("NP", cli.check_np, f, games, "games"),
    ]
    if args.suite == "classic":
        lines += _run_classic_suite(cli, f, games)
    else:
        pair_axiom = {"thm1": ("DPMw", cli.check_dpmw), "thm2": ("HCMw", cli.check_hcmw)}
        lines += _run_weighted_suite(cli, f, *pair_axiom[args.suite], games)
    for text, _ in lines:
        print(text)
    satisfied = [text.split()[0] for text, ok in lines if ok]
    print(f"satisfied on this evidence: {', '.join(satisfied) if satisfied else 'none'}")
    return 0
