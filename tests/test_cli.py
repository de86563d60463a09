import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from make_golden import run_case
from strategies import weighted_games
from wmpower import (
    INDEX_FUNCTIONS,
    SimpleGame,
    WeightedMajorityGame,
    cli,
    ecuador_document,
    simple_intersection,
    simple_union,
)
from wmpower.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC.parent / "bench" / "data"


def write_game(tmp_path, name, quota, weights, players=None):
    obj = {"quota": str(quota), "weights": [str(w) for w in weights]}
    if players:
        obj["players"] = list(players)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def reciprocal_weights():
    # Four weights 1/r for odd 1500-digit r: each prints, but their total
    # (a denominator of about 6000 digits) does not.
    rng = random.Random(7)
    return [Fraction(1, rng.randrange(10**1499, 10**1500) | 1) for _ in range(4)]


def run_cli(*argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "wmpower.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def reference_game(tmp_path):
    return write_game(tmp_path, "ref.json", 51, (50, 46, 4, 1), "WXYZ")


class TestPower:
    def test_table_output(self, reference_game, capsys):
        assert main(["power", "--game", reference_game, "--index", "cm,hcm"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["index", "W", "X", "Y", "Z"]
        assert lines[1].split() == ["CM", "0.6068", "0.3453", "0.0381", "0.0098"]
        assert lines[2].split() == ["HCM", "0.5952", "0.3651", "0.0317", "0.0079"]

    def test_json_output_with_exact(self, reference_game, capsys):
        assert (
            main(
                [
                    "power",
                    "--game",
                    reference_game,
                    "--index",
                    "pg",
                    "--format",
                    "json",
                    "--exact",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["indices"][0]["exact"] == ["1/3", "2/9", "2/9", "2/9"]

    def test_csv_output(self, reference_game, capsys):
        assert (
            main(
                ["power", "--game", reference_game, "--index", "ss", "--format", "csv"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "SS,0.5000,0.1667,0.1667,0.1667"

    def test_defaults_to_all_indices(self, reference_game, capsys):
        assert main(["power", "--game", reference_game]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert list(cli.INDEX_FUNCTIONS) == ["ss", "bz", "dp", "pg", "cm", "hcm"]
        assert rows == [key.upper() for key in cli.INDEX_FUNCTIONS]

    def test_help_text(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc_info:
            main(["power", "--help"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out == (
            "usage: wmpower power [-h] --game GAME [--index INDEX] [--digits DIGITS]\n"
            "                     [--exact] [--format {table,csv,json}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --game GAME           game document (JSON)\n"
            "  --index INDEX         comma-separated index names (default: all)\n"
            "  --digits DIGITS\n"
            "  --exact               also print exact p/q values\n"
            "  --format {table,csv,json}\n"
        )

    def test_missing_file_is_validation_failure(self, capsys):
        assert main(["power", "--game", "/does/not/exist.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_game_is_validation_failure(self, tmp_path, capsys):
        path = write_game(tmp_path, "bad.json", 0, (1, 1))
        assert main(["power", "--game", path]) == 2
        assert "quota" in capsys.readouterr().err

    def test_unknown_index_is_usage_error(self, reference_game):
        with pytest.raises(SystemExit) as exc_info:
            main(["power", "--game", reference_game, "--index", "xx"])
        assert exc_info.value.code == 2

    def test_dictator_gets_everything(self, tmp_path, capsys):
        path = write_game(tmp_path, "dictator.json", 1, (1, 0, 0))
        assert main(["power", "--game", path, "--index", "pg"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[1:] == [
            "1.0000", "0.0000", "0.0000",
        ]


    def test_unprintable_exact_values_are_validation_failure(self, tmp_path, capsys):
        weights = reciprocal_weights()
        total = sum(weights)
        # Just below the total, so only the grand coalition wins and each CM
        # value is w_i/total, which does not print exactly.
        quota = Fraction(math.floor(total * 10**1510), 10**1510)
        path = write_game(tmp_path, "recip.json", quota, weights)
        assert main(["power", "--game", path, "--index", "cm"]) == 0
        capsys.readouterr()
        assert main(["power", "--game", path, "--index", "cm", "--exact"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:")

    def test_unprintable_digits_are_validation_failure(self, reference_game, capsys):
        assert main(["power", "--game", reference_game, "--digits", "5000"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_huge_digits_are_refused_at_once(self, reference_game):
        # The long division alone for 10**7 digits would run for seconds.
        result = run_cli(
            "power", "--game", reference_game, "--index", "pg", "--digits", "10000000",
            timeout=5,
        )
        assert result.returncode == 2
        assert not result.stdout
        assert result.stderr.startswith("error: digits must be at most")


class TestMwc:
    def test_lists_coalitions_with_names(self, tmp_path, capsys):
        path = write_game(tmp_path, "g.json", 4, (3, 2, 1), ("A", "B", "C"))
        assert main(["mwc", "--game", path]) == 0
        out = capsys.readouterr().out
        assert "2 minimal winning coalitions:" in out
        assert "{A, B}" in out
        assert "{A, C}" in out

    def test_non_utf8_document_is_validation_failure(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = '{"quota": "1", "weights": ["1"], "players": ["Bogotá"]}'
        path.write_bytes(text.encode("latin-1"))
        assert main(["mwc", "--game", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_document_is_validation_failure(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["mwc", "--game", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        [
            '{"quota": "1e999999", "weights": ["1"]}',
            '{"quota": "3", "weights": ["1e5000", "1"]}',
            '{"quota": 1' + "0" * 5000 + ', "weights": ["1"]}',
            '{"quota": "1", "weights": ["1"], "metadata": {"label": {"x": [1, 2]}, "date": 5}}',
        ],
        ids=["huge-quota", "huge-weight", "huge-json-int", "non-string-metadata"],
    )
    def test_unprintable_or_mistyped_document_is_validation_failure(
        self, tmp_path, capsys, text
    ):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["mwc", "--game", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["mwc", "power"])
    @pytest.mark.parametrize(
        "fields",
        [{"players": ["A", "\ud800"]}, {"metadata": {"label": "\udc80"}}],
        ids=["name", "label"],
    )
    def test_lone_surrogate_is_refused_before_any_output(
        self, tmp_path, capsys, command, fields
    ):
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps({"quota": "1", "weights": ["1", "1"], **fields}))
        assert main([command, "--game", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_lone_surrogate_exits_2_with_a_strict_stdout(self, tmp_path):
        path = write_game(tmp_path, "surrogate.json", 1, (1, 1), ("A", "\ud800"))
        result = subprocess.run(
            [sys.executable, "-m", "wmpower.cli", "mwc", "--game", path],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8:strict"),
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout == b""
        message = f"error: {path}: names and metadata must be UTF-8 text"
        assert result.stderr.startswith(message.encode())

    @pytest.mark.parametrize("command", ["mwc", "power"])
    def test_name_stdout_cannot_encode_exits_2(self, tmp_path, command):
        # power prints its table in one write, which fails whole; mwc encodes
        # every name before its header lines.
        path = write_game(tmp_path, "umlaut.json", 1, (1, 1), ("A", "\u00c4"))
        result = subprocess.run(
            [sys.executable, "-m", "wmpower.cli", command, "--game", path],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="ascii:strict"),
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.startswith(b"error: 'ascii' codec can't encode")
        assert result.stdout == b""

    @pytest.mark.parametrize(
        "argv", [["power", "--game", "a\x00"], ["merge", "\x00", "b"]], ids=["power", "merge"]
    )
    def test_nul_in_a_game_path_exits_2(self, capsys, argv):
        # open() refuses the path with a ValueError, which is bad input.
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unprintable_total_weight_is_validation_failure(self, tmp_path, capsys):
        path = write_game(tmp_path, "recip.json", 10, reciprocal_weights())
        assert main(["mwc", "--game", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: the total weight is below")

    def test_closed_pipe_ends_quietly_with_exit_1(self, tmp_path):
        # 11,440 mwcs, about 0.5 MB: more than a pipe buffers, so the CLI is
        # still writing when the reader closes its end.
        game = write_game(tmp_path, "g.json", 9, [1] * 16)
        with subprocess.Popen(
            [sys.executable, "-m", "wmpower.cli", "mwc", "--game", game],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline().startswith(b"game [9; 1, 1,")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""

    def test_huge_exponent_is_refused_at_once(self, tmp_path):
        # Fraction("1e60000000") alone would run for minutes.
        path = write_game(tmp_path, "exp.json", "1e60000000", (1,))
        result = run_cli("mwc", "--game", path, timeout=10)
        assert result.returncode == 2
        assert not result.stdout
        assert result.stderr.startswith("error:")


# Names with the characters the listing itself writes, and non-ASCII text.
player_names = st.text(st.sampled_from(", {}é€日") | st.characters(codec="utf-8"), max_size=4)


@st.composite
def sparse_named_games(draw):
    """Up to 24 players, at most 7 of them with weight: every 8-player chunk can hold members."""
    n = draw(st.integers(1, 24))
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=7, unique=True))
    weights = [0] * n
    for i in support:
        weights[i] = draw(st.integers(1, 9))
    quota = draw(st.integers(1, sum(weights)))
    names = draw(st.lists(player_names, min_size=n, max_size=n))
    return WeightedMajorityGame(quota, weights), support, names


@given(sparse_named_games())
@settings(max_examples=80, deadline=None)
def test_mwc_listing_names_each_mwc_in_canonical_order(case):
    game, support, names = case
    doc = {"quota": str(game.quota), "weights": [str(w) for w in game.weights], "players": names}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w", encoding="utf-8") as file:
            json.dump(doc, file)
        with contextlib.redirect_stdout(out):
            assert main(["mwc", "--game", path]) == 0
    # Zero-weight players are in no mwc, so the subsets of the support suffice.
    winning = [
        frozenset(c)
        for size in range(len(support) + 1)
        for c in itertools.combinations(support, size)
        if oracles.winning_by_definition(game, c)
    ]
    mwcs = sorted(
        oracles.minimal_by_definition(winning), key=lambda s: (len(s), sum(1 << i for i in s))
    )
    plural = "s" if len(mwcs) != 1 else ""
    expected = [f"game {game}", f"{len(mwcs)} minimal winning coalition{plural}:"]
    expected += ["  {" + ", ".join(names[i] for i in sorted(s)) + "}" for s in mwcs]
    assert out.getvalue() == "".join(line + "\n" for line in expected)


class TestMerge:
    def test_mergeable_pair_prints_union(self, tmp_path, capsys):
        a = write_game(tmp_path, "a.json", 4, (3, 2, 0))
        b = write_game(tmp_path, "b.json", 4, (3, 0, 1))
        assert main(["merge", a, b]) == 0
        out = capsys.readouterr().out
        assert "WM-mergeable: yes" in out
        assert "union: [4; 3, 2, 1]" in out

    def test_check_only_suppresses_union(self, tmp_path, capsys):
        a = write_game(tmp_path, "a.json", 4, (3, 2, 0))
        b = write_game(tmp_path, "b.json", 4, (3, 0, 1))
        assert main(["merge", a, b, "--check-only"]) == 0
        assert "union:" not in capsys.readouterr().out

    def test_non_mergeable_pair_reports_failed_condition(self, tmp_path, capsys):
        a = write_game(tmp_path, "a.json", 5, (1, 2, 3))
        b = write_game(tmp_path, "b.json", 6, (1, 4, 5))
        assert main(["merge", a, b]) == 0
        out = capsys.readouterr().out
        assert "condition 1 (equal quotas): FAIL" in out
        assert "WM-mergeable: no" in out
        assert "union:" not in out

    def test_mismatched_player_counts(self, tmp_path, capsys):
        a = write_game(tmp_path, "a.json", 2, (1, 1))
        b = write_game(tmp_path, "b.json", 2, (1, 1, 1))
        assert main(["merge", a, b]) == 2

    def test_player_count_mismatch_names_the_document(self, tmp_path, capsys):
        a2 = write_game(tmp_path, "a2.json", 2, (1, 1))
        a3 = write_game(tmp_path, "a3.json", 2, (1, 1, 1))
        assert main(["merge", a2, a2, a3]) == 2
        assert capsys.readouterr().err == f"error: {a3}: player counts differ: 2 vs 3\n"

    def test_single_file_is_validation_failure(self, tmp_path, capsys):
        a = write_game(tmp_path, "a.json", 2, (1, 1))
        assert main(["merge", a]) == 2
        assert "two games" in capsys.readouterr().err

    def test_bad_document_is_named(self, tmp_path, capsys):
        a = write_game(tmp_path, "a.json", 4, (3, 2, 0))
        b = write_game(tmp_path, "b.json", 4, (3, -1, 1))
        assert main(["merge", a, b]) == 2
        assert capsys.readouterr().err == f"error: {b}: weight of player 1 is negative (-1)\n"


# An axioms line: name, mark, passed/total, unit, and for FAIL the first failure.
AXIOM_LINE = re.compile(r"(\S+) +(PASS|FAIL|NONE)  (\d+)/(\d+) [^;]+(?:; first failure on (.+))?")


class TestAxioms:
    @pytest.mark.parametrize(
        ("index", "suite"), [("ss", "classic"), ("dp", "thm1"), ("hcm", "thm2")]
    )
    def test_index_evaluated_once_per_game(self, monkeypatch, capsys, index, suite):
        calls = Counter()
        base = cli.INDEX_FUNCTIONS[index]

        def counting(game):
            calls[game] += 1
            return base(game)

        monkeypatch.setitem(cli.INDEX_FUNCTIONS, index, counting)
        argv = ["axioms", "--index", index, "--suite", suite, "--samples", "6", "--seed", "3"]
        assert main(argv) == 0
        assert "satisfied on this evidence" in capsys.readouterr().out
        assert calls and set(calls.values()) == {1}

    def test_thm1_suite_for_cm(self, capsys):
        assert main(["axioms", "--index", "cm", "--suite", "thm1"]) == 0
        out = capsys.readouterr().out
        assert "satisfied on this evidence: EFF, NP, SYMw, DPMw" in out

    def test_thm1_suite_flags_hcm(self, capsys):
        assert main(["axioms", "--index", "hcm", "--suite", "thm1"]) == 0
        out = capsys.readouterr().out
        assert "DPMw  FAIL" in out

    def test_thm2_suite_for_hcm_with_samples(self, capsys):
        assert (
            main(
                [
                    "axioms",
                    "--index",
                    "hcm",
                    "--suite",
                    "thm2",
                    "--samples",
                    "15",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "satisfied on this evidence: EFF, NP, SYMw, HCMw" in out

    def test_classic_suite_for_ss(self, capsys):
        assert main(["axioms", "--index", "ss", "--suite", "classic"]) == 0
        out = capsys.readouterr().out
        assert "TRA   PASS" in out

    def test_classic_suite_on_many_zero_weights_finishes(self, tmp_path):
        # 21 zero-weight players: 210 symmetric pairs with equal SS values,
        # each a 2**22 walk if symmetry were asked before the values.
        write_game(tmp_path, "zeros.json", 3, (2, 2, 1) + (0,) * 21)
        result = run_cli(
            "axioms", "--index", "ss", "--suite", "classic", "--games", str(tmp_path),
            timeout=10,
        )
        assert result.returncode == 0, result.stderr
        assert "SYM   PASS  1/1 games" in result.stdout

    def test_classic_suite_on_one_weighted_game_lists_no_mwcs(
        self, tmp_path, monkeypatch, capsys
    ):
        # One game is in no same-size pair, and SS, its null players and its
        # symmetric pairs all read the swing tally: the EU Council's 561,645
        # mwcs are never listed.
        (tmp_path / "eu.json").write_text((DATA / "eu_council_nice.json").read_text())
        games = []
        load_game = cli.load_game

        def recorded(path):
            document = load_game(path)
            games.append(document.game())
            return document

        monkeypatch.setattr(cli, "load_game", recorded)
        argv = ["axioms", "--index", "ss", "--suite", "classic", "--games", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "index: ss  suite: classic  games: 1",
            "EFF   PASS  1/1 games",
            "NP    PASS  1/1 games",
            "SYM   PASS  1/1 games",
            "TRA   NONE  0/0 pairs",
            "DPM   NONE  0/0 mergeable pairs",
            "PGM   NONE  0/0 mergeable pairs",
            "satisfied on this evidence: EFF, NP, SYM",
        ]
        assert len(games) == 1
        assert "induced_simple_game" not in games[0].__dict__

    @pytest.mark.parametrize("suite", ["classic", "thm1", "thm2"])
    @given(
        index=st.sampled_from(list(INDEX_FUNCTIONS)),
        games=st.lists(weighted_games(max_players=4), min_size=1, max_size=3),
    )
    # One game; two of different sizes; a mergeable pair that fails DPM and PGM under BZ.
    @example(index="dp", games=[WeightedMajorityGame(51, (50, 46, 4, 1))])
    @example(index="ss", games=[WeightedMajorityGame(*g) for g in ((4, (3, 2)), (4, (3, 2, 0)))])
    @example(index="bz", games=[WeightedMajorityGame(4, w) for w in ((2, 2, 1), (3, 0, 1))])
    @settings(max_examples=40, deadline=None)
    def test_each_line_is_judged_on_its_subjects(self, suite, index, games):
        # A line with no subject reads NONE and is never satisfied; a pair's
        # failure names its two games, which have one size.
        assume(suite != "classic" or index not in ("cm", "hcm"))
        with tempfile.TemporaryDirectory() as directory:
            for k, game in enumerate(games):
                write_game(Path(directory), f"g{k}.json", game.quota, game.weights)
            argv = ["axioms", "--index", index, "--suite", suite, "--games", directory]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0
        *lines, summary = out.getvalue().splitlines()[1:]
        pairs = {
            f"{a} + {b}"
            for k, a in enumerate(games)
            for b in games[k + 1 :]
            if a.n_players == b.n_players
        }
        passed_names = []
        for line in lines:
            name, mark, passed, total, failure = AXIOM_LINE.fullmatch(line).groups()
            passed, total = int(passed), int(total)
            if total == 0:
                assert mark == "NONE"
            elif passed == total:
                assert mark == "PASS"
                passed_names.append(name)
            else:
                assert mark == "FAIL"
            assert (failure is not None) == (mark == "FAIL")
            if mark == "FAIL" and name in ("TRA", "DPM", "PGM"):
                assert failure in pairs
        assert summary == f"satisfied on this evidence: {', '.join(passed_names) or 'none'}"

    @pytest.mark.parametrize("index", ["ss", "bz", "dp", "pg"])
    def test_classic_suite_reads_weighted_vectors_for_induced_games(
        self, tmp_path, monkeypatch, index
    ):
        # The checks take the weighted pair as it is, whose vectors are already
        # computed: the index runs on two simple games, the join and the meet.
        write_game(tmp_path, "a.json", 4, (3, 2, 0))
        write_game(tmp_path, "b.json", 4, (3, 0, 1))
        index_function = INDEX_FUNCTIONS[index]
        evaluated = []

        def recorded(game):
            evaluated.append(game)
            return index_function(game)

        monkeypatch.setitem(INDEX_FUNCTIONS, index, recorded)
        argv = ["axioms", "--index", index, "--suite", "classic", "--games", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert "/1 mergeable pairs" in out.getvalue()
        v, v_prime = (SimpleGame(3, mwc) for mwc in ([[0, 1]], [[0, 2]]))
        simple = [g for g in evaluated if isinstance(g, SimpleGame)]
        assert len(simple) == 2
        assert set(simple) == {simple_union(v, v_prime), simple_intersection(v, v_prime)}

    def test_classic_suite_rejects_weight_only_indices(self, capsys):
        assert main(["axioms", "--index", "cm", "--suite", "classic"]) == 2

    def test_games_directory(self, tmp_path, capsys):
        write_game(tmp_path, "a.json", 4, (3, 2, 0))
        write_game(tmp_path, "b.json", 51, (50, 46, 4, 1))
        assert (
            main(["axioms", "--index", "cm", "--suite", "thm1", "--games", str(tmp_path)])
            == 0
        )
        assert "games: 2" in capsys.readouterr().out

    def test_negative_samples_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["axioms", "--index", "dp", "--suite", "thm1", "--samples", "-3"])
        assert exc_info.value.code == 2
        assert "--samples: must be at least 0" in capsys.readouterr().err

    def test_empty_games_directory(self, tmp_path):
        assert (
            main(["axioms", "--index", "cm", "--suite", "thm1", "--games", str(tmp_path)])
            == 2
        )

    def test_bad_document_in_games_directory_is_named(self, tmp_path, capsys):
        for name in ("a.json", "b.json", "d.json"):
            write_game(tmp_path, name, 4, (3, 2, 0))
        bad = write_game(tmp_path, "c.json", 4, (3,), players=("A", "B"))
        argv = ["axioms", "--index", "dp", "--suite", "thm1", "--games", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: 2 player names for 1 weights\n"

    def test_games_file_is_not_a_directory(self, tmp_path, capsys):
        path = write_game(tmp_path, "a.json", 4, (3, 2, 0))
        assert main(["axioms", "--index", "dp", "--suite", "thm1", "--games", path]) == 2
        assert "is not a directory of game documents" in capsys.readouterr().err

    def test_two_indices_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["axioms", "--index", "ss,bz", "--suite", "classic"])
        assert exc_info.value.code == 2
        assert "expected exactly one index name" in capsys.readouterr().err


class TestDemo:
    def test_single_period_table(self, capsys):
        assert (
            main(
                [
                    "demo",
                    "ecuador",
                    "--period",
                    "may21",
                    "--index",
                    "ss,dp,pg,cm,hcm",
                    "--digits",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "National Assembly of Ecuador, May 2021" in out
        assert "minimal winning coalitions: 11" in out
        rows = {
            line.split()[0]: line.split()[1:]
            for line in out.splitlines()
            if line and line.split()[0] in ("SS", "DP", "PG", "CM", "HCM")
        }
        assert rows["SS"] == ["0.4000", "0.2000", "0.1000", "0.1000", "0.1000", "0.1000"]
        assert rows["CM"] == ["0.3954", "0.1675", "0.1271", "0.1271", "0.0881", "0.0948"]

    def test_all_periods(self, capsys):
        assert main(["demo", "ecuador", "--period", "all", "--index", "hcm"]) == 0
        out = capsys.readouterr().out
        for period in ("May", "June", "July", "12 October", "26 October", "December"):
            assert f"National Assembly of Ecuador, {period} 2021" in out

    def test_unknown_period_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["demo", "ecuador", "--period", "sep21"])
        assert exc_info.value.code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_console_entry_point_matches_module(self):
        # the documented invocation paths share one implementation
        from wmpower.cli import build_parser

        parser = build_parser()
        assert parser.prog == "wmpower"


# The argv shapes of the benchmark's workloads, the README and CI: the reader
# takes each of them without argparse.
WELL_FORMED = [
    ["power", "--game", "game.json"],
    ["power", "--game", "g.json", "--index", "ss,bz,dp,pg,cm,hcm", "--format", "table"],
    ["power", "--game", "g.json", "--index", "ss", "--format", "csv", "--digits", "3"],
    ["power", "--game", "g.json", "--index", "bz", "--format", "json", "--exact"],
    ["power", "--game", "g.json", "--index", "dp", "--format", "json", "--digits", "7", "--exact"],
    ["power", "--game", "g.json", "--index", "ss", "--exact", "--format", "json"],
    ["power", "--game", "g.json", "--index", "dp,hcm", "--format", "json"],
    ["power", "--game", "game.json", "--index", "ss,bz,dp,pg,cm,hcm", "--digits", "4",
     "--exact", "--format", "csv"],
    ["mwc", "--game", "game.json"],
    ["merge", "a.json", "b.json"],
    ["merge", "a.json", "b.json", "--check-only"],
    ["merge", *(f"c{k:02d}.json" for k in range(25))],
    ["axioms", "--index", "dp", "--suite", "thm1"],
    ["axioms", "--index", "hcm", "--suite", "thm2", "--samples", "3"],
    ["axioms", "--index", "ss", "--suite", "classic", "--samples", "20", "--seed", "437"],
    ["axioms", "--index", "cm", "--suite", "thm1", "--games", "games"],
    ["axioms", "--index", "pg", "--suite", "classic", "--games", "builtin", "--samples", "5",
     "--seed", "2"],
    ["demo", "ecuador"],
    ["demo", "ecuador", "--format", "csv", "--digits", "5"],
    ["demo", "ecuador", "--format", "json", "--digits", "8", "--exact"],
    ["demo", "ecuador", "--period", "oct26", "--format", "table"],
    ["demo", "ecuador", "--period", "may21", "--index", "ss,dp,pg,cm,hcm", "--digits", "4"],
    ["demo", "ecuador", "--period", "all", "--index", "hcm"],
]

# Per argument, values it takes; any argument may also draw from ANY_VALUE.
GOOD_VALUES = {
    "--game": ["a.json"],
    "--index": ["ss", "dp,pg,cm", "HCM"],
    "--digits": ["2", "8"],
    "--format": ["csv", "json"],
    "--suite": ["thm1", "classic"],
    "--games": ["builtin", "games"],
    "--samples": ["0", "20"],
    "--seed": ["7"],
    "--period": ["may21", "all"],
    "topic": ["ecuador"],
    "games": ["a.json", "b.json"],
}
ANY_VALUE = ["a.json", "ss,dp", "xx", ",", "0", " 3", "1e3", "-1", "table", "html", "all",
             "sep21", "builtin", "ecuador", "power", "a=b", "", "a\x00.json"]
HOSTILE = ["-h", "--help", "--", "-", "-5", "", "--ind", "--gam", "--ex", "--check",
           "--index=ss", "--game=a.json", "--digits=3", "--bogus", "-x", "frobnicate"]


@st.composite
def argvs(draw):
    """An argv built from the command table, then perhaps disturbed."""
    command = draw(st.sampled_from([*cli.COMMANDS, "frobnicate", "pow", "", "-h", "--help"]))
    arguments = cli.COMMANDS[command][2] if command in cli.COMMANDS else ()
    chunks = []
    for name, spec in arguments:
        values = st.sampled_from(GOOD_VALUES.get(name, ANY_VALUE)) | st.sampled_from(ANY_VALUE)
        if not draw(st.integers(0, 3)):
            continue  # left out, in one draw of four
        if not name.startswith("-"):
            run = draw(st.lists(values, min_size=1, max_size=3))
            cut = draw(st.integers(0, len(run)))  # a split positional run
            chunks += [run[:cut], run[cut:]] if draw(st.booleans()) else [run]
        elif spec.get("action") == "store_true":
            chunks.append([name])
        else:
            # Now and then twice, or without its value.
            for _ in range(1 + (draw(st.integers(0, 5)) == 0)):
                chunks.append([name] + ([draw(values)] if draw(st.integers(0, 9)) else []))
    argv = [command, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]
    for _ in range(draw(st.integers(0, 4)) // 3):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(HOSTILE)))
    return argv


def with_common_examples(test):
    for argv in WELL_FORMED:
        test = example(argv)(test)
    return test


@with_common_examples
@example(["demo", "ecuador", "ecuador"])
@example(["mwc", "--game"])
@example(["power", "--game", "--exact"])
@example(["power", "--game", "a.json", "--digits", "0", "--digits", "3"])
@example(["merge", "a.json", "--check-only", "b.json"])
@given(argvs())
@settings(max_examples=400, deadline=None)
def test_common_reader_agrees_with_argparse(argv):
    common = cli._read_common(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit:
            # Help and every usage error are argparse's to write.
            assert common is None
            return
    assert common is None or vars(common) == vars(parsed)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding the files the fuzzed argvs name: a.json, b.json and games/."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "games").mkdir()
    for name, weights in (("a.json", (3, 2, 0)), ("b.json", (3, 0, 1))):
        write_game(root, name, 4, weights)
        write_game(root / "games", name, 4, weights)
    return root


@with_common_examples
@given(argvs())
@settings(max_examples=300, deadline=None)
def test_every_argv_exits_0_or_2(fuzz_dir, argv):
    # run_case records argparse's SystemExit code as the exit.
    assert run_case(argv, fuzz_dir)["exit"] in (0, 2)


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_common_reader_takes_the_documented_shapes(argv):
    assert cli._read_common(argv) is not None
