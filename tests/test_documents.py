import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import rational_weighted_games
from wmpower import (
    ECUADOR_PERIODS,
    GameDocument,
    PowerIndexVector,
    WeightedMajorityGame,
    decimal_string,
    ecuador_document,
    ecuador_documents,
    format_rational,
    load_game,
    parse_game,
    parse_rational,
    render_table,
)
from wmpower.cli import main
from wmpower.errors import GameError, NonPositiveQuota, ParseError
from wmpower.games import exact as library_exact

F = Fraction


class TestParseRational:
    def test_plain_values(self):
        assert parse_rational(3) == F(3)
        assert parse_rational("3") == F(3)
        assert parse_rational("2/5") == F(2, 5)
        assert parse_rational(" 1/2 ") == F(1, 2)
        assert parse_rational("0.25") == F(1, 4)

    def test_rejections(self):
        with pytest.raises(ParseError):
            parse_rational(0.5)
        with pytest.raises(ParseError):
            parse_rational(True)
        with pytest.raises(ParseError):
            parse_rational("1/0")
        with pytest.raises(ParseError):
            parse_rational("abc")
        with pytest.raises(ParseError):
            parse_rational(None)
        # An exponent that is no integer leaves the exponent check at once.
        with pytest.raises(ParseError, match="malformed rational '1e5x'"):
            parse_rational("1e5x")

    def test_documents_and_library_share_one_coercion(self):
        assert parse_rational is library_exact

    def test_format_round_trip(self):
        for value in (F(3), F(-2, 7), F(70)):
            assert parse_rational(format_rational(value)) == value


class TestParseGame:
    def test_basic_document(self):
        doc = parse_game(
            json.dumps({"players": ["A", "B"], "quota": "3", "weights": ["2", "2"]})
        )
        assert doc.game() == WeightedMajorityGame(3, (2, 2))
        assert doc.players == ("A", "B")

    def test_game_is_built_once(self):
        doc = parse_game(json.dumps({"quota": "3", "weights": ["2", "2"]}))
        assert doc.game() is doc.game()

    def test_integer_weights_and_default_names(self):
        doc = parse_game(
            json.dumps({"quota": "70", "weights": [49, 27, 18, 18, 12, 13]})
        )
        assert doc.players == ("P1", "P2", "P3", "P4", "P5", "P6")
        assert doc.game() == ecuador_document("may21").game()

    def test_zero_quota_rejected(self):
        with pytest.raises(NonPositiveQuota):
            parse_game(json.dumps({"quota": "0", "weights": ["1", "1"]}))

    def test_malformed_documents(self):
        with pytest.raises(ParseError):
            parse_game("not json")
        with pytest.raises(ParseError):
            parse_game(json.dumps(["not", "an", "object"]))
        with pytest.raises(ParseError):
            parse_game(json.dumps({"weights": ["1"]}))
        with pytest.raises(ParseError):
            parse_game(json.dumps({"quota": "1"}))
        with pytest.raises(ParseError):
            parse_game(json.dumps({"quota": "1", "weights": ["1"], "players": [1]}))
        with pytest.raises(ParseError):
            parse_game(
                json.dumps({"quota": "1", "weights": ["1"], "players": ["A", "B"]})
            )
        with pytest.raises(ParseError):
            parse_game(json.dumps({"quota": "1", "weights": [0.5, 0.5]}))

    def test_metadata_round_trip(self):
        doc = GameDocument(
            quota=F(4),
            weights=(F(3), F(2), F(1)),
            players=("A", "B", "C"),
            label="triple",
            date="2021-01",
        )
        again = parse_game(doc.to_json())
        assert again == doc

    def test_constructor_keeps_the_games_values(self):
        # The constructor coerces as the game does, so a document built from
        # outside values equals its own round trip and hashes.
        doc = GameDocument("1/2", ("1", 2), ["A", "B"])
        assert (doc.quota, doc.weights, doc.players) == (F(1, 2), (F(1), F(2)), ("A", "B"))
        assert doc == parse_game(doc.to_json())
        assert hash(doc) == hash(parse_game(doc.to_json()))
        with pytest.raises(ParseError, match="^'players' must be a list of strings$"):
            GameDocument(1, (1, 1), ("A", 2))

    def test_metadata_fields_must_be_strings(self):
        for metadata in ({"label": {"x": [1, 2]}}, {"date": 5}):
            with pytest.raises(ParseError, match="must be a string"):
                parse_game(
                    json.dumps({"quota": "1", "weights": ["1"], "metadata": metadata})
                )

    def test_lone_surrogates_are_refused(self):
        for fields in (
            {"players": ["\ud800"]},
            {"metadata": {"label": "EU \udcff"}},
            {"metadata": {"date": "\ud83d"}},
        ):
            with pytest.raises(ParseError, match="must be UTF-8 text"):
                GameDocument.from_json_obj({"quota": "1", "weights": ["1"], **fields})

    def test_metadata_must_be_an_object_when_present(self):
        for metadata in ([], 0, "", False, [1]):
            with pytest.raises(ParseError, match="must be an object"):
                parse_game(
                    json.dumps({"quota": "1", "weights": ["1"], "metadata": metadata})
                )
        for obj in ({}, {"metadata": None}):
            doc = parse_game(json.dumps({"quota": "1", "weights": ["1"], **obj}))
            assert (doc.label, doc.date) == (None, None)

    def test_unprintable_rationals_rejected(self):
        for value in ("1e999999", "1e5000", 10**5000):
            with pytest.raises(ParseError, match="too long to print"):
                parse_rational(value)

    def test_load_game_file(self, tmp_path):
        path = tmp_path / "g.json"
        doc = ecuador_document("may21")
        path.write_text(doc.to_json())
        assert load_game(path) == doc

    @pytest.mark.parametrize(
        ("text", "error"),
        [('{"quota": "0", "weights": ["1"]}', NonPositiveQuota), ("[1]", ParseError)],
    )
    def test_load_game_names_the_path_and_keeps_the_class(self, tmp_path, text, error):
        path = tmp_path / "g.json"
        path.write_text(text)
        with pytest.raises(error) as info:
            load_game(path)
        assert type(info.value) is error
        assert str(info.value).startswith(f"{path}: ")
        assert str(info.value).count(str(path)) == 1


class TestEcuadorDatasets:
    def test_all_periods_present(self):
        docs = ecuador_documents()
        assert tuple(docs) == ECUADOR_PERIODS

    def test_every_composition_sums_to_137_seats(self):
        for doc in ecuador_documents().values():
            assert sum(doc.weights) == 137
            assert doc.quota == 70
            assert len(doc.players) == 6

    def test_bench_names(self):
        assert ecuador_document("may21").players == (
            "UNES", "MUPP", "ID", "PSC", "CREO", "IND",
        )
        assert ecuador_document("jun21").players == (
            "UNES", "MUPP", "BAN", "ID", "PSC", "IND",
        )

    def test_documents_round_trip(self):
        for doc in ecuador_documents().values():
            again = parse_game(doc.to_json())
            assert again == doc
            assert again.game() == doc.game()

    def test_unknown_period(self):
        with pytest.raises(GameError):
            ecuador_document("aug21")


class TestDecimalString:
    def test_reference_game_rows(self):
        from wmpower import colomer_martinez, hcm

        game = WeightedMajorityGame(51, (50, 46, 4, 1))
        assert [decimal_string(v) for v in colomer_martinez(game)] == [
            "0.6068", "0.3453", "0.0381", "0.0098",
        ]
        # 150/252 = 0.595238..., one ulp below the commonly quoted 0.5953
        assert [decimal_string(v) for v in hcm(game)] == [
            "0.5952", "0.3651", "0.0317", "0.0079",
        ]

    def test_truncation_cases(self):
        assert decimal_string(F(1, 3), 2) == "0.33"
        assert decimal_string(F(2, 3), 2) == "0.67"
        assert decimal_string(F(1), 4) == "1.0000"

    def test_round_half_even(self):
        assert decimal_string(F(5, 32), 4) == "0.1562"  # 0.15625 -> even digit 2
        assert decimal_string(F(7, 32), 4) == "0.2188"  # 0.21875 -> odd digit 7 bumps
        assert decimal_string(F(1, 8), 2) == "0.12"
        assert decimal_string(F(3, 8), 2) == "0.38"

    def test_negative_values(self):
        assert decimal_string(F(-1, 8), 2) == "-0.12"
        assert decimal_string(F(-2, 3), 4) == "-0.6667"

    def test_carry_across_the_point(self):
        assert decimal_string(F(9999, 10000), 3) == "1.000"

    def test_digits_must_be_positive(self):
        with pytest.raises(GameError):
            decimal_string(F(1, 2), 0)

    def test_digits_must_be_printable(self):
        # Refused at once: the long division alone would run for seconds.
        with pytest.raises(GameError, match="at most"):
            decimal_string(F(1, 3), 10**7)

    @given(st.fractions() | st.integers(), st.integers(1, 12))
    @example(F(5, 32), 4)
    @example(F(-7, 32), 4)
    @example(F(-1, 10**9), 3)
    @example(-3, 2)
    def test_matches_half_even_by_definition(self, value, digits):
        if isinstance(value, int):
            value = F(value, 2 * 10**digits)  # an exact tie when the int is odd
        assert decimal_string(value, digits) == oracles.decimal_by_definition(value, digits)


class TestRenderTable:
    VECTORS = [
        PowerIndexVector("PG", (F(1, 2), F(1, 2), F(0))),
        PowerIndexVector("CM", (F(3, 5), F(2, 5), F(0))),
    ]
    NAMES = ("A", "B", "C")

    def test_text_table(self):
        text = render_table(self.VECTORS, self.NAMES, digits=4)
        lines = text.splitlines()
        assert lines[0].split() == ["index", "A", "B", "C"]
        assert lines[1].split() == ["PG", "0.5000", "0.5000", "0.0000"]
        assert lines[2].split() == ["CM", "0.6000", "0.4000", "0.0000"]

    def test_exact_rows(self):
        text = render_table(self.VECTORS, self.NAMES, exact=True)
        assert "1/2" in text
        assert "3/5" in text

    def test_csv(self):
        text = render_table(self.VECTORS, self.NAMES, fmt="csv", digits=2)
        assert text.splitlines() == [
            "index,A,B,C",
            "PG,0.50,0.50,0.00",
            "CM,0.60,0.40,0.00",
        ]

    def test_json(self):
        payload = json.loads(
            render_table(self.VECTORS, self.NAMES, fmt="json", digits=2, exact=True)
        )
        assert payload["players"] == ["A", "B", "C"]
        assert payload["indices"][1] == {
            "index": "CM",
            "decimal": ["0.60", "0.40", "0.00"],
            "exact": ["3/5", "2/5", "0"],
        }

    def test_exact_values_expand_to_the_rounded_output(self):
        payload = json.loads(
            render_table(self.VECTORS, self.NAMES, fmt="json", digits=4, exact=True)
        )
        for entry in payload["indices"]:
            for exact, rounded in zip(entry["exact"], entry["decimal"]):
                assert decimal_string(parse_rational(exact), 4) == rounded

    def test_unknown_format(self):
        with pytest.raises(GameError):
            render_table(self.VECTORS, self.NAMES, fmt="xml")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_names_must_match_the_vectors(self, fmt):
        # Every player's value needs a name, and every name a value.
        for names in (self.NAMES[:2], (*self.NAMES, "D")):
            with pytest.raises(GameError, match="player names"):
                render_table(self.VECTORS, names, fmt=fmt)

    def test_digits_must_be_an_int(self):
        # Refused as bad digits, before any value is rendered.
        for digits in (2.5, True):
            with pytest.raises(GameError, match="^digits"):
                render_table(self.VECTORS, self.NAMES, digits=digits)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# Weights a document may hold, some negative or with a zero denominator.
rationals = st.one_of(
    st.integers(-2, 20),
    st.builds("{}/{}".format, st.integers(-2, 20), st.integers(0, 12)),
    st.builds("{}e{}".format, st.integers(0, 9), st.integers(-3, 3)),
)
documents = st.fixed_dictionaries(
    {"quota": rationals | json_values, "weights": st.lists(rationals, max_size=6)},
    optional={
        "players": st.lists(st.text(max_size=4), max_size=6) | json_values,
        "metadata": st.fixed_dictionaries(
            {}, optional={"label": json_values, "date": json_values}
        )
        | json_values,
    },
)
# Valid documents, so that the listing runs too.
games = st.builds(
    lambda g: {"quota": str(g.quota), "weights": [str(w) for w in g.weights]},
    rational_weighted_games(max_players=6),
)


@given(st.one_of(json_values, documents, games))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_any_json_is_a_document_or_a_game_error(tmp_path, obj):
    try:
        GameDocument.from_json_obj(obj)
    except GameError:
        pass
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mwc", "--game", str(path)])
    assert code in (0, 2), err.getvalue()
