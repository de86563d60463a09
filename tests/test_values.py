"""Value semantics of the library's immutable records.

Each record compares, hashes and prints by its fields, refuses assignment
and deletion, and accepts its fields as keywords.
"""

from fractions import Fraction

import pytest

from wmpower import (
    AxiomVerdict,
    Coalition,
    GameDocument,
    MergeabilityReport,
    PowerIndexVector,
    SimpleGame,
    SwingSet,
    WeightedMajorityGame,
)

WMG = WeightedMajorityGame(4, (3, 2, 1))


def report(**changes):
    fields = dict(
        equal_quotas=True,
        weight_compatible=True,
        offending_players=(),
        losing_preserved=True,
        losing_counterexample=None,
        mwc_count_additive=True,
        union_mwc_count=2,
        component_mwc_count=2,
        union=WMG,
    )
    return MergeabilityReport(**{**fields, **changes})


def document(**changes):
    fields = dict(
        quota=Fraction(4),
        weights=(Fraction(3), Fraction(2), Fraction(1)),
        players=("A", "B", "C"),
        label="reference",
        date="2021-05",
    )
    return GameDocument(**{**fields, **changes})


# (make one record, make an equal one, make a different one, field names, hashable)
CASES = {
    "SimpleGame": (
        lambda: SimpleGame(n_players=3, mwc=(Coalition([0, 1]), Coalition([0, 2]))),
        lambda: SimpleGame(3, [[0, 2], [0, 1]]),
        lambda: SimpleGame(3, [[0, 1]]),
        ("n_players", "mwc"),
        True,
    ),
    "WeightedMajorityGame": (
        lambda: WeightedMajorityGame(quota=4, weights=(3, 2, 1)),
        lambda: WeightedMajorityGame(Fraction(4), [Fraction(3), Fraction(2), Fraction(1)]),
        lambda: WeightedMajorityGame(4, (3, 2, 2)),
        ("quota", "weights"),
        True,
    ),
    "SwingSet": (
        lambda: SwingSet(player=0, swings=(Coalition([1]), Coalition([2]))),
        lambda: SwingSet(0, (Coalition([1]), Coalition([2]))),
        lambda: SwingSet(1, (Coalition([1]), Coalition([2]))),
        ("player", "swings"),
        True,
    ),
    "PowerIndexVector": (
        lambda: PowerIndexVector(kind="SS", values=(Fraction(1, 2), Fraction(1, 2))),
        lambda: PowerIndexVector("SS", [1 / Fraction(2), Fraction(2, 4)]),
        lambda: PowerIndexVector("BZ", (Fraction(1, 2), Fraction(1, 2))),
        ("kind", "values"),
        True,
    ),
    "GameDocument": (
        document,
        document,
        lambda: document(label="other"),
        ("quota", "weights", "players", "label", "date"),
        True,
    ),
    "MergeabilityReport": (
        report,
        report,
        lambda: report(union_mwc_count=3, mwc_count_additive=False),
        (
            "equal_quotas",
            "weight_compatible",
            "offending_players",
            "losing_preserved",
            "losing_counterexample",
            "mwc_count_additive",
            "union_mwc_count",
            "component_mwc_count",
            "union",
        ),
        True,
    ),
    "AxiomVerdict": (
        lambda: AxiomVerdict(axiom="EFF", holds=False, witness={"total": Fraction(2)}),
        lambda: AxiomVerdict("EFF", False, {"total": Fraction(2)}),
        lambda: AxiomVerdict("EFF", True),
        ("axiom", "holds", "witness"),
        False,  # the witness is a dict
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return (request.param, *CASES[request.param])


def test_equality_and_inequality(case):
    _, make, make_equal, make_other, _, _ = case
    a, b, c = make(), make_equal(), make_other()
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object()


def test_hash_follows_equality(case):
    _, make, make_equal, _, _, hashable = case
    if hashable:
        assert hash(make()) == hash(make_equal())
        assert len({make(), make_equal()}) == 1
    else:
        with pytest.raises(TypeError):
            hash(make())


def test_repr_names_each_field(case):
    name, make, _, _, fields, _ = case
    text = repr(make())
    assert text.startswith(f"{name}(")
    for field in fields:
        assert f"{field}=" in text


def test_fields_cannot_be_assigned_or_deleted(case):
    _, make, _, _, fields, _ = case
    record = make()
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_default_fields():
    assert AxiomVerdict("NP", True).witness is None
    plain = GameDocument(quota=Fraction(1), weights=(Fraction(1),), players=("A",))
    assert plain.label is None and plain.date is None


def test_weighted_game_caches_derived_forms():
    game = WeightedMajorityGame(Fraction(7, 2), (Fraction(3, 2), 2, 1))
    assert game.integer_form == ((3, 4, 2), 7, 2)
    assert game.integer_form is game.integer_form
    induced = game.induced_simple_game
    assert induced is game.induced_simple_game
    assert induced == SimpleGame(3, [[0, 1]])
    # Cached values do not take part in equality or hashing.
    fresh = WeightedMajorityGame(Fraction(7, 2), (Fraction(3, 2), 2, 1))
    assert fresh == game and hash(fresh) == hash(game)
