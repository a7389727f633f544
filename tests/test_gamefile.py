"""Text format round-trips and parse diagnostics."""

import re
from fractions import Fraction

import pytest

from helpers import game_stream
from ssg.errors import InvalidGameError
from ssg.gamefile import parse, serialize
from ssg.generate import Family
from ssg.model import game_of


def test_parse_minimal_game():
    g = parse("ssg 1\n0 sink 1/1\n")
    assert g.n == 1
    assert g.sink_value(0) == 1


def test_parse_full_game_with_comments_and_order():
    text = """\
# tiny example
ssg 1

2 sink 3/6   # unreduced on purpose
0 max 1 2
1 ave 0 2
"""
    g = parse(text)
    assert g.n == 3
    assert g.succs[0] == (1, 2)
    assert g.succs[1] == (0, 2)
    assert g.sink_value(2) == Fraction(1, 2)


def test_parse_rejects_unknown_kind_naming_the_line():
    with pytest.raises(InvalidGameError, match="line 2.*avg"):
        parse("ssg 1\n0 avg 1 2\n1 sink 1/1\n2 sink 0/1\n")


def test_parse_rejects_missing_header():
    with pytest.raises(InvalidGameError, match="header"):
        parse("0 sink 1/1\n")
    with pytest.raises(InvalidGameError, match="header"):
        parse("")


def test_parse_rejects_duplicate_ids_naming_both_lines():
    with pytest.raises(InvalidGameError, match="line 3.*line 2"):
        parse("ssg 1\n0 sink 1/1\n0 sink 0/1\n")


def test_parse_rejects_id_gaps():
    with pytest.raises(InvalidGameError, match="gap"):
        parse("ssg 1\n0 max 2 2\n2 sink 1/1\n")


def test_parse_rejects_dangling_successor():
    with pytest.raises(InvalidGameError, match="successor 5"):
        parse("ssg 1\n0 max 5\n1 sink 1/1\n")


def test_parse_rejects_decimal_and_negative_sink_values():
    with pytest.raises(InvalidGameError):
        parse("ssg 1\n0 sink 0.5\n")
    with pytest.raises(InvalidGameError):
        parse("ssg 1\n0 sink -1/2\n")
    with pytest.raises(InvalidGameError, match="zero denominator"):
        parse("ssg 1\n0 sink 1/0\n")
    with pytest.raises(InvalidGameError, match="outside"):
        parse("ssg 1\n0 sink 7/2\n")


def test_parse_rejects_wrong_ave_arity():
    with pytest.raises(InvalidGameError, match="two successors"):
        parse("ssg 1\n0 ave 1 1 1\n1 sink 1/1\n")


@pytest.mark.parametrize("text, message", [
    ("ssg 1\n0\n", "line 2: expected '<id> <kind> ...'"),
    ("ssg 1\n# nothing but a comment\n", "no vertex lines after the header"),
    ("ssg 1\n0 max\n", "line 2: vertex 0 has no successors"),
], ids=["one_token", "header_only", "no_successors"])
def test_parse_rejects_incomplete_lines(text, message):
    with pytest.raises(InvalidGameError, match=re.escape(message)):
        parse(text)


def test_serialize_reduces_and_orders():
    g = game_of([
        ("max", 1, 2),
        ("ave", 0, 2),
        ("sink", Fraction(2, 4)),
    ])
    assert serialize(g) == "ssg 1\n0 max 1 2\n1 ave 0 2\n2 sink 1/2\n"


def test_round_trip_is_exact():
    for g in game_stream(120, seed=83):
        assert parse(serialize(g)) == g
    for g in game_stream(40, family=Family.DAG_PLUS_K, min_n=8, max_n=12, seed=87):
        assert parse(serialize(g)) == g


def test_serialized_text_is_stable():
    for g in game_stream(20, seed=89):
        assert serialize(parse(serialize(g))) == serialize(g)


@pytest.mark.parametrize(
    "text, line",
    [
        ("ssg 1\n+1 sink 1/1\n0 max 1\n", 2),  # signed id
        ("ssg 1\n0 max 1\n0_1 sink 1/1\n", 3),  # underscore in an id
        ("ssg 1\n0 max +1\n1 sink 1/1\n", 2),  # signed successor
        ("ssg 1\n0 max 0_1\n1 sink 1/1\n", 2),
        ("ssg 1\n٠ max ١ 1\n1 sink 1/1\n", 2),  # Arabic-Indic digits
        ("ssg 1\n0 max ١\n1 sink 1/1\n", 2),
        ("ssg 1\n0 max 1\n1 sink ١/٢\n", 3),
        ("ssg 1\n0 max 1\n1 sink +1/2\n", 3),
        ("ssg 1\n0 max 1\n1 sink 1_0/2_0\n", 3),
        ("ssg 1\n0 max 1\n1 sink 1/２\n", 3),  # fullwidth digit
    ],
)
def test_parse_takes_numbers_in_ascii_digits_only(text, line):
    # each of these used to parse and then serialize back as other text
    with pytest.raises(InvalidGameError, match=f"line {line}:"):
        parse(text)


def test_parse_keeps_leading_zeros_and_reduces_sinks():
    g = parse("ssg 1\n00 max 01 1\n1 sink 02/04\n")
    assert g.succs[0] == (1, 1)
    assert serialize(g) == "ssg 1\n0 max 1 1\n1 sink 1/2\n"
