import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzvident.algebra import CanonicalForm, normalize, stuffle_product
from mzvident.identities import random_expression
from mzvident.indexsets import full_universe, mask_of
from mzvident.parsing import (
    ParseError,
    expression_text,
    parse,
    parse_arglist,
    serialize,
)


def blk(*idx):
    return mask_of(idx)


EXAMPLE_TEXT = (
    "2*zeta(s1+s2+s3) - zeta(s2)*zeta(s1+s3) - zeta(s3)*zeta(s1+s2)"
    " + zeta(s1+s2,s3) + zeta(s2,s1+s3) + zeta(s1+s3,s2) + zeta(s3,s1+s2)"
)


def test_parse_example():
    expr = parse(EXAMPLE_TEXT)
    assert expr.universe == full_universe(3)
    assert len(expr.terms) == 7
    assert expr.terms[(((blk(1, 2, 3)),),)] == 2


def test_parse_single_atom():
    expr = parse("zeta(s1)")
    assert dict(expr.terms) == {((blk(1),),): 1}


def test_parse_whitespace_insensitive():
    assert parse(" zeta( s1 , s2 ) ") == parse("zeta(s1,s2)")


def test_parse_leading_minus_and_coefficients():
    expr = parse("-3*zeta(s1) + zeta(s1)")
    assert dict(expr.terms) == {((blk(1),),): -2}


def test_parse_cancellation_to_zero():
    assert parse("zeta(s1) - zeta(s1)").is_zero()


def test_parse_zero_literal():
    assert parse("0").is_zero()
    assert parse("0", universe=2).universe == full_universe(2)


def test_parse_variable_reused():
    with pytest.raises(ParseError, match="variable reused"):
        parse("zeta(s1)*zeta(s1)")
    with pytest.raises(ParseError, match="duplicate"):
        parse("zeta(s1+s1)")


def test_parse_legality_error_position():
    # A legality error names the start of the offending term, not 0.
    with pytest.raises(ParseError, match="variable reused: s1 \\(at position 14\\)") as info:
        parse("zeta(s1,s2) + zeta(s1+s2)*zeta(s1)")
    assert info.value.pos == 14
    with pytest.raises(ParseError, match="variable missing: s2") as info:
        parse("zeta(s1)", universe=2)
    assert info.value.pos == 0
    with pytest.raises(ParseError, match="variable reused: s2") as info:
        parse("zeta(s1,s2) - zeta(s1)*zeta(s2) + 2*zeta(s2)*zeta(s1+s2)")
    assert info.value.pos == 34


def test_parse_variable_index_zero():
    with pytest.raises(ParseError):
        parse("zeta(s0)")


def test_parse_terms_over_different_variables():
    with pytest.raises(ParseError, match="different variable sets"):
        parse("zeta(s1) + zeta(s2)")
    # The position is that of the first term whose variables differ.
    with pytest.raises(ParseError, match="at position 11") as info:
        parse("zeta(s1) + zeta(s1,s2)")
    assert info.value.pos == 11
    with pytest.raises(ParseError) as info:
        parse("-zeta(s1,s2) - 2*zeta(s2)*zeta(s1) + 3*zeta(s1)")
    assert info.value.pos == 37


def test_parse_syntax_error_position():
    with pytest.raises(ParseError, match="position"):
        parse("zeta(s1")
    with pytest.raises(ParseError):
        parse("zeta()")
    with pytest.raises(ParseError):
        parse("2 * 3")
    with pytest.raises(ParseError):
        parse("zeta(s1) @")


# Malformed inputs with their exact messages and positions.
MALFORMED = [
    ("zeta(s1) # x", "unexpected character '#'", 8),
    ("#", "unexpected character '#'", 0),
    ("s", "unexpected character 's'", 0),
    ("zeta(s)", "unexpected character 's'", 5),
    ("zeta(s1)  $", "unexpected character '$'", 8),
    ("zet(s1)", "unexpected character 'z'", 0),
    ("zeta(s0)", "variable index must be >= 1", 5),
    ("zeta(", "expected 'var', found 'end of input'", 5),
    ("2*", "expected 'zeta', found 'end of input'", 2),
    ("zeta(s1) +", "expected 'zeta', found 'end of input'", 10),
    ("zeta(s1) + ", "expected 'zeta', found 'end of input'", 11),
    ("zeta(s1,)", "expected 'var', found ')'", 8),
    ("3 zeta(s1)", "expected '*', found 'zeta'", 2),
    ("zeta(s1)zeta(s2)", "expected 'eof', found 'zeta'", 8),
    ("   ", "expected 'zeta', found 'end of input'", 3),
    ("", "expected 'zeta', found 'end of input'", 0),
]


def test_parse_error_messages_pinned():
    for text, message, pos in MALFORMED:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {pos})", text
        assert info.value.pos == pos
    # Trailing whitespace of any kind ends the input.
    assert parse(" zeta(s1,s2) \t\n") == parse("zeta(s1,s2)")


def test_parse_declared_universe_must_cover():
    with pytest.raises(ParseError, match="variable missing"):
        parse("zeta(s1)", universe=2)


def test_parse_arglist():
    assert parse_arglist("s1,s2+s3") == (blk(1), blk(2, 3))
    with pytest.raises(ParseError):
        parse_arglist("s1,,s2")


def test_serialize_empty_canonical():
    assert serialize(CanonicalForm(full_universe(2), {})) == "0"


def test_serialize_single_coefficient():
    canon = CanonicalForm(full_universe(2), {(blk(1, 2),): 1})
    assert serialize(canon) == "zeta(s1+s2)"


def test_serialize_negative_and_scaled():
    canon = CanonicalForm(full_universe(2), {(blk(1, 2),): -2, (blk(1), blk(2)): 1})
    assert serialize(canon) == "-2*zeta(s1+s2) + zeta(s1,s2)"


def test_roundtrip_example():
    expr = parse(EXAMPLE_TEXT)
    assert parse(serialize(expr)) == expr


def test_roundtrip_random_expressions():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 4)
        expr = random_expression(full_universe(n), rng)
        if expr.is_zero():
            continue
        assert parse(expression_text(expr)) == expr


def test_structured_output_is_stable():
    expr = parse(EXAMPLE_TEXT)
    a = serialize(expr, "structured")
    b = serialize(parse(EXAMPLE_TEXT), "structured")
    assert a == b
    assert '"kind": "expression"' in a


def test_structured_stuffle_and_canonical():
    result = stuffle_product((blk(1),), (blk(2),))
    s = serialize(result, "structured")
    assert '"kind": "stuffle"' in s
    canon = normalize(parse("zeta(s1,s2)"))
    s2 = serialize(canon, "structured")
    assert '"kind": "canonical"' in s2


def test_serialize_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        serialize(parse("zeta(s1)"), "yaml")


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(n, seed):
    rng = random.Random(seed)
    expr = random_expression(full_universe(n), rng)
    if not expr.is_zero():
        assert parse(expression_text(expr)) == expr
