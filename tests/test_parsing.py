import json
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mzvident.parsing
from mzvident.algebra import (
    CanonicalForm,
    Expression,
    LegalityError,
    normalize,
    stuffle_product,
    term_order,
)
from mzvident.identities import IdentityReport, hoffman_identity, random_expression, verify
from mzvident.indexsets import full_universe, indices_of, mask_of
from mzvident.parsing import (
    ParseError,
    _Parser,
    _scan,
    expression_text,
    parse,
    parse_arglist,
    serialize,
)
from mzvident.partitions import partition_order, partition_sort_key


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


def test_huge_integers_raise_parse_error():
    # Past Python's 4,300-digit limit int() raises ValueError; the parser
    # reports it at the token, like any other malformed number.
    huge = "1" * 5000
    for text, message, pos in (
        (huge + "*zeta(s1)", "coefficient too long", 0),
        ("zeta(s1) - " + huge + "*zeta(s1)", "coefficient too long", 11),
        ("zeta(s" + huge + ")", "variable index out of range 1..63", 5),
        ("zeta(s1,s" + "0" * 4400 + "1)", "variable index out of range 1..63", 8),
    ):
        assert _scan(text) is None
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {pos})"
        assert info.value.pos == pos
    with pytest.raises(ParseError, match="variable index out of range 1..63 \\(at position 3\\)"):
        parse_arglist("s1,s" + huge)


def test_parse_rejects_non_ascii_digits():
    # The grammar's integers are ASCII; U+0661 is ARABIC-INDIC DIGIT ONE.
    for text, char, pos in (("zeta(s\u0661)", "s", 5), ("\u0663*zeta(s1)", "\u0663", 0)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"unexpected character {char!r} (at position {pos})"


# Tokens of expression text, valid and not, for the scanner properties.
SOUP = ["zeta", "(", ")", ",", "+", "-", "*", "s0", "s1", "s2", "s3", "s64", "s01",
        "2", "0", "12", " ", "\t", "x"]
VARS = ["s1", "s2", "s3", "s4", "s5", "s6", "s01", "s12", "s63", "s0", "s64"]
SPACES = ["", "", " ", "\t", "\n"]


@st.composite
def token_soup(draw):
    """Expression-shaped token lists, some edited by a few SOUP tokens."""

    def pick(options):
        return draw(st.sampled_from(options))

    def count(most):
        return range(draw(st.integers(1, most)))

    tokens = ["-"] if draw(st.booleans()) else []
    for t in count(3):
        tokens += [pick(["+", "-"])] if t else []
        tokens += [pick(["2", "0", "12"]), "*"] if draw(st.booleans()) else []
        for f in count(3):
            tokens += ["*", "zeta", "("] if f else ["zeta", "("]
            for a in count(3):
                tokens += [","] if a else []
                for v in count(2):
                    tokens += ["+", pick(VARS)] if v else [pick(VARS)]
            tokens.append(")")
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        tokens[i : i + draw(st.integers(0, 1))] = [pick(SOUP)] * draw(st.integers(0, 1))
    return pick(SPACES) + "".join(tok + pick(SPACES) for tok in tokens)


def slow_parse(text, declared):
    """(universe, terms) from the token parser and Expression.build, None on any error."""
    try:
        entries, _ = _Parser(text).parse_expr()
    except ParseError:
        return None
    # The set of each term's variables as a mask, by summing its distinct bits.
    supports = {sum({1 << (j - 1) for atom in atoms for block in atom for j in indices_of(block)})
                for _, atoms in entries}
    if len(supports) != 1:
        return None
    try:
        expr = Expression.build(declared or supports.pop(), entries)
    except LegalityError:
        return None
    return expr.universe, expr.terms


@given(token_soup())
@example("zeta(s2)*zeta(s1,s3) - 2*zeta(s3,s1)*zeta(s2) + zeta(s1)*zeta(s2)*zeta(s3)")
@example("zeta(s1)*zeta(s1)")
@example("zeta(s1,s2+s1)")
@example("zeta(s1,s2) - zeta(s1)")
@example("zeta(s1,s2,s3) - zeta(s3,s2,s1)*zeta(s4)")
@example("0*zeta(s1,s2,s3) + zeta(s1,s2,s3) - zeta(s3,s2,s1)")
# Removing the whitespace of these would join two tokens.
@example("zeta(s 1)")
@example("ze ta(s1)")
@example("2 3*zeta(s1)")
@example("zeta(s1) 2")
@example("zeta(s1)-zeta(s 1)")
# Non-ASCII whitespace: EM SPACE and the FILE SEPARATOR control.
@example("\u2003zeta(s1,\u2003s2)\u2003-\x1c2*zeta(s1)\x1c*\u2003zeta(s2)\x1c")
@example("zeta(s\u20031)\x1c")
@settings(max_examples=250, deadline=None)
def test_scanner_agrees_with_token_parser(text):
    # Undeclared, and declared as {1..3}: what the scanner accepts is what
    # the slow path builds, and it accepts whatever the slow path builds.
    for declared in (None, full_universe(3)):
        want = slow_parse(text, declared)
        got = _scan(text, declared)
        if got is not None:
            assert got == want, text
        if want is not None:
            assert got is not None, text


def test_whitespace_never_joins_tokens():
    # Whitespace only separates tokens: text whose tokens would run together
    # without it is the token parser's error, not a different expression.
    for text, message in (
        ("zeta(s 1)", "unexpected character 's' (at position 5)"),
        ("ze ta(s1)", "unexpected character 'z' (at position 0)"),
        ("2 3*zeta(s1)", "expected '*', found '3' (at position 2)"),
        ("zeta(s1) 2", "expected 'eof', found '2' (at position 9)"),
        ("zeta(s1)-zeta(s 1)", "unexpected character 's' (at position 14)"),
        ("zeta(s1)-zeta(s1\u20032)", "expected ')', found '2' (at position 17)"),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message, text
    want = parse("zeta(s1,s2) - 2*zeta(s1)*zeta(s2)")
    for space in ("\u2003", "\x1c", "\u00a0\t\u3000"):
        text = space.join(["", "zeta", "(", "s1", ",", "s2", ")", "-", "2", "*", "zeta", "(",
                           "s1", ")", "*", "zeta", "(", "s2", ")", ""])
        assert parse(text) == want, repr(space)


# A scanner that keeps every factor's argument list to the end of the parse
# peaks at 1,913,192 traced bytes on the text below (Python 3.11.7).  Removing
# whitespace up front adds a copy of the text, which must fit under that.
H7_PARSE_PEAK_BYTES = 1_913_192


def test_parse_peak_memory_of_scaled_hoffman_7():
    expr = hoffman_identity(7).scale(37)
    text = serialize(expr)
    assert parse(text) == expr  # a first call, so nothing lazily built counts
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= H7_PARSE_PEAK_BYTES


def test_valid_text_never_reaches_token_parser(monkeypatch):
    def refuse(text):
        raise AssertionError(f"token parser reached on {text!r}")

    exprs = [hoffman_identity(n).scale(k) for n in range(2, 7) for k in (1, -3)]
    rng = random.Random(8)
    while len(exprs) < 212:
        expr = random_expression(full_universe(rng.randint(1, 5)), rng)
        if not expr.is_zero():
            exprs.append(expr)
    monkeypatch.setattr(mzvident.parsing, "_Parser", refuse)
    for expr in exprs:
        text = expression_text(expr)
        assert parse(text) == expr
        spaced = text.replace("(", " ( ").replace(",", "\t,\n").replace("*", " * ")
        assert parse(f" \n{spaced}\t ") == expr
        assert parse(text.replace(" ", "")) == expr


def test_long_whitespace_scanned_in_linear_time():
    # A pattern that could split a run of spaces two ways would take
    # quadratic time, tens of seconds here, before rejecting the text.
    spaces = " " * 30_000
    start = time.perf_counter()
    for head, pos in (("", 0), ("zeta(s1)", 8), ("zeta(s1) -", 10)):
        with pytest.raises(ParseError, match=f"unexpected character 'x' \\(at position {pos}\\)"):
            parse(head + spaces + "x")
    assert parse(spaces + "zeta(s1)" + spaces + "-" + spaces + "zeta(s1)" + spaces).is_zero()
    assert time.perf_counter() - start < 2


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


def test_structured_report_refuses_unknown_method():
    report = IdentityReport(None, {"canonical": True, 'num"eric': True})
    with pytest.raises(ValueError, match="unknown method"):
        serialize(report, "structured")
    assert "method canonical: identity" in serialize(report, "text")


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(n, seed):
    rng = random.Random(seed)
    expr = random_expression(full_universe(n), rng)
    if not expr.is_zero():
        assert parse(expression_text(expr)) == expr


# --- references for the renderers -----------------------------------------
# The renderers sort by block ranks and write each kind's layout directly;
# these build the order from index tuples and the documents as dicts.


def _term_sort_key(term):
    return (
        len(term),
        tuple((len(atom), tuple(indices_of(b) for b in atom)) for atom in term),
    )


def _sorted_items(mapping, key):
    return sorted(mapping.items(), key=lambda kv: key(kv[0]))


def _blocks_json(atom):
    return [list(indices_of(b)) for b in atom]


def expression_json(expr):
    return {
        "kind": "expression",
        "universe": expr.universe.bit_length(),
        "terms": [
            {"coeff": coeff, "atoms": [_blocks_json(a) for a in term]}
            for term, coeff in _sorted_items(expr.terms, _term_sort_key)
        ],
    }


def canonical_json(canon):
    return {
        "kind": "canonical",
        "universe": canon.universe.bit_length(),
        "coeffs": [
            {"coeff": coeff, "parts": _blocks_json(parts)}
            for parts, coeff in _sorted_items(canon.coeffs, partition_sort_key)
        ],
    }


def stuffle_json(result):
    return {
        "kind": "stuffle",
        "tuples": [
            {"multiplicity": mult, "blocks": _blocks_json(w)}
            for w, mult in _sorted_items(result, partition_sort_key)
        ],
    }


def report_json(report):
    out = {
        "kind": "report",
        "verdict": report.verdict,
        "methods": dict(report.per_method),
        "agreement": report.agreement,
    }
    if report.witness is not None:
        parts, coeff = report.witness
        out["witness"] = {"coeff": coeff, "parts": _blocks_json(parts)}
    return out


def reference_text(pairs):
    """Signed text of (coeff, atoms) pairs, each block through indices_of."""
    if not pairs:
        return "0"
    out = []
    for i, (coeff, atoms) in enumerate(pairs):
        body = "*".join(
            "zeta(" + ",".join("+".join(f"s{j}" for j in indices_of(b)) for b in a) + ")"
            for a in atoms
        )
        sign = ("-" if coeff < 0 else "") if i == 0 else (" - " if coeff < 0 else " + ")
        out.append(sign + ("" if abs(coeff) == 1 else f"{abs(coeff)}*") + body)
    return "".join(out)


def assert_structured_matches_stdlib(obj, structured):
    # The stdlib's indented encoding of the reference document is the
    # reference for the writer.
    assert serialize(obj, "structured") == json.dumps(structured(obj), sort_keys=True, indent=2)


@given(st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_structured_writer_matches_stdlib(n, seed):
    rng = random.Random(seed)
    expr = random_expression(full_universe(n), rng)
    assert_structured_matches_stdlib(expr, expression_json)
    assert_structured_matches_stdlib(normalize(expr), canonical_json)
    assert_structured_matches_stdlib(verify(expr, seed=seed), report_json)
    for term in expr.terms:
        if len(term) >= 2:
            assert_structured_matches_stdlib(stuffle_product(term[0], term[1]), stuffle_json)
            break


def test_structured_writer_edge_cases():
    zero = parse("0")
    assert '"terms": []' in serialize(zero, "structured")
    assert '"coeffs": []' in serialize(normalize(parse(EXAMPLE_TEXT)), "structured")
    not_identity = verify(parse("zeta(s1)*zeta(s2) - zeta(s1,s2)"))
    assert '"witness"' in serialize(not_identity, "structured")
    big = parse(f"-{10**40 + 7}*zeta(s1,s2) + {3 * 10**45}*zeta(s2)*zeta(s1) - 2*zeta(s2,s1)")
    deep = " + ".join(f"s{j}" for j in range(1, 13))  # one block of depth 12
    deep_expr = parse(f"3*zeta({deep},s13) - zeta({deep})*zeta(s13)")
    for expr in (zero, big, deep_expr):
        assert_structured_matches_stdlib(expr, expression_json)
        assert_structured_matches_stdlib(normalize(expr), canonical_json)
    assert_structured_matches_stdlib(CanonicalForm(0, {}), canonical_json)
    huge_witness = verify(parse(f"{10**40}*zeta(s1,s2)"))
    negative_witness = verify(parse("-7*zeta(s1,s2) + zeta(s2,s1)"), methods=["numeric"])
    assert huge_witness.witness[1] == 10**40 and negative_witness.witness[1] < 0
    identity = verify(parse(EXAMPLE_TEXT))
    disagreeing = IdentityReport(None, {"canonical": True, "numeric": False})
    assert identity.is_identity and identity.agreement and not disagreeing.agreement
    reports = (verify(big), verify(deep_expr), huge_witness, negative_witness, identity, disagreeing)
    for report in (not_identity, *reports):
        assert_structured_matches_stdlib(report, report_json)
    deep_block = mask_of(range(1, 13))
    operands = [((), ()), ((blk(1, 3),), ()), ((), (blk(2),)), ((deep_block,), (blk(13), blk(14)))]
    for u, v in operands:
        assert_structured_matches_stdlib(stuffle_product(u, v), stuffle_json)


blocks = st.integers(1, (1 << 5) - 1)
partitions = st.lists(blocks, max_size=4).map(tuple)
atoms = st.lists(blocks, min_size=1, max_size=3).map(tuple)


@given(st.lists(partitions, unique=True))
@settings(max_examples=200, deadline=None)
@example([(blk(1, 2),), (blk(1),), (blk(1), blk(1, 2)), (blk(1, 2), blk(1)), (blk(2),), ()])
def test_partition_order_is_partition_sort_key(keys):
    # Index tuples that are prefixes of one another (s1, s1+s2) and keys of
    # different lengths must order as partition_sort_key orders them.
    key, rank = partition_order(keys)
    assert sorted(keys, key=key) == sorted(keys, key=partition_sort_key)
    assert set(rank) == {b for k in keys for b in k}


@given(st.lists(st.lists(atoms, min_size=1, max_size=3).map(tuple), unique=True))
@settings(max_examples=200, deadline=None)
@example([((blk(1, 2),),), ((blk(1),), (blk(1, 2),)), ((blk(1), blk(2)),), ((blk(1),),)])
def test_term_order_is_term_sort_key(terms):
    key, _ = term_order(terms)
    assert sorted(terms, key=key) == sorted(terms, key=_term_sort_key)


def test_text_renderers_match_reference():
    seeds = random.Random(5)
    objs = [hoffman_identity(n).scale(k) for n, k in [(3, 1), (5, -4), (6, 10**30)]]
    objs += [random_expression(full_universe(seeds.randint(1, 6)), seeds) for _ in range(20)]
    for expr in objs:
        terms = _sorted_items(expr.terms, _term_sort_key)
        assert serialize(expr) == reference_text([(c, t) for t, c in terms])
        canon = normalize(expr)
        coeffs = _sorted_items(canon.coeffs, partition_sort_key)
        assert serialize(canon) == reference_text([(c, (p,)) for p, c in coeffs])
        for term in expr.terms:
            if len(term) >= 2:
                result = stuffle_product(term[0], term[1])
                words = _sorted_items(result, partition_sort_key)
                assert serialize(result) == reference_text([(m, (w,)) for w, m in words])
