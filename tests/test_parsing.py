import gc
import itertools
import json
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _references import build, partition_sort_key, random_expression, random_legal_term
import mzvident.parsing
from mzvident.algebra import (
    CanonicalForm,
    Expression,
    LegalityError,
    normalize,
    stuffle_product,
    term_order,
)
from mzvident.identities import IdentityReport, hoffman_identity, verify
from mzvident.indexsets import (
    TERM_TABLE_SIZE,
    full_universe,
    indices_of,
    mask_of,
)
from mzvident.parsing import (
    INPUT_BUDGET_BLOCKS,
    ParseError,
    _Parser,
    _TERM_KEYS,
    _scan,
    atom_text,
    expression_text,
    parse,
    parse_arglist,
    serialize,
)
from mzvident.partitions import partition_order


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
    # A block's bad index or repeated variable is reported at that variable.
    ("zeta(s64+s1)", "index 64 out of range 1..63", 5),
    ("zeta(s1+s1+s2)", "duplicate index 1", 8),
    # The first fault in text order, a term's legality checked where it ends.
    ("zeta(s1)*zeta(s1) + zeta(", "variable reused: s1", 0),
    ("zeta(s1,) #", "expected 'var', found ')'", 8),
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


# Replacements that make any token of a legal term a fault, and the tokens of
# a term's text.
FAULTS = ["", "#", "s0", "s64"]
TERM_TOKEN = re.compile(r"s[0-9]+|[0-9]+|zeta|.")


@given(st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_first_fault_in_text_order(n, seed):
    # Two terms of a legal text each get a fault: any token of the earlier
    # term, and a token past the first of the later one, so neither the sign
    # between them nor the token after it changes.  The parser stops at the
    # first fault in text order, checking a term's legality where it ends,
    # and never reads the later fault: the message is the earlier one's alone.
    rng = random.Random(seed)
    terms = [(rng.choice((1, -1, 2, -3)), random_legal_term(full_universe(n), rng))
             for _ in range(rng.randint(2, 5))]
    tokens = [TERM_TOKEN.findall(f"{abs(c)}*" * (abs(c) > 1) + "*".join(map(atom_text, atoms)))
              for c, atoms in terms]

    def text(edits):
        """The terms' text, with token k of term t replaced by r for each t: (k, r) in edits."""
        pieces = []
        for t, ((c, _), toks) in enumerate(zip(terms, tokens)):
            if t in edits:
                k, r = edits[t]
                toks = toks[:k] + [r] + toks[k + 1:]
            pieces.append(("-" if c < 0 else "+") + " " + "".join(toks))
        return " ".join(pieces).removeprefix("+ ")

    i, j = sorted(rng.sample(range(len(terms)), 2))
    earlier = {i: (rng.randrange(len(tokens[i])), rng.choice(FAULTS))}
    later = {j: (rng.randrange(1, len(tokens[j])), rng.choice(FAULTS))}
    with pytest.raises(ParseError) as alone:
        parse(text(earlier))
    with pytest.raises(ParseError) as both:
        parse(text({**earlier, **later}))
    assert str(both.value) == str(alone.value), (text(earlier), text(later))


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
    """(universe, terms) from the token parser and the reference `build`, None on any error."""
    try:
        entries = [(coeff, atoms) for coeff, atoms, _ in _Parser(text).parse_expr()]
    except ParseError:
        return None
    # The set of each term's variables as a mask, by summing its distinct bits.
    supports = {sum({1 << (j - 1) for atom in atoms for block in atom for j in indices_of(block)})
                for _, atoms in entries}
    if len(supports) != 1:
        return None
    try:
        expr = build(declared or supports.pop(), entries)
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
# A term's blocks are summed: a carry can still give the universe, within
# one factor or across factors; overlapping factors; a bad factor that is
# kept for later terms.
@example("zeta(s2) + zeta(s1,s1)")
@example("zeta(s2)*zeta(s3) - zeta(s1)*zeta(s1)*zeta(s3)")
@example("zeta(s1,s2)*zeta(s2+s3)")
@example("zeta(s1,s1)*zeta(s2) + zeta(s1,s2)")
# Removing the whitespace of these would join two tokens.
@example("zeta(s 1)")
@example("ze ta(s1)")
@example("2 3*zeta(s1)")
@example("zeta(s1) 2")
@example("zeta(s1)-zeta(s 1)")
# Texts split where a sign follows a `)`: each piece must still be a whole
# term, and only the first may lack a sign.
@example("zeta(s1)+-zeta(s2)")
@example("zeta(s1)+3zeta(s2)")
@example("zeta(s1)+*zeta(s2)")
@example("+zeta(s1)")
@example(")+zeta(s1)")
@example("zeta(s1)+")
@example("-")
@example("zeta(s1)zeta(s2)")
@example("3*-zeta(s1)")
@example("zeta(s1)*2*zeta(s2)")
@example("007*zeta(s1)")
@example("-0*zeta(s1)")
@example("zeta(s1)-zeta(s1)+zeta(s1)")
# A body the term table lacks must be `zeta(` ... `)` around valid blocks.
@example("zeta(s1")
@example("zeta(s1s")
@example("zeta(s1)s")
@example("zetazeta(s1)")
@example("zeta(s1)*zeta(s2")
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


@given(st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_legal_text_takes_the_scanner(n, seed):
    # Written text, the same text with whitespace around each `+-*(),` and
    # at both ends, and with zero-padded indices (s01) is legal: the scanner
    # reads it, and the token parser is never needed.
    rng = random.Random(seed)
    expr = random_expression(full_universe(n), rng)
    if expr.is_zero():
        return  # written as "0", which names no universe
    text = expression_text(expr)
    spaces = ("", " ", "  ", "\t", "\n", "\u2003")
    spaced = "".join(
        rng.choice(spaces) + c + rng.choice(spaces) if c in "+-*()," else c for c in text
    )
    for legal in (text, rng.choice(spaces) + spaced + rng.choice(spaces), text.replace("s", "s0")):
        assert _scan(legal) is not None, legal
        assert parse(legal) == expr, legal


# The scan reads the text a window at a time.  On the text below (Python
# 3.11.7) a parse whose terms are all in the term table peaks at 551,135
# traced bytes (934,468 with 64 KiB windows).  With the table empty a parse
# peaks at 2,101,503 bytes and leaves 1,536,187 in the table's 5,917 entries
# and the interpreter's free lists.
H7_PARSE_PEAK_BYTES = 1_400_000
H7_COLD_PARSE_PEAK_BYTES = 2_300_000
H7_TERM_TABLE_BYTES = 1_700_000


def test_parse_peak_memory_of_scaled_hoffman_7():
    expr = hoffman_identity(7).scale(37)
    text = serialize(expr)
    _TERM_KEYS.clear()
    assert parse(text) == expr  # a first call fills the tables: the next is warm
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= H7_PARSE_PEAK_BYTES


def test_cold_parse_memory_of_scaled_hoffman_7():
    expr = hoffman_identity(7).scale(37)
    text = serialize(expr)
    assert parse(text) == expr  # a first call, so nothing lazily built counts
    _TERM_KEYS.clear()
    tracemalloc.start()
    try:
        parsed = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
        del parsed
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(_TERM_KEYS) == len(expr.terms)
    assert peak <= H7_COLD_PARSE_PEAK_BYTES
    assert retained <= H7_TERM_TABLE_BYTES


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


def test_scanner_refusing_legal_text_is_an_internal_error(monkeypatch):
    # The token parser only explains why the scanner refused a text; a text
    # it finds no fault in means the scanner is at fault, not the input.
    monkeypatch.setattr(mzvident.parsing, "_scan", lambda text, declared=None: None)
    for text in ("zeta(s1)*zeta(s2) - zeta(s1,s2)", " 2*zeta(s1+s2) ", "zeta(s1) - zeta(s1)"):
        with pytest.raises(RuntimeError, match="refused legal text"):
            parse(text)
    assert parse(" 0 ").is_zero()  # the literal is read once the scanner refuses
    with pytest.raises(ParseError, match="variable reused"):
        parse("zeta(s1,s1)")


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


def test_block_text_leaves_nothing_behind():
    for text, message in (
        ("zeta(s0)", "variable index must be >= 1 (at position 5)"),
        ("zeta(s1+s1)", "duplicate index 1 (at position 8)"),
        ("zeta(s64)", "index 64 out of range 1..63 (at position 5)"),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message
    assert parse("zeta(s2,s1)") == Expression(blk(1, 2), {((blk(2), blk(1)),): 1})
    # Block text is read once per call, so zero-padded indices (never kept
    # in the term table) leave nothing behind: 200 texts of 3,000-3,199
    # zeros would keep about 0.7 MB in a per-process block table.
    want = Expression(blk(1, 2, 3), {((blk(1), blk(2), blk(3)),): 1})
    assert parse("zeta(s01,s2,s3)") == want  # a first call, so nothing lazily built counts
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(200):
            assert parse(f"zeta(s{'0' * (3000 + i)}1,s2,s3)") == want
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 10_000


def _parsed(text, declared):
    """`slow_parse`'s (universe, terms) from `parse`, None on a ParseError."""
    try:
        expr = parse(text, declared and declared.bit_length())
    except ParseError:
        return None
    return expr.universe, expr.terms


@given(token_soup())
@example("zeta(s1,s2) + zeta(s1,s2,s3)")
@example("zeta(s1)*zeta(s2) - zeta(s2,s1) - zeta(s1,s2) - zeta(s1+s2)")
@settings(max_examples=150, deadline=None)
def test_term_table_changes_no_parse(text):
    # Each text parses as the token parser reads it with the term table
    # empty, and again once its factor texts were met alone and under other
    # declared universes.
    bodies = re.findall(r"zeta\([^)]*\)(?:\*zeta\([^)]*\))*", "".join(text.split()))
    for declared in (None, full_universe(3)):
        want = slow_parse(text, declared)
        _TERM_KEYS.clear()
        assert _parsed(text, declared) == want, text
        for other in [None, *map(full_universe, (1, 2, 4, 5))]:
            _parsed(text, other)
        for body in bodies:
            _parsed(body, None)
        assert _parsed(text, declared) == want, text


def test_term_table_examples():
    _TERM_KEYS.clear()
    assert parse("zeta(s1,s2) - zeta(s2,s1)") == Expression(
        blk(1, 2), {((blk(1), blk(2)),): 1, ((blk(2), blk(1)),): -1})
    assert "zeta(s1,s2)" in _TERM_KEYS
    # A stored factor text is checked against each text's universe.
    for text, universe, message in (
        ("zeta(s1,s2,s3) + zeta(s1,s2)", None, "terms over different variable sets (at position 17)"),
        ("zeta(s1,s2)", 3, "variable missing: s3 (at position 0)"),
    ):
        with pytest.raises(ParseError) as info:
            parse(text, universe)
        assert str(info.value) == message
    assert parse("zeta(s1,s2)", 2) == parse("zeta(s1,s2)") == Expression(
        blk(1, 2), {((blk(1), blk(2)),): 1})
    # Stored from a text that failed on its universe, a factor text reads alone.
    assert parse("zeta(s1,s2,s3)") == Expression(blk(1, 2, 3), {((blk(1), blk(2), blk(3)),): 1})
    # A zero-padded index is read on every parse, never stored.
    assert parse("zeta(s01,s2)") == Expression(blk(1, 2), {((blk(1), blk(2)),): 1})
    # Factor texts whose blocks overlap are never stored, and are reported
    # the same way whenever they are met.
    for text, message in (
        ("zeta(s1,s1)", "variable reused: s1 (at position 0)"),
        ("zeta(s1)*zeta(s1)", "variable reused: s1 (at position 0)"),
        ("zeta(s2,s1) + zeta(s1)*zeta(s1,s2)", "variable reused: s1 (at position 14)"),
    ):
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == message
    assert set(_TERM_KEYS) == {"zeta(s1,s2)", "zeta(s2,s1)", "zeta(s1,s2,s3)"}


def test_term_table_is_bounded():
    # 9,000 distinct depth-8 orderings, one per text: the table keeps the
    # first TERM_TABLE_SIZE, and the rest are read on every parse.
    _TERM_KEYS.clear()
    universe = full_universe(8)
    orders = list(itertools.islice(itertools.permutations(range(1, 9)), TERM_TABLE_SIZE + 808))
    bodies = ["zeta(" + ",".join(f"s{j}" for j in order) + ")" for order in orders]
    atoms = [tuple(blk(j) for j in order) for order in orders]
    for body, atom in zip(bodies + bodies[:10] + bodies[-10:], atoms + atoms[:10] + atoms[-10:]):
        assert parse("3*" + body) == Expression(universe, {(atom,): 3})
    assert list(_TERM_KEYS) == bodies[:TERM_TABLE_SIZE]
    # All 9,000 in one text: a parse hits the stored texts and reads the
    # rest without storing them, and the table is never emptied.
    text = " + ".join(bodies)
    expr = Expression(universe, dict.fromkeys([(atom,) for atom in atoms], 1))
    for _ in range(2):
        assert parse(text) == expr
        assert list(_TERM_KEYS) == bodies[:TERM_TABLE_SIZE]
    _TERM_KEYS.clear()  # and cold: one parse stores the first TERM_TABLE_SIZE
    assert parse(text) == expr
    assert list(_TERM_KEYS) == bodies[:TERM_TABLE_SIZE]


def test_multi_window_text_reads_as_the_reference():
    # Two signed copies of H_6's terms, several windows long.  Every term
    # with 3 in both copies cancels across a cut; the first term (2 - 1)
    # cancels against its zero-padded spelling, never stored, so a miss
    # among hits; the second (3 - 3 + 4 - 3) is met again in the last
    # window, which ends at the text's end, with or without trailing space.
    window = mzvident.parsing._WINDOW
    bodies = ["*".join(map(atom_text, term)) for term in hoffman_identity(6).terms]
    plus = " + ".join(f"{k}*{b}" for k, b in zip(itertools.cycle((2, 3, 5)), bodies))
    minus = " - ".join(f"{k}*{b}" for k, b in zip(itertools.cycle((1, 3, 5)), bodies))
    text = f"{plus} - zeta(s01,s2,s3,s4,s5,s6) - {minus} + 4*{bodies[1]} - 3*{bodies[1]}"
    assert bodies[0] == "zeta(s1,s2,s3,s4,s5,s6)"
    assert len(text) > 3 * window and text.rindex(bodies[1]) - text.index(bodies[1]) > window
    universe = full_universe(6)
    want = slow_parse(text, None)
    assert want[0] == universe and 0 < len(want[1]) < len(bodies)
    assert (tuple(blk(j) for j in range(1, 7)),) not in want[1]
    assert want[1][(tuple(blk(j) for j in (1, 2, 3, 4, 6, 5)),)] == 1

    def check():
        for variant in (text, text + " \n"):
            assert _scan(variant) == want
            assert parse(variant, 6) == Expression(universe, want[1])

    _TERM_KEYS.clear()
    check()  # cold: the first parse stores the bodies
    assert list(_TERM_KEYS) == bodies  # the padded spelling is never stored
    check()  # warm
    # Full: 500 places left before the parse, so its later windows miss.
    _TERM_KEYS.clear()
    _TERM_KEYS.update((f"zeta(s{i})", None) for i in range(TERM_TABLE_SIZE - 500))
    check()
    assert len(_TERM_KEYS) == TERM_TABLE_SIZE
    _TERM_KEYS.clear()


def test_input_budget_is_checked_before_reading(monkeypatch):
    # The count is the legal text's block count: one per `zeta` and comma.
    over = "zeta(" + "," * INPUT_BUDGET_BLOCKS + ")"
    with pytest.raises(ValueError) as info:
        parse(over)
    assert str(info.value) == "input refused: 4194305 blocks > budget 4194304 blocks"
    assert not isinstance(info.value, ParseError)
    monkeypatch.setattr(mzvident.parsing, "INPUT_BUDGET_BLOCKS", 4)
    assert parse("zeta(s1,s2,s3,s4)") == Expression(blk(1, 2, 3, 4), {((blk(1), blk(2), blk(3), blk(4)),): 1})
    for text in ("zeta(s1,s2,s3,s4,s5)", "zeta(s1)*zeta(s2)*zeta(s3)*zeta(s4)*zeta(s5)",
                 "zeta(s1,s2)*zeta(s3,s4,s5)", "zeta(,,,,", "zetazetazetazetazeta"):
        with pytest.raises(ValueError, match="^input refused: 5 blocks > budget 4 blocks$"):
            parse(text)


def test_parse_declared_universe_must_cover():
    with pytest.raises(ParseError, match="variable missing"):
        parse("zeta(s1)", universe=2)
    # A declared size outside 1..63 is refused, 0 included.
    for text in ("zeta(s1)", "0"):
        for size in (0, -1, 64):
            with pytest.raises(ValueError, match=rf"^universe size {size} out of range 1\.\.63$"):
                parse(text, universe=size)


def test_parse_arglist():
    assert parse_arglist("s1,s2+s3") == (blk(1), blk(2, 3))
    with pytest.raises(ParseError):
        parse_arglist("s1,,s2")
    with pytest.raises(ParseError, match=r"^index 64 out of range 1\.\.63 \(at position 0\)$"):
        parse_arglist("s64+s1")


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
    # Both writers refuse, so the text report cannot drop a vote unseen.
    for per_method in {"canonical": True, 'num"eric': True}, {"bogus": False}:
        for fmt in "structured", "text":
            with pytest.raises(ValueError, match="unknown method"):
                serialize(IdentityReport(None, per_method), fmt)


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
    no_votes = IdentityReport(None)
    assert '"methods": {}' in serialize(no_votes, "structured")
    reports = (verify(big), verify(deep_expr), huge_witness, negative_witness, identity, disagreeing)
    for report in (not_identity, *reports, no_votes):
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
