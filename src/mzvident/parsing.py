"""Text grammar for legal expressions, plus serialization.

Grammar (whitespace-insensitive):

    expr        := ['-'] term { ('+'|'-') term }
    term        := [ integer '*' ] factor { '*' factor }
    factor      := 'zeta' '(' arg { ',' arg } ')'
    arg         := var { '+' var }
    var         := 's' positive-integer

Integers are ASCII digits.  Each variable must appear exactly once per
term; the universe is the union of the indices (and must agree across
terms) unless declared explicitly.
The bare string "0" denotes the zero expression.

The structured output format is JSON with stable, documented field names;
see README for the schema.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .algebra import (
    CanonicalForm,
    Expression,
    LegalityError,
    StuffleResult,
    ZetaAtom,
)
from .identities import METHODS, IdentityReport
from .indexsets import MAX_INDEX, full_universe, indices_of, mask_of
from .partitions import partition_sort_key


class ParseError(ValueError):
    """Syntax or legality error in expression text, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<var>s(?P<varidx>[0-9]+))
      | (?P<int>[0-9]+)
      | (?P<zeta>zeta)
      | (?P<op>[+\-*(),])
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # Every non-space character starts some match, so the matches tile the
    # text up to its trailing whitespace; an error is reported at the end
    # of the previous token.
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start())
        value = m.group("varidx") if kind == "var" else m.group(kind)
        tokens.append((kind, value, m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse_arg(self) -> int:
        """arg := var { '+' var } -> block mask."""
        indices = []
        while True:
            kind, val, pos = self.expect("var")
            try:
                idx = int(val)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"variable index out of range 1..{MAX_INDEX}", pos) from None
            if idx == 0:
                raise ParseError("variable index must be >= 1", pos)
            indices.append(idx)
            if self.peek()[:2] == ("op", "+"):
                self.next()
            else:
                break
        try:
            return mask_of(indices)
        except ValueError as e:
            raise ParseError(str(e), pos) from None

    def parse_args(self) -> ZetaAtom:
        """arg { ',' arg } -> tuple of block masks."""
        blocks = [self.parse_arg()]
        while self.peek()[:2] == ("op", ","):
            self.next()
            blocks.append(self.parse_arg())
        return tuple(blocks)

    def parse_factor(self) -> ZetaAtom:
        self.expect("zeta")
        self.expect("op", "(")
        atom = self.parse_args()
        self.expect("op", ")")
        return atom

    def parse_term(self) -> tuple[int, list[ZetaAtom]]:
        coeff = 1
        if self.peek()[0] == "int":
            _, digits, pos = self.next()
            try:
                coeff = int(digits)
            except ValueError:  # more digits than int() converts
                raise ParseError("coefficient too long", pos) from None
            self.expect("op", "*")
        atoms = [self.parse_factor()]
        while self.peek()[:2] == ("op", "*"):
            self.next()
            atoms.append(self.parse_factor())
        return coeff, atoms

    def parse_expr(self) -> tuple[list[tuple[int, list[ZetaAtom]]], list[int]]:
        """(coefficient, atoms) entries and the start position of each term."""
        entries = []
        starts = []
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.next()
            sign = -1
        starts.append(self.peek()[2])
        coeff, atoms = self.parse_term()
        entries.append((sign * coeff, atoms))
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            sign = 1 if self.next()[1] == "+" else -1
            starts.append(self.peek()[2])
            coeff, atoms = self.parse_term()
            entries.append((sign * coeff, atoms))
        self.expect("eof")
        return entries, starts


# `arg {',' arg}` with `arg := var {'+' var}` is `var {('+'|',') var}`; the
# shorter pattern compiles ten times faster than the nested one.
_FACTOR = r"zeta\s*\(\s*s[0-9]+(?:\s*[+,]\s*s[0-9]+)*\s*\)"
# One whole term and the sign before it (group 1): the term (group 2) is an
# optional coefficient (group 3), then its factors (group 4).
_TERM_RE = re.compile(
    rf"\s*(?:([+-])\s*)?((?:([0-9]+)\s*\*\s*)?({_FACTOR}(?:\s*\*\s*{_FACTOR})*))"
)
_ARGLIST_RE = re.compile(r"\(([^)]*)\)")


def _scan(text: str) -> Optional[tuple[list[tuple[int, list[ZetaAtom]]], list[int]]]:
    """What `_Parser(text).parse_expr()` returns, read one term per match.

    Returns None, and never raises, when the text is not a well-formed
    expression with indices in 1..63 and no index repeated in a block; the
    token parser then says what is wrong.  Each distinct block text is
    converted to its mask once.
    """
    masks: dict[str, int] = {}
    entries = []
    starts = []
    pos = 0
    while term := _TERM_RE.match(text, pos):
        sign = term.group(1)
        # Only '-' may lead the first term, and every later one needs a sign.
        if sign == ("+" if not entries else None):
            return None
        atoms = []
        for arglist in _ARGLIST_RE.findall(text, term.start(4), term.end()):
            atom = []
            for block in arglist.split(","):
                mask = masks.get(block)
                if mask is None:
                    try:
                        mask = mask_of(int(var.strip()[1:]) for var in block.split("+"))
                    except ValueError:
                        return None
                    masks[block] = mask
                atom.append(mask)
            atoms.append(tuple(atom))
        try:
            coeff = int(term.group(3) or 1)
        except ValueError:  # more digits than int() converts
            return None
        entries.append((-coeff if sign == "-" else coeff, atoms))
        starts.append(term.start(2))
        pos = term.end()
    if not entries or text[pos:].strip():
        return None
    return entries, starts


def parse(text: str, universe: Optional[int] = None) -> Expression:
    """Parse expression text; `universe` declares the variable count n.

    Well-formed text is read by `_scan`; anything it does not accept goes
    to the token parser, the one source of syntax error messages.
    """
    declared = full_universe(universe) if universe else None
    if text.strip() == "0":
        return Expression(declared or 0, {})
    scanned = _scan(text)
    if scanned is None:
        scanned = _Parser(text).parse_expr()
    entries, starts = scanned
    supports = []
    for _, atoms in entries:
        m = 0
        for atom in atoms:
            for block in atom:
                m |= block
        supports.append(m)
    inferred = supports[0]
    for s, pos in zip(supports, starts):
        if s != inferred:
            raise ParseError("terms over different variable sets", pos)
    target = declared if declared is not None else inferred
    pos = 0

    def located():
        # Expression.build validates each entry as it draws it, so on a
        # LegalityError `pos` is the start of the offending term.
        nonlocal pos
        for entry, pos in zip(entries, starts):
            yield entry

    try:
        return Expression.build(target, located())
    except LegalityError as e:
        raise ParseError(str(e), pos) from None


def block_text(block: int) -> str:
    return "+".join(f"s{j}" for j in indices_of(block))


def atom_text(atom: ZetaAtom) -> str:
    return "zeta(" + ",".join(block_text(b) for b in atom) + ")"


def _signed_join(pieces: list[tuple[int, str]]) -> str:
    if not pieces:
        return "0"
    out = []
    for i, (coeff, body) in enumerate(pieces):
        mag = abs(coeff)
        prefix = "" if mag == 1 else f"{mag}*"
        if i == 0:
            sign = "-" if coeff < 0 else ""
            out.append(f"{sign}{prefix}{body}")
        else:
            sign = "-" if coeff < 0 else "+"
            out.append(f" {sign} {prefix}{body}")
    return "".join(out)


def expression_text(expr: Expression) -> str:
    pieces = [
        (coeff, "*".join(atom_text(a) for a in term))
        for term, coeff in expr.sorted_terms()
    ]
    return _signed_join(pieces)


def canonical_text(canon: CanonicalForm) -> str:
    pieces = [(coeff, atom_text(parts)) for parts, coeff in canon.sorted_coeffs()]
    return _signed_join(pieces)


def stuffle_text(result: StuffleResult) -> str:
    pieces = [
        (mult, atom_text(w))
        for w, mult in sorted(result.items(), key=lambda kv: partition_sort_key(kv[0]))
    ]
    return _signed_join(pieces)


def report_text(report: IdentityReport) -> str:
    lines = [f"verdict: {report.verdict}"]
    for m in METHODS:
        if m in report.skipped:
            lines.append(f"method {m}: skipped ({report.skipped[m]})")
        elif m in report.per_method:
            lines.append(f"method {m}: {'identity' if report.per_method[m] else 'not-identity'}")
    lines.append(f"agreement: {'yes' if report.agreement else 'no'}")
    if report.witness is not None:
        parts, coeff = report.witness
        lines.append(f"witness: {coeff}*{atom_text(parts)}")
    return "\n".join(lines)


# --- structured (JSON) encoding -------------------------------------------


def _blocks_json(atom: ZetaAtom) -> list[tuple[int, ...]]:
    # The cached index tuples themselves, so `_dumps` sees equal blocks as
    # equal keys.
    return [indices_of(b) for b in atom]


def expression_json(expr: Expression) -> dict:
    return {
        "kind": "expression",
        "universe": expr.universe.bit_length(),
        "terms": [
            {"coeff": coeff, "atoms": [_blocks_json(a) for a in term]}
            for term, coeff in expr.sorted_terms()
        ],
    }


def canonical_json(canon: CanonicalForm) -> dict:
    return {
        "kind": "canonical",
        "universe": canon.universe.bit_length(),
        "coeffs": [
            {"coeff": coeff, "parts": _blocks_json(parts)}
            for parts, coeff in canon.sorted_coeffs()
        ],
    }


def stuffle_json(result: StuffleResult) -> dict:
    return {
        "kind": "stuffle",
        "tuples": [
            {"multiplicity": mult, "blocks": _blocks_json(w)}
            for w, mult in sorted(result.items(), key=lambda kv: partition_sort_key(kv[0]))
        ],
    }


def report_json(report: IdentityReport) -> dict:
    out: dict = {
        "kind": "report",
        "verdict": report.verdict,
        "methods": dict(report.per_method),
        "agreement": report.agreement,
    }
    if report.skipped:
        out["skipped"] = dict(report.skipped)
    if report.witness is not None:
        parts, coeff = report.witness
        out["witness"] = {"coeff": coeff, "parts": _blocks_json(parts)}
    return out


# Core type -> (text renderer, structured renderer); anything else is a
# stuffle result.
_RENDERERS = {
    Expression: (expression_text, expression_json),
    CanonicalForm: (canonical_text, canonical_json),
    IdentityReport: (report_text, report_json),
}


def _dumps(doc) -> str:
    """What `json.dumps(doc, sort_keys=True, indent=2)` writes, for the
    documents the structured renderers build: dicts with str keys, lists,
    tuples of ints (one block's indices each), ints and bools.

    Ints are written by `str`, and strings, bools and anything else by
    `json.dumps`, so escaping and the int digit limit stay the stdlib's.
    Each distinct tuple or string is rendered once per depth; with `indent`
    set the stdlib runs its pure-Python encoder on every occurrence.
    """
    memo: dict = {}

    def dump(value, indent: str) -> str:
        kind = type(value)
        if kind is int:
            return str(value)
        if kind is tuple or kind is str:
            key = (value, indent)
            text = memo.get(key)
            if text is None:
                text = memo[key] = dump(list(value), indent) if kind is tuple else json.dumps(value)
            return text
        if not value or (kind is not list and kind is not dict):
            return json.dumps(value)
        inner = indent + "  "
        if kind is list:
            items = [dump(v, inner) for v in value]
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
        items = [dump(k, inner) + ": " + dump(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"

    return dump(doc, "")


def serialize(obj, fmt: str = "text") -> str:
    """Render a core object as canonical text or structured JSON."""
    text, structured = _RENDERERS.get(type(obj), (stuffle_text, stuffle_json))
    if fmt == "text":
        return text(obj)
    if fmt == "structured":
        return _dumps(structured(obj))
    raise ValueError(f"unknown format: {fmt}")


def parse_arglist(text: str) -> ZetaAtom:
    """Parse the `arg {',' arg}` sub-grammar, e.g. "s1,s2+s3"."""
    parser = _Parser(text)
    atom = parser.parse_args()
    parser.expect("eof")
    return atom
