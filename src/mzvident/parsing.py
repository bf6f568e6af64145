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

import re
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional

from .algebra import (
    CanonicalForm,
    Expression,
    LegalityError,
    ZetaAtom,
    _add_pairs,
    atom_support,
    term_order,
    validate_legal_term,
)
from .identities import METHODS, IdentityReport
from .indexsets import (
    MAX_INDEX,
    TERM_TABLE_SIZE,
    full_universe,
    indices_of,
    mask_of,
)
from .partitions import partition_order


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
    # Every non-space character starts some match, so the matches (as in
    # `_scan`) tile the text up to its trailing whitespace; an error is
    # reported at the end of the previous token.
    tokens = []
    for m in iter(_TOKEN_RE.scanner(text).match, None):
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


# One term of whitespace-free text and the sign before it (group 1): an
# optional coefficient (group 2), then its factors (group 3), whose argument
# lists `arg {',' arg}` are checked block by block: `arg := var {'+' var}`.
_TERM_RE = re.compile(r"([+-]?)(?:([0-9]+)\*)?(zeta\([^)]*\)(?:\*zeta\([^)]*\))*)")
_ARG_RE = re.compile(r"s[0-9]+(?:\+s[0-9]+)*")
# A space, in text whose whitespace runs are single spaces, that has neither
# whitespace nor one of `+-*(),` on either side: removing it joins two tokens.
_GLUE_RE = re.compile(r" (?<=[^\s+\-*(),] )(?=[^\s+\-*(),])")


class _BlockMasks(dict):
    """Block text -> mask, checked and converted on first lookup, else
    ValueError and nothing stored."""

    def __missing__(self, block: str) -> int:
        if not _ARG_RE.fullmatch(block):
            raise ValueError(block)
        mask = self[block] = mask_of(int(var[1:]) for var in block.split("+"))
        return mask


# One table for every parse: a term's factor text (`_TERM_RE` group 3) -> its
# (key, support), read and checked once per process; see `_scan`.
_TERM_KEYS: dict[str, tuple[tuple[ZetaAtom, ...], int]] = {}


def _scan(text: str, declared: Optional[int] = None) -> Optional[tuple[int, dict]]:
    """The universe and term dict of legal expression text, one term per match.

    Returns None, and never raises, unless the text is a well-formed
    expression with indices in 1..63 whose every term uses each variable of
    the universe (`declared`, else the first term's) exactly once; the token
    parser and `validate_legal_term` then say what is wrong.  Whitespace is
    removed once, unless that would join two tokens (`s 1`, `ze ta`).  A
    term's blocks add without a carry, one bit per variable, iff disjoint,
    so their sum must have a bit per `s` and equal the universe.  A product
    term sums its factors; each argument list and each block text is read
    once per call (`factor`, `_BlockMasks`).

    A term's factor text becomes its key and support once per process
    (`_TERM_KEYS`, the one table kept between calls), stored only once its
    blocks are found disjoint; its tiling, sign, universe and coefficient
    are checked on every call.  The table keeps the first TERM_TABLE_SIZE
    texts it meets and is never emptied.  An entry is a term's text with its
    key; text with a zero-padded index (`s01`) is not stored, so no entry
    outgrows a product of 63 one-variable factors (3.7 KB; 29 MB for a full
    table, 1.9 MB full of depth-8 terms).  A miss costs a lookup and a
    store: 7*H_5 to H_8 parse 3-12% slower with the table empty than with
    no table.  A hit skips the read, so a warm 7*H_7 parses in under half
    the time.
    """
    text = " ".join(text.split())
    if _GLUE_RE.search(text):
        return None
    text = text.replace(" ", "")
    mask = _BlockMasks().__getitem__

    @lru_cache(maxsize=None)
    def factor(arglist: str) -> tuple[int, ZetaAtom, int]:  # (lowest bit, atom, blocks' sum)
        atom = tuple(map(mask, arglist.split(",")))
        support = sum(atom)
        return support & -support, atom, support

    universe = declared
    known = _TERM_KEYS.get

    def pairs():  # (key, coeff) per term, else ValueError
        nonlocal universe
        pos = 0
        # Each term is matched where the last ended, so the terms tile the
        # text.  Not `finditer`: each call looks up `search` by a new name
        # string, which CPython 3.11's type-attribute cache then keeps.
        for term in iter(_TERM_RE.scanner(text).match, None):
            sign, digits, body = term.groups()
            # Only '-' may lead the first term, and every later one needs a sign.
            if sign == ("" if pos else "+"):
                raise ValueError
            entry = known(body)
            if entry is None:
                if ")*" in body:
                    atoms = list(map(factor, body[5:-1].split(")*zeta(")))
                    support = sum([s for _, _, s in atoms])
                    # Disjoint atoms' lowest bits order them by smallest index.
                    key = tuple([atom for _, atom, _ in sorted(atoms)])
                else:
                    atom = tuple(map(mask, body[5:-1].split(",")))
                    support, key = sum(atom), (atom,)
                if support.bit_count() != body.count("s"):
                    raise ValueError
                # A zero-padded index (s01) has no length bound.
                if len(_TERM_KEYS) < TERM_TABLE_SIZE and "s0" not in body:
                    _TERM_KEYS[body] = key, support
            else:
                key, support = entry
            universe = universe or support  # the first term's, unless declared
            if support != universe:
                raise ValueError
            coeff = int(digits or 1)
            yield key, -coeff if sign == "-" else coeff
            pos = term.end()
        if pos != len(text) or not pos:
            raise ValueError

    try:
        terms = _add_pairs({}, pairs())
    except ValueError:  # from a check, mask_of, or int() of too many digits
        return None
    return universe, terms


def parse(text: str, universe: Optional[int] = None) -> Expression:
    """Parse expression text; `universe` declares the variable count n.

    `_scan` is the one reader of legal text.  Only text it refuses is checked
    for the bare "0", then handed to the token parser and
    `validate_legal_term`, the one source of error messages, which raise the
    first ParseError.  If they find no fault the scanner refused legal text,
    a defect, and RuntimeError is raised.
    """
    declared = full_universe(universe) if universe is not None else None
    scanned = _scan(text, declared)
    if scanned is not None:
        return Expression(*scanned)
    if text.strip() == "0":
        return Expression(declared or 0, {})
    entries, starts = _Parser(text).parse_expr()
    supports = [atom_support(sum(atoms, ())) for _, atoms in entries]  # all blocks' union
    inferred = supports[0]
    for s, pos in zip(supports, starts):
        if s != inferred:
            raise ParseError("terms over different variable sets", pos)
    universe = declared or inferred
    for (_, atoms), pos in zip(entries, starts):
        try:
            validate_legal_term(atoms, universe)
        except LegalityError as e:
            raise ParseError(str(e), pos) from None
    raise RuntimeError("the term scanner refused legal text")


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


def _zeta_writer(blocks: Iterable[int]) -> Callable[[ZetaAtom], str]:
    """`atom_text` for atoms over `blocks`, each block's text built once."""
    names = {b: block_text(b) for b in blocks}
    return lambda atom: "zeta(" + ",".join(map(names.__getitem__, atom)) + ")"


def expression_text(expr: Expression) -> str:
    key, rank = term_order(expr.terms)
    zeta = _zeta_writer(rank)
    terms = sorted(expr.terms, key=key)
    return _signed_join([(expr.terms[t], "*".join(map(zeta, t))) for t in terms])


def stuffle_text(result: Mapping[tuple[int, ...], int]) -> str:
    key, rank = partition_order(result)
    zeta = _zeta_writer(rank)
    return _signed_join([(result[k], zeta(k)) for k in sorted(result, key=key)])


def canonical_text(canon: CanonicalForm) -> str:
    return stuffle_text(canon.coeffs)  # the same map: ordered partition -> int


def _votes(report: IdentityReport) -> dict[str, bool]:
    """The report's votes in METHODS order; both writers refuse a method outside METHODS."""
    for m in report.per_method:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} in report; choose from {', '.join(METHODS)}")
    return {m: report.per_method[m] for m in METHODS if m in report.per_method}


def report_text(report: IdentityReport) -> str:
    lines = [f"verdict: {report.verdict}"]
    for m, vote in _votes(report).items():
        lines.append(f"method {m}: {'identity' if vote else 'not-identity'}")
    lines.append(f"agreement: {'yes' if report.agreement else 'no'}")
    if report.witness is not None:
        parts, coeff = report.witness
        lines.append(f"witness: {coeff}*{atom_text(parts)}")
    return "\n".join(lines)


# --- structured (JSON) encoding -------------------------------------------
# Each kind's fixed layout is written directly, byte for byte as `json.dumps(doc,
# sort_keys=True, indent=2)` writes the README's document: ints through `str` or
# `format`, and every string and bool as a literal.  The only strings are field
# names, METHODS names and the two verdicts, none of which needs escaping, so
# `_votes` refuses a `per_method` key outside METHODS.


def _list(items: list[str], indent: str) -> str:
    """A non-empty JSON list at `indent` of items already written one level deeper."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _object(fields: dict[str, str], indent: str) -> str:
    """A JSON object at `indent`, keys sorted, of values written one level deeper."""
    if not fields:
        return "{}"
    inner = "\n" + indent + "  "
    items = ['"' + k + '": ' + fields[k] for k in sorted(fields)]
    return "{" + inner + ("," + inner).join(items) + "\n" + indent + "}"


def _block_lists(blocks: Iterable[int], indent: str) -> dict[int, str]:
    """Each distinct block's index list at `indent`, written once per call."""
    return {b: _list(list(map(str, indices_of(b))), indent) for b in blocks}


# Records of the top-level lists at depth 2, each after its separator: {0} is
# the blocks, joined by _SEP, {1} the count, and keys are in sorted order.
_PARTS, _SEP = "[\n        {0}\n      ]", ",\n        "
_CANONICAL_RECORD = ',\n    {{\n      "coeff": {1},\n      "parts": ' + _PARTS + "\n    }}"
_STUFFLE_RECORD = ',\n    {{\n      "blocks": ' + _PARTS + ',\n      "multiplicity": {1}\n    }}'
_TERM_RECORD = ',\n    {{\n      "atoms": ' + _PARTS + ',\n      "coeff": {1}\n    }}'


def _document(head: str, records: list[str], tail: str) -> str:
    """`head`, a list of `records` and `tail`, joined once: the records are copied once."""
    if not records:
        return head + "[]" + tail
    records[0] = head + "[" + records[0][1:]  # no comma before the first record
    records.append("\n  ]" + tail)
    return "".join(records)


def _records(coeffs: Mapping[tuple[int, ...], int], form: str) -> list[str]:
    key, rank = partition_order(coeffs)
    blocks = _block_lists(rank, " " * 8).__getitem__
    # () is the one empty partition: the stuffle of two empty atoms.
    return [(form if k else form.replace(_PARTS, "[]")).format(_SEP.join(map(blocks, k)), coeffs[k])
            for k in sorted(coeffs, key=key)]


def canonical_structured(canon: CanonicalForm) -> str:
    tail = f',\n  "kind": "canonical",\n  "universe": {canon.universe.bit_length()}\n}}'
    return _document('{\n  "coeffs": ', _records(canon.coeffs, _CANONICAL_RECORD), tail)


def stuffle_structured(result: Mapping[tuple[int, ...], int]) -> str:
    records = _records(result, _STUFFLE_RECORD)
    return _document('{\n  "kind": "stuffle",\n  "tuples": ', records, "\n}")


def expression_structured(expr: Expression) -> str:
    key, rank = term_order(expr.terms)
    blocks = _block_lists(rank, " " * 10).__getitem__
    atoms = {a: _list(list(map(blocks, a)), " " * 8) for t in expr.terms for a in t}.__getitem__
    terms = [_TERM_RECORD.format(_SEP.join(map(atoms, t)), expr.terms[t])
             for t in sorted(expr.terms, key=key)]
    tail = f',\n  "universe": {expr.universe.bit_length()}\n}}'
    return _document('{\n  "kind": "expression",\n  "terms": ', terms, tail)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def report_structured(report: IdentityReport) -> str:
    fields = {
        "agreement": _bool(report.agreement),
        "kind": '"report"',
        "methods": _object({m: _bool(v) for m, v in _votes(report).items()}, "  "),
        "verdict": '"identity"' if report.is_identity else '"not-identity"',
    }
    if report.witness is not None:
        parts, coeff = report.witness
        blocks = list(_block_lists(parts, " " * 6).values())  # a partition: distinct blocks
        fields["witness"] = _object({"coeff": str(coeff), "parts": _list(blocks, " " * 4)}, "  ")
    return _object(fields, "")


# Core type -> (text renderer, structured renderer); anything else is a
# stuffle result.
_RENDERERS = {
    Expression: (expression_text, expression_structured),
    CanonicalForm: (canonical_text, canonical_structured),
    IdentityReport: (report_text, report_structured),
}


def serialize(obj, fmt: str = "text") -> str:
    """Render a core object as canonical text or structured JSON."""
    text, structured = _RENDERERS.get(type(obj), (stuffle_text, stuffle_structured))
    if fmt == "text":
        return text(obj)
    if fmt == "structured":
        return structured(obj)
    raise ValueError(f"unknown format: {fmt}")


def parse_arglist(text: str) -> ZetaAtom:
    """Parse the `arg {',' arg}` sub-grammar, e.g. "s1,s2+s3"."""
    parser = _Parser(text)
    atom = parser.parse_args()
    parser.expect("eof")
    return atom
