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
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional

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


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    # Every non-space character starts some match, so the matches tile the
    # text up to its trailing whitespace; an error is reported at the end of
    # the previous token.
    for m in iter(_TOKEN_RE.scanner(text).match, None):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start())
        yield kind, m.group("varidx") if kind == "var" else m.group(kind), m.start(kind)
    yield "eof", "", len(text)


class _Parser:
    """Predictive parser of the grammar, holding one lookahead token.

    A token is read when the one before it is consumed, so a fault is raised
    before any token past it is read, and `parse_expr` yields each term as it
    ends: nothing is held but the lookahead and the current term.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.tok = next(self.tokens)

    def next(self) -> tuple[str, str, int]:
        """The lookahead token, replaced by the one after it; eof stays."""
        tok = self.tok
        self.tok = next(self.tokens, tok)
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.tok
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.next()

    def parse_arg(self) -> int:
        """arg := var { '+' var } -> block mask, each variable checked where it stands."""
        mask = 0
        while True:
            _, val, pos = self.expect("var")
            try:
                idx = int(val)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"variable index out of range 1..{MAX_INDEX}", pos) from None
            if idx == 0:
                raise ParseError("variable index must be >= 1", pos)
            if idx > MAX_INDEX:
                raise ParseError(f"index {idx} out of range 1..{MAX_INDEX}", pos)
            if mask >> (idx - 1) & 1:
                raise ParseError(f"duplicate index {idx}", pos)
            mask |= 1 << (idx - 1)
            if self.tok[:2] != ("op", "+"):
                return mask
            self.next()

    def parse_args(self) -> ZetaAtom:
        """arg { ',' arg } -> tuple of block masks."""
        blocks = [self.parse_arg()]
        while self.tok[:2] == ("op", ","):
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
        if self.tok[0] == "int":
            _, digits, pos = self.next()
            try:
                coeff = int(digits)
            except ValueError:  # more digits than int() converts
                raise ParseError("coefficient too long", pos) from None
            self.expect("op", "*")
        atoms = [self.parse_factor()]
        while self.tok[:2] == ("op", "*"):
            self.next()
            atoms.append(self.parse_factor())
        return coeff, atoms

    def parse_expr(self) -> Iterator[tuple[int, list[ZetaAtom], int]]:
        """Each term's (coefficient, atoms, start position), yielded as the term ends."""
        sign = 1
        if self.tok[:2] == ("op", "-"):
            self.next()
            sign = -1
        while True:
            start = self.tok[2]
            coeff, atoms = self.parse_term()
            yield sign * coeff, atoms, start
            if self.tok[0] != "op" or self.tok[1] not in "+-":
                break
            sign = 1 if self.next()[1] == "+" else -1
        self.expect("eof")


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


class _Factors(dict):
    """Argument list text -> (lowest bit, atom, blocks' sum), its blocks read
    through `mask` on first lookup, else ValueError and nothing stored."""

    __slots__ = ("mask",)

    def __init__(self, mask: Callable[[str], int]):
        self.mask = mask

    def __missing__(self, arglist: str) -> tuple[int, ZetaAtom, int]:
        atom = tuple(map(self.mask, arglist.split(",")))
        support = sum(atom)
        factor = self[arglist] = support & -support, atom, support
        return factor


class _Coefficients(dict):
    """A term's sign and coefficient text -> its signed coefficient, read on
    first lookup, else ValueError.  Made holding the unit prefixes `+`, `-`
    and the empty one; any other is an integer and a `*`, and in text of
    `+-*0123456789` alone, int() reads exactly `[+-]?[0-9]+`."""

    def __missing__(self, prefix: str) -> int:
        if not prefix.endswith("*"):
            raise ValueError(prefix)
        coeff = self[prefix] = int(prefix[:-1])
        return coeff


# One table for every parse: a term's factor text -> its (key, support), read
# and checked once per process; see `_scan`.
_TERM_KEYS: dict[str, tuple[tuple[ZetaAtom, ...], int]] = {}

# Characters of text a window holds before its cut; while it is read, its
# pieces and bodies take a few times that.  8, 16 and 64 KiB windows read the
# hoffman benchmark's texts equally fast within noise (0.90-1.03 ms per op),
# and at 16 KiB a warm parse of 37*H_7 peaks at 0.55 MB traced (64 KiB: 0.93
# MB) and a cold one at 2.10 MB (64 KiB: 2.21 MB; tests allow 2.3 MB).
_WINDOW = 1 << 14


def _scan(text: str, declared: Optional[int] = None) -> Optional[tuple[int, dict]]:
    """The universe and term dict of legal expression text, read a window at a time.

    Returns None, and never raises, unless the text is a well-formed
    expression with indices in 1..63 whose every term uses each variable of
    the universe (`declared`, else the first term's) exactly once; the token
    parser and `validate_legal_term` then say what is wrong.

    A window is the next _WINDOW characters and on to a `)` that a sign
    follows (across a few whitespace characters), or to the end.  Its
    whitespace is removed, unless that would join two tokens (`s 1`,
    `ze ta`), and it is split into pieces before each sign that follows a
    `)`: in legal text that is where one term ends and the next starts.  A
    piece is a prefix, the sign and coefficient (`[+-]?([0-9]+[*])?`, read
    once per distinct prefix per call, `_Coefficients`), then a body, the
    factor text.  Only the text's first piece may lack a sign, and it may not
    start with `+`.  Each window is split, looked up, converted and checked
    against the universe in whole-window passes, so per-term Python runs
    only for bodies the term table lacks.  The terms' keys and coefficients
    are kept in text order and summed into the term dict in one pass at the
    end, or one by one if a key repeats or a coefficient is 0.

    A body becomes its key and support once per process (`_TERM_KEYS`, the
    one table kept between calls), stored only once read in full.  A body
    the table lacks is `zeta(` ... `)` with its argument lists between
    `)*zeta(`, each checked block by block (`factor`, `_BlockMasks`, each
    read once per call), so a stray character anywhere fails a block.  Its
    blocks add without a carry, one bit per variable, iff disjoint, so their
    sum must have a bit per `s`; every term's sum must equal the universe.
    The table keeps the first TERM_TABLE_SIZE bodies it meets and is never
    emptied.  A body with a zero-padded index (`s01`) is not stored, so no
    entry outgrows a product of 63 one-variable factors (3.7 KB; 29 MB for a
    full table, 1.9 MB full of depth-8 terms).
    """
    mask = _BlockMasks().__getitem__
    factor = _Factors(mask).__getitem__
    coefficient = _Coefficients({"": 1, "+": 1, "-": -1}).__getitem__

    def read(body: str) -> tuple[tuple[ZetaAtom, ...], int]:  # (key, support)
        if not (body.startswith("zeta(") and body.endswith(")")):
            raise ValueError
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
        return key, support

    universe = declared
    keys: list = []  # every term's key and coefficient, in text order
    coefficients: list[int] = []
    start, size = 0, len(text)
    try:
        while True:
            end = start + _WINDOW
            # Stepped `)` by `)`: a search for `)-` could run to the end each time.
            while end < size:
                end = text.find(")", end) + 1 or size
                if text[end:end + 8].lstrip().startswith(("+", "-")):
                    break
            # A cut follows a `)`, so no whitespace run that joins tokens spans one.
            tokens = text[start:end].split()
            window = " ".join(tokens)
            if _GLUE_RE.search(window) or not start and window.startswith("+"):
                return None
            start = end
            pieces = "".join(tokens).replace(")+", ")\n+").replace(")-", ")\n-").split("\n")
            bodies = list(map(str.lstrip, pieces, repeat("+-*0123456789")))
            coefficients += map(coefficient, map(str.removesuffix, pieces, bodies))
            entries = list(map(_TERM_KEYS.get, bodies))
            if not all(entries):
                entries = [entry or read(body) for entry, body in zip(entries, bodies)]
            universe = universe or entries[0][1]  # the first term's, unless declared
            if set(map(itemgetter(1), entries)) != {universe}:
                raise ValueError
            keys += map(itemgetter(0), entries)
            if start >= size:
                break
    except ValueError:  # from a check, mask_of, or int() of too many digits
        return None
    del tokens, window, pieces, bodies, entries  # not held while the terms are summed
    # One C-level pass, unless a key repeats or a coefficient is 0: then the
    # terms are summed one by one.
    terms = dict(zip(keys, coefficients))
    if len(terms) < len(keys) or 0 in coefficients:
        terms = _add_pairs({}, zip(keys, coefficients))
    return universe, terms


# Most blocks a text may hold, counted before it is read: a factor
# `zeta(b_1,...,b_k)` is one `zeta` and k - 1 commas, so legal text holds
# text.count(",") + text.count("zeta") blocks.  Hoffman n = 9 (3,360,748)
# fits; n = 10 (36,850,595; 149 MB of text) does not.
INPUT_BUDGET_BLOCKS = 1 << 22


def parse(text: str, universe: Optional[int] = None) -> Expression:
    """Parse expression text; `universe` declares the variable count n.

    Text over INPUT_BUDGET_BLOCKS is refused with ValueError before it is
    read.  `_scan` is the one reader of legal text.  Only text it refuses is
    checked for the bare "0", then read again, term by term, by the token
    parser and `validate_legal_term`, the one source of error messages,
    which raise the first fault in text order as a ParseError; a term's
    variables and legality are checked where the term ends.  If they find no
    fault the scanner refused legal text, a defect, and RuntimeError is raised.
    """
    blocks = text.count(",") + text.count("zeta")
    if blocks > INPUT_BUDGET_BLOCKS:
        raise ValueError(f"input refused: {blocks} blocks > budget {INPUT_BUDGET_BLOCKS} blocks")
    declared = full_universe(universe) if universe is not None else None
    scanned = _scan(text, declared)
    if scanned is not None:
        return Expression(*scanned)
    if text.strip() == "0":
        return Expression(declared or 0, {})
    first = None
    for _, atoms, pos in _Parser(text).parse_expr():
        support = atom_support(sum(atoms, ()))  # all blocks' union
        first = first or support
        if support != first:
            raise ParseError("terms over different variable sets", pos)
        try:
            validate_legal_term(atoms, declared or first)
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
