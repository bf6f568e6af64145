"""The algebra of legal zeta terms and expressions.

A Block is a bitmask of variable indices and stands for the argument
sum of those variables.  A zeta atom is an ordered tuple of disjoint
blocks, i.e. one zeta(...) factor.  A legal term is a collection of
atoms whose blocks jointly partition the universe {1..n}: each
variable is used exactly once.  An expression is an integer-linear
combination of legal terms over a shared universe.

Normalization multiplies out each term's atoms with the stuffle
(quasi-shuffle) product, yielding a linear combination of single zeta
factors indexed by ordered set partitions of the universe; products of
depth-1 factors are summed per unordered partition first.  The
expression vanishes identically iff every canonical coefficient is
zero.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Optional

from .indexsets import min_index
from .partitions import bell_count, coarsenings, partition_order

Block = int  # non-empty bitmask
ZetaAtom = tuple[Block, ...]  # ordered, disjoint, non-empty blocks
LegalTerm = tuple[ZetaAtom, ...]  # atoms sorted by smallest index


class LegalityError(ValueError):
    """An atom collection fails the legal-term rules."""


def atom_support(atom: ZetaAtom) -> int:
    m = 0
    for b in atom:
        m |= b
    return m


def canonical_atoms(atoms: Iterable[ZetaAtom]) -> LegalTerm:
    """Sort atoms by the smallest variable index occurring in them."""
    return tuple(sorted(atoms, key=lambda a: min_index(atom_support(a))))


def validate_legal_term(atoms: Iterable[ZetaAtom], universe: int) -> LegalTerm:
    """Canonicalize `atoms` as a legal term for `universe` or raise."""
    atoms = tuple(atoms)
    if not atoms:
        raise LegalityError("empty term")
    seen = 0
    for atom in atoms:
        if not atom:
            raise LegalityError("empty atom")
        for block in atom:
            if not block:
                raise LegalityError("empty block")
            if seen & block:
                clash = min_index(seen & block)
                raise LegalityError(f"variable reused: s{clash}")
            seen |= block
    if seen & ~universe:
        extra = min_index(seen & ~universe)
        raise LegalityError(f"variable outside universe: s{extra}")
    if seen != universe:
        missing = min_index(universe & ~seen)
        raise LegalityError(f"variable missing: s{missing}")
    return canonical_atoms(atoms)


class _Frozen:
    """An immutable value whose fields are its `__slots__`, in constructor order.

    Assignment and deletion raise AttributeError, so copy and pickle rebuild
    a value through its constructor.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _add_pairs(acc: dict, pairs: Iterable[tuple[object, int]]) -> dict:
    """Add each (key, coeff) pair into `acc`, dropping keys that reach 0."""
    for key, coeff in pairs:
        c = acc.get(key, 0) + coeff
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
    return acc


class Expression(_Frozen):
    """Integer-linear combination of legal terms over a fixed universe."""

    __slots__ = ("universe", "terms")
    universe: int
    terms: Mapping[LegalTerm, int]

    def __init__(self, universe: int, terms: Optional[Mapping[LegalTerm, int]] = None) -> None:
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "terms", {} if terms is None else terms)

    @staticmethod
    def build(universe: int, entries: Iterable[tuple[int, Iterable[ZetaAtom]]]) -> "Expression":
        """Sum coeff * term pairs, validating each term as it is drawn."""
        pairs = ((validate_legal_term(atoms, universe), coeff) for coeff, atoms in entries)
        return Expression(universe, _add_pairs({}, pairs))

    def __add__(self, other: "Expression") -> "Expression":
        if self.universe != other.universe:
            raise LegalityError("universe mismatch")
        return Expression(self.universe, _add_pairs(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Expression":
        return Expression(self.universe, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def scale(self, k: int) -> "Expression":
        if k == 0:
            return Expression(self.universe, {})
        return Expression(self.universe, {t: k * c for t, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self.universe == other.universe and dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[LegalTerm, int]]:
        key, _ = term_order(self.terms)
        return [(term, self.terms[term]) for term in sorted(self.terms, key=key)]


def term_order(
    terms: Iterable[LegalTerm],
) -> tuple[Callable[[LegalTerm], tuple], dict[Block, int]]:
    """A sort key on legal terms, and the rank of each distinct block.

    Terms compare by atom count, then atom by atom in partition order
    (`partitions.partition_order`, which gives the ranks).
    """
    key, rank = partition_order(atom for term in terms for atom in term)
    return (lambda term: (len(term), *map(key, term))), rank


class CanonicalForm(_Frozen):
    """Linear combination of single zeta factors indexed by ordered partitions."""

    __slots__ = ("universe", "coeffs")
    universe: int
    coeffs: Mapping[tuple[Block, ...], int]

    def __init__(
        self, universe: int, coeffs: Optional[Mapping[tuple[Block, ...], int]] = None
    ) -> None:
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "coeffs", {} if coeffs is None else coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self.universe == other.universe and dict(self.coeffs) == dict(other.coeffs)

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.coeffs.items())))


# Most word slots (words times their length bound) one call may build: a
# single stuffle_product, or normalize's running total of term bounds.
# Hoffman n=8 (1,564,179 slots) fits; two depth-9 atoms (26,326,134) do not.
CANONICAL_BUDGET_WORDS = 1 << 22


def _check_slots(estimate: int) -> None:
    if estimate > CANONICAL_BUDGET_WORDS:
        raise ValueError(
            f"canonical expansion refused: estimate {estimate} slots"
            f" > budget {CANONICAL_BUDGET_WORDS} slots"
        )


def stuffle_product(u: ZetaAtom, v: ZetaAtom) -> dict[ZetaAtom, int]:
    """Interleavings-with-merges of two disjoint block tuples, each mapped
    to its multiplicity.

    Implements the three-branch recursion: take the head of u, take the
    head of v, or merge both heads (block union standing in for the sum
    of two scalar arguments), with u * () = () * u = {u}.  Each operand
    must be a legal atom, and disjoint non-empty blocks make every
    multiplicity 1.  Refused before any word is built when
    `stuffle_size(len(u), len(v)) * (len(u) + len(v))` slots exceed
    CANONICAL_BUDGET_WORDS.
    """
    if atom_support(u) & atom_support(v):
        raise LegalityError("operands share a variable")
    for atom in filter(None, (u, v)):
        validate_legal_term((atom,), atom_support(atom))
    _check_slots(stuffle_size(len(u), len(v)) * (len(u) + len(v)))
    return dict.fromkeys(_stuffle_words(u, v), 1)


def _stuffle_words(u: ZetaAtom, v: ZetaAtom) -> list[ZetaAtom]:
    """Words of the stuffle of disjoint u and v, each listed once.

    Iterative form of the head-first recursion over the suffix grid:
    cell (i, j) holds the words of u[i:] * v[j:], built from cells
    (i+1, j), (i, j+1) and (i+1, j+1); only two rows are kept.  The
    result is in the recursion's order.  Because blocks are disjoint and
    non-empty, a word determines its interleaving, so no word repeats.
    """
    n = len(v)
    below = [[v[j:]] for j in range(n + 1)]  # row i = len(u): () * v[j:]
    for i in range(len(u) - 1, -1, -1):
        a = u[i]
        row = [None] * n + [[u[i:]]]  # column n: u[i:] * ()
        for j in range(n - 1, -1, -1):
            b = v[j]
            row[j] = (
                [(a,) + w for w in below[j]]
                + [(b,) + w for w in row[j + 1]]
                + [(a | b,) + w for w in below[j + 1]]
            )
        below = row
    return below[0]


@lru_cache(maxsize=None)
def stuffle_size(m: int, n: int) -> int:
    """Closed-form size of the stuffle multiset for tuple lengths m, n.

    Cached because normalize takes it for every product term it bounds.
    """
    return sum(comb(m, k) * comb(n, k) * 2**k for k in range(min(m, n) + 1))


def normalize(expr: Expression) -> CanonicalForm:
    """Expand every term into single zeta factors.

    A one-atom term is its own word: its coefficient goes to its own key,
    and its depth joins the running total of slots.  A product term takes
    one of two paths.

    A term with an atom of depth 2 or more is folded with repeated
    stuffles.  Its atoms are disjoint, so each folded word occurs exactly
    once and adds the term's coefficient once.  Before it is expanded its
    slot bound, the product of `stuffle_size(depth so far, len(atom))`
    over the fold (exact for two atoms) times the term's total depth,
    joins a running total.

    A term c*zeta(b_1)...zeta(b_k) of depth-1 atoms puts c on every
    ordering of every coarsening of {b_1..b_k} (Hoffman's description of
    the quasi-shuffle), so its coefficient on a key depends only on the
    key's unordered partition.  Such terms are first summed per unordered
    partition, g(sigma) = sum of c over the terms that sigma coarsens, by
    walking each term's Bell(k) coarsenings (the zeta transform on the
    partition lattice), and each term adds Bell(k)*k to the running total
    before any is built, since a coarsening holds up to k blocks.
    After the last term every ordering of each sigma with g(sigma) != 0
    gets g(sigma); before any is built the total gains r!*r for each such
    sigma of r blocks.

    The running total may never exceed CANONICAL_BUDGET_WORDS.
    """
    acc: dict[tuple[Block, ...], int] = {}
    lattice: dict[tuple[Block, ...], int] = {}  # sigma -> g(sigma)
    estimate = 0

    def add(parts: tuple[Block, ...], coeff: int) -> None:
        c = acc.get(parts, 0) + coeff
        if c:
            acc[parts] = c
        else:
            acc.pop(parts, None)

    for term, coeff in expr.terms.items():
        if len(term) == 1:
            (atom,) = term
            estimate += len(atom)
            _check_slots(estimate)
            add(atom, coeff)
            continue
        if all(len(atom) == 1 for atom in term):
            estimate += bell_count(len(term)) * len(term)
            _check_slots(estimate)
            for sigma in coarsenings(block for (block,) in term):
                lattice[sigma] = lattice.get(sigma, 0) + coeff
            continue
        first, *rest = term
        depth, bound = len(first), 1
        for atom in rest:
            bound *= stuffle_size(depth, len(atom))
            depth += len(atom)
        estimate += bound * depth
        _check_slots(estimate)
        words = [first]
        for atom in rest:
            words = [w2 for w in words for w2 in _stuffle_words(w, atom)]
        for parts in words:
            add(parts, coeff)
    lattice = {sigma: g for sigma, g in lattice.items() if g}
    estimate += sum(factorial(len(sigma)) * len(sigma) for sigma in lattice)
    _check_slots(estimate)
    for sigma, g in lattice.items():
        for parts in permutations(sigma):
            add(parts, g)
    return CanonicalForm(expr.universe, acc)


def is_partition_identity(
    expr: Expression,
) -> tuple[bool, Optional[tuple[tuple[Block, ...], int]]]:
    """True iff the expression vanishes identically.

    On failure returns a refutation witness: one ordered partition of
    the universe together with its nonzero canonical coefficient.
    """
    canon = normalize(expr)
    if canon.is_zero():
        return True, None
    key, _ = partition_order(canon.coeffs)
    parts = min(canon.coeffs, key=key)
    return False, (parts, canon.coeffs[parts])
