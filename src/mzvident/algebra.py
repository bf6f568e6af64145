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
from itertools import permutations, repeat
from math import comb, factorial, prod
from operator import eq
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
    a value through its constructor.  Values of one class are equal when
    their fields are, and hash by their fields, a mapping field by its items.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(frozenset(f.items()) if isinstance(f, Mapping) else f for f in self._fields()))

    def __reduce__(self):
        return type(self), self._fields()


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


# Most word slots (words times their length bound) one call may build: a
# single stuffle_product, or normalize's running total of term bounds.
# Hoffman n=8 (355,683 slots) and n=9 (3,456,246) fit, since normalize
# cancels their products through the Moebius move; two depth-9 atoms
# (26,326,134) do not.
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


@lru_cache(maxsize=None)
def _mobius_row(r: int) -> tuple[int, ...]:
    """mu(sigma, tau) for sigma of r blocks and each coarsening tau, in
    `coarsenings` order: the product of (-1)^(k-1) (k-1)! over tau's
    blocks, each the union of k blocks of sigma."""
    return tuple(
        prod((-1) ** (k - 1) * factorial(k - 1) for k in map(int.bit_count, tau))
        for tau in coarsenings(1 << i for i in range(r))
    )


def normalize(expr: Expression) -> CanonicalForm:
    """Expand every term into single zeta factors.

    Terms with coefficient 0 are skipped.  One-atom terms are distinct
    words: they seed the result in one step, and their total depth opens
    the running total of slots.  A product term takes one of two paths.

    A term with an atom of depth 2 or more is folded with repeated
    stuffles.  Its atoms are disjoint, so each folded word occurs exactly
    once and adds the term's coefficient once.  Before it is expanded its
    slot bound, the product of `stuffle_size(depth so far, len(atom))`
    over the fold (exact for two atoms) times the term's total depth,
    joins a running total.

    A term c*zeta(b_1)...zeta(b_k) of depth-1 atoms puts c on every
    ordering of every coarsening of sigma = {b_1..b_k} (Hoffman's
    description of the quasi-shuffle).  Such terms are kept as c(sigma),
    and at the end every ordering of each tau gets g(tau), the sum of c
    over the sigma that tau coarsens (the zeta transform on the partition
    lattice).  Before that, finest first, a class sigma of c whose r!
    orderings all carry v = -c(sigma) among the words so far is moved:
    those words are the zeta transform of v*mu(sigma, .), mu the lattice's
    Moebius function (Rota), so they are deleted and v*mu(sigma, tau) is
    added to c(tau) over sigma's Bell(r) coarsenings.  That cancels
    c(sigma), and in Hoffman's identity every product.  A move adds
    Bell(r)*r to the running total, each entry of c left adds Bell(k)*k
    before its walk, and each tau of r blocks with g(tau) != 0 adds r!*r
    before any ordering is built.

    The running total may never exceed CANONICAL_BUDGET_WORDS.
    """
    acc: dict[tuple[Block, ...], int] = {
        term[0]: coeff for term, coeff in expr.terms.items() if coeff and len(term) == 1
    }
    lattice: dict[tuple[Block, ...], int] = {}  # sigma -> c(sigma)
    estimate = sum(map(len, acc))
    _check_slots(estimate)
    for term, coeff in expr.terms.items():
        if not coeff or len(term) == 1:  # nothing to add, or already in acc
            continue
        if all(len(atom) == 1 for atom in term):
            lattice[tuple(block for (block,) in term)] = coeff
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
        _add_pairs(acc, zip(words, repeat(coeff)))
    # Finest classes first: a move changes c only on coarser classes, so
    # the moves made, and the total, do not depend on the order of terms.
    for sigma in sorted(lattice, key=len, reverse=True):
        v, r = -lattice.get(sigma, 0), len(sigma)
        # Probe one ordering first.  The full check stops at the first
        # ordering without v; each word of acc orders one class only, so
        # all checks read at most len(acc) plus one word per class.
        if acc.get(sigma) != v or factorial(r) > len(acc) or not all(
            map(eq, map(acc.get, permutations(sigma)), repeat(v))
        ):
            continue
        estimate += bell_count(r) * r
        _check_slots(estimate)
        for parts in permutations(sigma):
            del acc[parts]
        _add_pairs(lattice, zip(coarsenings(sigma), [v * mu for mu in _mobius_row(r)]))
    zeta: dict[tuple[Block, ...], int] = {}  # tau -> g(tau)
    for sigma, coeff in lattice.items():
        estimate += bell_count(len(sigma)) * len(sigma)
        _check_slots(estimate)
        _add_pairs(zeta, zip(coarsenings(sigma), repeat(coeff)))
    estimate += sum(factorial(len(tau)) * len(tau) for tau in zeta)
    _check_slots(estimate)
    for tau, g in zeta.items():
        _add_pairs(acc, zip(permutations(tau), repeat(g)))
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
