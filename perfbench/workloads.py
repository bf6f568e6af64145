"""Seeded input generators for the three benchmark workloads.

Every verdict label comes from how an input was built, never from the
engine under test:

* Hoffman's symmetric-sum identity is a theorem; its terms are produced
  here from a set-partition enumeration of our own.
* "product minus its expansion" uses the reference quasi-shuffle below,
  a last-letter dynamic program written independently of the engine's
  head-first recursion.
* A perturbation adds one legal term c*T with c != 0.  The rest of the
  expression normalizes to zero, so the canonical form is c*normalize(T),
  whose stuffle multiplicities are all positive: never zero.

Representation: a block is a bitmask of variables (bit j-1 for s_j), an
atom is a tuple of blocks (one zeta factor), a term is a tuple of atoms
sorted by smallest variable, and an expression is a dict term -> coeff.
This is the same shape as the engine's legal terms, so the property
helpers here also read the engine's parsed expressions.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from math import factorial
from typing import Iterable, Iterator, Optional

Block = int
Atom = tuple[Block, ...]
Term = tuple[Atom, ...]


def _low(mask: int) -> int:
    return (mask & -mask).bit_length()


def canon_term(atoms: Iterable[Atom]) -> Term:
    return tuple(sorted(atoms, key=lambda a: _low(_support(a))))


def _support(atom: Atom) -> int:
    m = 0
    for b in atom:
        m |= b
    return m


def add_term(expr: dict, term: Term, coeff: int) -> None:
    c = expr.get(term, 0) + coeff
    if c:
        expr[term] = c
    else:
        expr.pop(term, None)


# --- reference algebra ------------------------------------------------------


def set_partitions(mask: int) -> list[tuple[int, ...]]:
    """Unordered set partitions of a bitmask; the part holding the lowest
    remaining variable is chosen first."""
    if not mask:
        return [()]
    low = mask & -mask
    rest = mask & ~low
    out = []
    sub = rest
    while True:
        part = low | sub
        for tail in set_partitions(mask & ~part):
            out.append((part,) + tail)
        if not sub:
            break
        sub = (sub - 1) & rest
    return out


def hoffman_terms(n: int) -> dict:
    """Hoffman's symmetric-sum identity over s1..sn (zero as a theorem):
    sum over orderings of zeta(s_p1,...,s_pn) minus the signed products
    (-1)^(n-k) prod (|P_i|-1)! zeta(sum P_1)...zeta(sum P_k)."""
    expr: dict = {}
    for perm in itertools.permutations(range(n)):
        add_term(expr, (tuple(1 << j for j in perm),), 1)
    for parts in set_partitions((1 << n) - 1):
        coeff = (-1) ** (n - len(parts))
        for p in parts:
            coeff *= factorial(p.bit_count() - 1)
        add_term(expr, canon_term((p,) for p in parts), -coeff)
    return expr


def quasi_shuffle(u: Atom, v: Atom) -> Counter:
    """Quasi-shuffle of two disjoint block words, built by last letter:
    Q(ua, vb) = Q(u, vb)a + Q(ua, v)b + Q(u, v)(a|b)."""
    rows = [[Counter() for _ in range(len(v) + 1)] for _ in range(len(u) + 1)]
    for i in range(len(u) + 1):
        rows[i][0][u[:i]] = 1
    for j in range(len(v) + 1):
        rows[0][j][v[:j]] = 1
    for i in range(1, len(u) + 1):
        a = u[i - 1]
        for j in range(1, len(v) + 1):
            b = v[j - 1]
            cell = rows[i][j]
            for w, m in rows[i - 1][j].items():
                cell[w + (a,)] += m
            for w, m in rows[i][j - 1].items():
                cell[w + (b,)] += m
            for w, m in rows[i - 1][j - 1].items():
                cell[w + (a | b,)] += m
    return rows[len(u)][len(v)]


def expand_product(atoms: Iterable[Atom]) -> Counter:
    """Fold the quasi-shuffle over a product of atoms."""
    atoms = list(atoms)
    acc = Counter({atoms[0]: 1})
    for atom in atoms[1:]:
        nxt: Counter = Counter()
        for w, m in acc.items():
            for w2, m2 in quasi_shuffle(w, atom).items():
                nxt[w2] += m * m2
        acc = nxt
    return acc


# --- input properties -------------------------------------------------------


def reuse_counts(terms: Iterable[Term]) -> tuple[int, int, int, int]:
    """(atom evaluations, distinct atoms, DP levels, distinct suffixes)
    for one numeric pass over the terms: what an atom cache or a shared
    suffix table could save."""
    evals = levels = 0
    atoms: set = set()
    suffixes: set = set()
    for term in terms:
        for atom in term:
            evals += 1
            levels += len(atom)
            if atom not in atoms:
                atoms.add(atom)
                suffixes.update(atom[i:] for i in range(len(atom)))
    return evals, len(atoms), levels, len(suffixes)


def lcd_supports(terms: Iterable[Term]) -> Counter:
    """Denominator factors of the rational route: support -> max power."""
    lcd: Counter = Counter()
    for term in terms:
        powers: Counter = Counter()
        for atom in term:
            prefix = 0
            for block in atom:
                prefix |= block
                powers[prefix] += 1
        for s, m in powers.items():
            if m > lcd[s]:
                lcd[s] = m
    return lcd


# --- text -------------------------------------------------------------------


def _block_text(block: int) -> str:
    return "+".join(f"s{j + 1}" for j in range(block.bit_length()) if block >> j & 1)


def atom_text(atom: Atom) -> str:
    return "zeta(" + ",".join(_block_text(b) for b in atom) + ")"


def expression_text(expr: dict) -> str:
    pieces = []
    for term, coeff in expr.items():
        body = "*".join(atom_text(a) for a in term)
        mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
        if pieces:
            pieces.append(f" {'-' if coeff < 0 else '+'} {mag}{body}")
        else:
            pieces.append(f"{'-' if coeff < 0 else ''}{mag}{body}")
    return "".join(pieces) or "0"


# --- random legal pieces ----------------------------------------------------


def random_blocks(variables: list[int], rng: random.Random, pair_p: float) -> list[int]:
    """Cut a shuffled variable list into blocks of one or two variables."""
    rng.shuffle(variables)
    blocks, i = [], 0
    while i < len(variables):
        if i + 1 < len(variables) and rng.random() < pair_p:
            blocks.append((1 << variables[i]) | (1 << variables[i + 1]))
            i += 2
        else:
            blocks.append(1 << variables[i])
            i += 1
    return blocks


def small_term(n: int, rng: random.Random) -> Term:
    """A random legal term of one or two atoms with at most three blocks
    each.  Its canonical form has at most 63 keys, so a perturbation costs
    about the same in every op, and its value is large enough for a
    numeric trial to see against rounding."""
    variables = list(range(n))
    rng.shuffle(variables)
    cut = rng.randint(1, n - 1) if n > 1 and rng.random() < 0.5 else n
    atoms = []
    for group in (variables[:cut], variables[cut:]):
        if not group:
            continue
        depth = rng.randint(1, min(3, len(group)))
        edges = sorted(rng.sample(range(1, len(group)), depth - 1))
        atoms.append(tuple(sum(1 << v for v in group[a:b])
                           for a, b in zip([0, *edges], [*edges, len(group)])))
    return canon_term(atoms)


def nonzero(rng: random.Random, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, hi)


# --- operations ---------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop operation and what its answer must be."""

    command: str  # "verify" or "normalize"
    text: str
    methods: tuple[str, ...] = ()
    label: Optional[bool] = None  # verify: is an identity
    expected: Optional[dict] = None  # normalize: ordered partition -> coeff
    props: dict = field(default_factory=dict)


def _props(command: str, expr: dict, n: int) -> dict:
    evals, atoms, levels, suffixes = reuse_counts(expr)
    return {
        "command": command,
        "n": n,
        "terms": len(expr),
        "max_depth": max((len(a) for t in expr for a in t), default=0),
        "atom_evals": evals,
        "distinct_atoms": atoms,
        "dp_levels": levels,
        "distinct_suffixes": suffixes,
        "lcd_factors": len(lcd_supports(expr)),
    }


def _verify_op(expr: dict, n: int, label: bool, methods: tuple[str, ...]) -> Op:
    return Op("verify", expression_text(expr), methods, label=label, props=_props("verify", expr, n))


class Workload:
    """A named op stream.  `rounds(seed)` yields lists of ops whose cost mix
    is the same in every round and every seed; only the contents vary.
    Ops never repeat within a stream."""

    name: str
    why: str
    # Fixed per workload, so a faster engine reports the same percentile;
    # runs last until at least ten samples lie beyond it.
    tail_pct: int
    schedule: list  # one slot per op of a round, passed to make()
    op_limit_s = 60.0
    in_process = True

    def make(self, slot, identity: bool, rng: random.Random) -> Op:
        """The op for one slot; `identity` is the label it must carry."""
        raise NotImplementedError

    def min_ops(self) -> int:
        """Fewest ops giving at least 10 samples beyond the tail percentile."""
        return -(-10 * 100 // (100 - self.tail_pct))

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(f"{self.name}:{seed}")
        seen: set = set()
        for round_no in itertools.count():
            ops = []
            for i, slot in enumerate(self.schedule):
                # Labels alternate by position, so every round and every
                # seed has the same share of identities.
                identity = (round_no + i) % 2 == 0
                for _ in range(100):
                    op = self.make(slot, identity, rng)
                    digest = hashlib.sha1(op.text.encode()).digest()
                    if digest not in seen:
                        break
                else:
                    raise RuntimeError(f"{self.name}: no fresh input for slot {slot!r}")
                seen.add(digest)
                op.props["digest"] = digest.hex()
                ops.append(op)
            yield ops


class Hoffman(Workload):
    """k*H_n for n = 5..7, half of them perturbed by one term c*T."""

    name = "hoffman"
    why = (
        "Hoffman n=5..7 under canonical,numeric: many tiny repeated stuffles "
        "and heavy atom reuse in numeric; the rational route is bypassed"
    )
    methods = ("canonical", "numeric")
    tail_pct = 85
    # Per round: ten n=5, four n=6, one n=7.  The sizes cost about 1:7:70,
    # so latencies fall in three groups; the median sits 75% of the way up
    # the n=5 group and p85 70% of the way up the n=6 group.  A quantile in
    # the middle of a group would jump between runs with the machine's
    # slow and fast phases.
    schedule = [7, 5, 6, 5, 5, 6, 5, 5, 6, 5, 5, 6, 5, 5, 5]

    def __init__(self) -> None:
        self._base = {n: hoffman_terms(n) for n in set(self.schedule)}

    def make(self, n, identity, rng) -> Op:
        k = rng.randint(2, 999)
        expr = {t: k * c for t, c in self._base[n].items()}
        if not identity:
            add_term(expr, small_term(n, rng), nonzero(rng, 9))
        return _verify_op(expr, n, identity, self.methods)


class RationalSmall(Workload):
    """Scaled sums of stuffle identities (n=3..5) and of Hoffman n=4, plus
    their one-term perturbations, under all three methods."""

    name = "rational-small"
    why = (
        "mostly n=4 stuffle sums under all three methods: the rational zero "
        "test dominates and stuffles are trivial"
    )
    methods = ("canonical", "rational", "numeric")
    # The two Hoffman n=4 slots are the costliest 10% of ops; p97 sits 70%
    # of the way up that group.
    tail_pct = 97
    op_limit_s = 30.0
    # (n, number of LCD factors) per slot: 18 of 20 ops at n=4.  Op cost
    # grows steeply with the LCD factor count, so fixing it per slot keeps
    # the cost mix the same for every seed.  Factor count 15 at n=4 (every
    # subset of {1..4}) is a scaled Hoffman n=4.
    schedule = (
        [(3, 7)]
        + [(4, lcd) for lcd in (10, 11, 12, 13, 14, 11, 12, 13, 10, 11, 12, 13, 14, 11, 12, 13)]
        + [(4, 15), (4, 15)]
        + [(5, 14)]
    )

    def __init__(self) -> None:
        self._hoffman4 = hoffman_terms(4)

    def _stuffle_identity(self, n: int, rng: random.Random) -> dict:
        blocks = random_blocks(list(range(n)), rng, 0.3)
        while len(blocks) < 2:
            blocks = random_blocks(list(range(n)), rng, 0.3)
        cut = rng.randint(1, len(blocks) - 1)
        u, v = tuple(blocks[:cut]), tuple(blocks[cut:])
        expr: dict = {}
        add_term(expr, canon_term((u, v)), 1)
        for w, m in quasi_shuffle(u, v).items():
            add_term(expr, (w,), -m)
        return expr

    def _candidate(self, n: int, lcd_target: int, rng: random.Random) -> dict:
        if (n, lcd_target) == (4, 15):
            k = rng.randint(2, 999)
            return {t: k * c for t, c in self._hoffman4.items()}
        expr: dict = {}
        for _ in range(rng.randint(2, 3)):
            a = nonzero(rng, 5)
            for t, c in self._stuffle_identity(n, rng).items():
                add_term(expr, t, a * c)
        return expr

    def make(self, slot, identity, rng) -> Op:
        n, lcd_target = slot
        best = None
        for _ in range(400):
            expr = self._candidate(n, lcd_target, rng)
            if not identity:
                add_term(expr, small_term(n, rng), nonzero(rng, 9))
            if not expr:
                continue
            gap = abs(len(lcd_supports(expr)) - lcd_target)
            if best is None or gap < best[0]:
                best = (gap, expr)
            if gap == 0:
                break
        return _verify_op(best[1], n, identity, self.methods)


class DeepCli(Workload):
    """`python -m mzvident.cli` on products of 2-3 deep atoms over n=9..10."""

    name = "deep-cli"
    why = (
        "CLI subprocesses on products of deep atoms (n=9..10): few large "
        "stuffles, no atom reuse, large structured outputs, process start-up"
    )
    methods = ("canonical", "numeric")
    tail_pct = 60
    in_process = False
    # Per round: one (5,5) verify and one (3,3,3) normalize, each about
    # 1.3 s on a 2-vCPU x86_64 VM.  Their costs overlap, so the median and
    # p60 do not jump between op kinds from run to run.
    schedule = [("verify", (5, 5)), ("normalize", (3, 3, 3))]

    def __init__(self) -> None:
        self._templates: dict = {}

    def _template(self, shape: tuple[int, ...]) -> tuple[list[Atom], Counter]:
        """The product over abstract letters 0..n-1 (bit i) and its expansion."""
        if shape not in self._templates:
            atoms, i = [], 0
            for d in shape:
                atoms.append(tuple(1 << j for j in range(i, i + d)))
                i += d
            self._templates[shape] = (atoms, expand_product(atoms))
        return self._templates[shape]

    def make(self, slot, identity, rng) -> Op:
        command, shape = slot
        n = sum(shape)
        atoms, expansion = self._template(shape)
        perm = list(range(n))
        rng.shuffle(perm)
        memo: dict = {}

        def relabel(block: int) -> int:
            if block not in memo:
                memo[block] = sum(1 << perm[j] for j in range(n) if block >> j & 1)
            return memo[block]

        product = canon_term(tuple(relabel(b) for b in a) for a in atoms)
        if command == "normalize":
            expected = {tuple(relabel(b) for b in w): m for w, m in expansion.items()}
            return Op("normalize", expression_text({product: 1}), expected=expected,
                      props=_props("normalize", {product: 1}, n))
        k = rng.randint(1, 9)
        expr: dict = {product: k}
        for w, m in expansion.items():
            add_term(expr, (tuple(relabel(b) for b in w),), -k * m)
        if not identity:
            add_term(expr, small_term(n, rng), nonzero(rng, 9))
        return _verify_op(expr, n, identity, self.methods)


WORKLOADS = {w.name: w for w in (Hoffman, RationalSmall, DeepCli)}
