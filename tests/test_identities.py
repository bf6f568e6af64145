import copy
import itertools
import json
import pickle
import random
from math import factorial

import pytest

import mzvident.identities
from mzvident.algebra import (
    Expression,
    LegalityError,
    is_partition_identity,
    normalize,
)
from mzvident.identities import (
    IdentityReport,
    hoffman_identity,
    random_expression,
    stuffle_identity,
    verify,
)
from mzvident.indexsets import full_universe, mask_of
from mzvident.numeric import random_assignment, residuals, term_values
from mzvident.parsing import ParseError, parse, serialize
from mzvident.partitions import bell_count, unordered_set_partitions
from mzvident.ratfun import is_zero_combination, rational_terms_of_expression


def blk(*idx):
    return mask_of(idx)


# --- stuffle identities ----------------------------------------------------


def test_stuffle_identity_two_by_two():
    expr = stuffle_identity((blk(1), blk(2)), (blk(3), blk(4)))
    assert len(expr.terms) == 14  # one product plus thirteen singles
    assert is_partition_identity(expr)[0]


def test_stuffle_identity_depth_one():
    expr = stuffle_identity((blk(1),), (blk(2),))
    expected = parse("zeta(s1)*zeta(s2) - zeta(s1,s2) - zeta(s2,s1) - zeta(s1+s2)")
    assert expr == expected
    assert is_partition_identity(expr)[0]


def test_stuffle_identity_empty_operand():
    expr = stuffle_identity((blk(1),), ())
    assert expr.is_zero()


def test_stuffle_identity_all_small_shapes():
    for total in range(2, 7):
        for m in range(0, total + 1):
            u = tuple(blk(i) for i in range(1, m + 1))
            v = tuple(blk(i) for i in range(m + 1, total + 1))
            assert is_partition_identity(stuffle_identity(u, v))[0], (m, total)


# --- Hoffman's identity ----------------------------------------------------


def test_hoffman_n1_is_zero():
    assert hoffman_identity(1).is_zero()


def test_hoffman_n2_terms():
    expr = hoffman_identity(2)
    expected = parse("zeta(s1,s2) + zeta(s2,s1) - zeta(s1)*zeta(s2) + zeta(s1+s2)")
    assert expr == expected


def test_hoffman_n3_shape_and_verdict():
    expr = hoffman_identity(3)
    lhs_terms = [t for t in expr.terms if len(t) == 1 and len(t[0]) == 3]
    assert len(lhs_terms) == 6
    assert is_partition_identity(expr)[0]


def test_hoffman_term_counts():
    # For n >= 2 the depth-n permutation terms and the products of depth-1
    # factors never coincide, so both sides survive uncollapsed.
    for n in (2, 3, 4, 5):
        expr = hoffman_identity(n)
        perm_terms = [t for t in expr.terms if len(t) == 1 and len(t[0]) == n]
        assert len(perm_terms) == factorial(n)
        assert len(expr.terms) == factorial(n) + bell_count(n)


def test_hoffman_identity_holds_up_to_six():
    for n in range(1, 7):
        assert is_partition_identity(hoffman_identity(n))[0], n


def validated_hoffman(n):
    """Hoffman's identity summed through Expression.build, which validates
    and canonicalizes every term."""
    universe = full_universe(n)
    entries = [(1, (tuple(blk(j) for j in perm),))
               for perm in itertools.permutations(range(1, n + 1))]
    for parts in unordered_set_partitions(universe):
        coeff = (-1) ** (n - len(parts))
        for p in parts:
            coeff *= factorial(p.bit_count() - 1)
        entries.append((-coeff, tuple((p,) for p in parts)))
    return Expression.build(universe, entries)


def test_hoffman_identity_equals_validated_build():
    # The generator's terms skip validation, so they must already be the
    # canonical legal terms, with the same coefficients and dict order.
    for n in range(1, 9):
        got, want = hoffman_identity(n), validated_hoffman(n)
        assert got == want, n
        assert list(got.terms.items()) == list(want.terms.items()), n


def test_hoffman_out_of_range():
    with pytest.raises(ValueError):
        hoffman_identity(0)
    with pytest.raises(ValueError, match=r"n must be in 1\.\.8"):
        hoffman_identity(9)


def test_verify_never_sees_an_empty_term():
    # The library's one builder refuses an empty term, the parser cannot
    # express one, and the empty stuffle identity has no terms at all.
    with pytest.raises(LegalityError, match="empty term"):
        verify(Expression.build(0, [(3, ())]))
    for text in ("", "  ", "2*"):
        with pytest.raises(ParseError):
            verify(parse(text))
    empty = stuffle_identity((), ())
    assert not empty.terms and verify(empty).is_identity


def test_hoffman_rational_form():
    for n in (2, 3, 4):
        expr = hoffman_identity(n)
        terms = rational_terms_of_expression(expr.terms.items())
        assert is_zero_combination(terms)


# --- verify driver ---------------------------------------------------------

EXAMPLE_TEXT = (
    "2*zeta(s1+s2+s3) - zeta(s2)*zeta(s1+s3) - zeta(s3)*zeta(s1+s2)"
    " + zeta(s1+s2,s3) + zeta(s2,s1+s3) + zeta(s1+s3,s2) + zeta(s3,s1+s2)"
)


def test_verify_example_all_methods():
    report = verify(parse(EXAMPLE_TEXT), methods=("canonical", "rational", "numeric"))
    assert report.verdict == "identity"
    assert report.agreement
    assert report.witness is None
    assert report.per_method == {"canonical": True, "rational": True, "numeric": True}


def test_verify_hoffman4_canonical_rational():
    report = verify(hoffman_identity(4), methods=("canonical", "rational"))
    assert report.verdict == "identity"
    assert report.agreement
    assert list(report.per_method) == ["canonical", "rational"]


def test_verify_hoffman6_runs_every_vote():
    # Past the exact rational test's budget the modular vote still runs.
    report = verify(hoffman_identity(6))
    assert report.verdict == "identity"
    assert report.per_method == {"canonical": True, "rational": True, "numeric": True}
    assert report.agreement
    assert "method rational: identity" in serialize(report).splitlines()
    doc = json.loads(serialize(report, "structured"))
    assert doc["methods"] == report.per_method
    assert "skipped" not in doc


def test_verify_passes_its_seed_to_the_rational_vote(monkeypatch):
    # The benchmark's tracer wraps this name and reads the terms from the
    # first argument.
    calls = []

    def vote(terms, seed):
        calls.append((terms, seed))
        return True

    monkeypatch.setattr(mzvident.identities, "is_zero_combination", vote)
    expr = parse(EXAMPLE_TEXT)
    verify(expr, methods=["rational"], seed=12345)
    assert calls == [(rational_terms_of_expression(expr.terms.items()), 12345)]


def test_verify_perturbed_stuffle_identity():
    expr = stuffle_identity((blk(1), blk(2)), (blk(3),))
    # bump one coefficient by +1
    term = next(iter(expr.terms))
    perturbed = expr + Expression(expr.universe, {term: 1})
    report = verify(perturbed, methods=("canonical",))
    assert report.verdict == "not-identity"
    assert report.witness is not None
    parts, coeff = report.witness
    assert normalize(perturbed).coeffs[parts] == coeff != 0


def test_verify_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        verify(parse("zeta(s1)"), methods=("magic",))


def test_verify_requires_a_method():
    with pytest.raises(ValueError) as info:
        verify(parse("zeta(s1)"), methods=[])
    assert str(info.value) == "no method requested; choose from canonical, rational, numeric"


def test_verify_refuses_a_bare_string_of_methods():
    # Iterated, "numeric" would be the names 'n', 'u', ...: name the string.
    for methods in ("numeric", "canonical,numeric"):
        with pytest.raises(TypeError) as info:
            verify(parse("zeta(s1)"), methods)
        assert str(info.value) == (
            f"methods must be an iterable of method names, not the string {methods!r}")


def test_verify_accepts_a_one_pass_iterable():
    report = verify(parse("zeta(s1)*zeta(s2) - zeta(s1,s2)"), iter(["numeric", "canonical"]))
    assert report.per_method == {"canonical": False, "numeric": False}


def test_report_stores_only_observations():
    assert IdentityReport.__slots__ == ("witness", "per_method")


def test_report_compares_by_fields_and_is_unhashable():
    report = verify(parse("zeta(s1)*zeta(s2) - zeta(s1,s2)"))
    same = IdentityReport(report.witness, dict(report.per_method))
    assert report == same and report != IdentityReport(report.witness)
    assert IdentityReport(None) == IdentityReport(witness=None, per_method={})
    with pytest.raises(TypeError):
        hash(report)
    a, b = IdentityReport(None), IdentityReport(None)
    a.per_method["numeric"] = True  # mutable, and each default dict is its own
    assert b.per_method == {}
    assert repr(b) == "IdentityReport(witness=None, per_method={})"
    for clone in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert type(clone) is IdentityReport and clone == report


def test_report_derives_verdict_and_agreement():
    refuted = IdentityReport(((1,), 1))
    assert refuted.verdict == "not-identity" and not refuted.is_identity
    assert refuted.agreement  # no vote ran
    assert IdentityReport(witness=None, per_method={"numeric": False}).agreement is False
    assert IdentityReport(witness=None, per_method={"numeric": True}).verdict == "identity"
    for name in ("verdict", "is_identity", "agreement"):
        with pytest.raises(AttributeError):
            setattr(refuted, name, True)


def test_method_agreement_random():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 4)
        expr = random_expression(full_universe(n), rng)
        if expr.is_zero():
            continue
        report = verify(expr, methods=("canonical", "rational"))
        assert report.agreement


def test_numeric_agrees_with_canonical_random():
    # Half the inputs are identities: a scaled stuffle identity plus H_n.
    rng = random.Random(67)
    votes = set()
    for i in range(200):
        n = rng.randint(1, 5)
        if i % 2:
            expr = random_expression(full_universe(n), rng)
        else:
            cut = rng.randint(0, n)
            expr = stuffle_identity(
                tuple(blk(j) for j in range(1, cut + 1)),
                tuple(blk(j) for j in range(cut + 1, n + 1)),
            ).scale(rng.randint(1, 10**6)) + hoffman_identity(n)
        report = verify(expr, ("canonical", "numeric"), seed=i)
        assert report.agreement, (i, report.per_method)
        votes.add(report.per_method["numeric"])
    assert votes == {True, False}


def test_numeric_vote_not_diluted_by_a_scaled_identity():
    # Scaling a true identity by 1000 hides the perturbation from a float
    # residual relative to the term magnitudes, but not from the exact value.
    expr = hoffman_identity(7).scale(1000) - parse("zeta(s1+s2+s4,s5+s6,s3+s7)").scale(2)
    assign = random_assignment(expr.universe, random.Random(1))
    assert residuals(term_values(expr, assign, 50))[1] < 1e-10
    report = verify(expr, ("canonical", "numeric"))
    assert report.per_method == {"canonical": False, "numeric": False}


def test_perturbation_flips_verdict():
    rng = random.Random(59)
    identities = [hoffman_identity(n) for n in (2, 3, 4)] + [
        stuffle_identity((blk(1),), (blk(2), blk(3))),
        stuffle_identity((blk(1), blk(4)), (blk(2), blk(3))),
    ]
    from mzvident.partitions import ordered_set_partitions

    for expr in identities:
        parts = rng.choice(ordered_set_partitions(expr.universe))
        single = Expression(expr.universe, {(parts,): 1})
        perturbed = expr + single
        ok, witness = is_partition_identity(perturbed)
        assert not ok
        wparts, wcoeff = witness
        assert normalize(perturbed).coeffs[wparts] == wcoeff
