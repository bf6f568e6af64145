"""Smoke test for the contract between the engine and perfbench/.

The benchmark's tracer times each layer by wrapping module attributes the
engine looks up at call time.  These tests fail when a wrapped name is gone
or when `verify` stops routing its work through the wrapped functions, so the
per-layer metrics cannot silently read 0.  They only read perfbench/.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

import mzvident.identities as identities
from mzvident.parsing import parse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def tracer():
    return _perfbench_module("tracer")


def test_every_traced_target_resolves(tracer):
    for module_name, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_verify_records_algebra_ratfun_and_numeric_spans(tracer):
    with tracer.Tracer() as t:
        report = identities.verify(identities.hoffman_identity(3), identities.METHODS)
    assert report.is_identity and report.agreement
    names = t.account(0, Counter())
    tracer.require_spans(
        names,
        {
            "algebra.is_partition_identity",
            "algebra.normalize",
            "ratfun.build",
            "ratfun.zero_test",
            "numeric.residual",
        },
    )


def test_hoffman_seed_61_op_votes_agree():
    # Round 1 of the hoffman workload at seed 61 opens with a perturbed k*H_7
    # that a float residual relative to the term magnitudes voted an identity.
    rounds = _perfbench_module("workloads").Hoffman().rounds(61)
    next(rounds)
    op = next(rounds)[0]
    assert op.label is False and op.props["n"] == 7
    report = identities.verify(parse(op.text), op.methods)
    assert report.per_method == {"canonical": False, "numeric": False}
