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

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


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
