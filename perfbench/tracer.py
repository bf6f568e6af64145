"""Per-layer tracing installed from outside the engine.

The wrappers replace module attributes that `verify` and the CLI look up at
call time, so every call routed through them records a span (name, parent,
start, end) without any change to the engine's source.  Spans stay in
memory and are written out when the run ends.  Work counts are read from a
span's arguments and result after its op has finished, outside every
timed region.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Callable, Iterable

from workloads import reuse_counts

# (module, attribute, span name).  The span name's prefix is the layer.
TARGETS = (
    ("mzvident.identities", "is_partition_identity", "algebra.is_partition_identity"),
    ("mzvident.algebra", "normalize", "algebra.normalize"),
    ("mzvident.identities", "rational_terms_of_expression", "ratfun.build"),
    ("mzvident.identities", "is_zero_combination", "ratfun.zero_test"),
    ("mzvident.identities", "residual_report", "numeric.residual"),
    ("mzvident.cli", "parse", "parsing.parse"),
    ("mzvident.cli", "normalize", "algebra.normalize"),
    ("mzvident.cli", "serialize", "parsing.serialize"),
    ("mzvident.cli", "verify", "identities.verify"),
)

# Span name -> per-layer time metric that its self time adds to.
SELF_TIME_METRIC = {
    "parsing.parse": "parsing.parse_s",
    "parsing.serialize": "parsing.serialize_s",
    "algebra.is_partition_identity": "algebra.normalize_s",
    "algebra.normalize": "algebra.normalize_s",
    "ratfun.build": "ratfun.build_s",
    "ratfun.zero_test": "ratfun.zero_test_s",
    "numeric.residual": "numeric.residual_s",
    "identities.verify": "identities.verify_self_s",
    "cli.main": "cli.self_s",
}


class TracerError(RuntimeError):
    """A wrapped name is gone or a layer the op must reach recorded nothing."""


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "args", "result")

    def __init__(self, name: str, parent: int, op: int, args: tuple):
        self.name = name
        self.parent = parent
        self.op = op
        self.args = args
        self.result = None
        self.start = self.end = 0.0


class Tracer:
    """Records spans for calls made through its wrappers.

    Use as a context manager: entering installs the wrappers on TARGETS,
    leaving restores the originals.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op, args)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        found = []
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TracerError(
                    f"{module_name}.{attr} no longer exists; layer "
                    f"{span_name.split('.')[0]} would read as 0 s"
                )
            found.append((module, attr, fn, span_name))
        for module, attr, fn, span_name in found:
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(span_name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def account(self, first: int, totals: Counter) -> set[str]:
        """Add the self times and work counts of the spans recorded since
        index `first` to `totals`; return their names.  Drops the argument
        and result references those spans held."""
        spans = self.spans[first:]
        child: Counter = Counter()
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        reuse: dict = {}
        for i, s in enumerate(spans, first):
            totals[SELF_TIME_METRIC[s.name]] += s.end - s.start - child[i]
            _count(s, totals, reuse)
        self.forget(first)
        return {s.name for s in spans}

    def forget(self, first: int) -> None:
        for s in self.spans[first:]:
            s.args = s.result = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": s.op, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end}) + "\n")


def _count(s: Span, totals: Counter, reuse: dict) -> None:
    """Work counts read at the layer boundary the span marks."""
    if s.name == "parsing.parse":
        totals["parsing.parse_chars"] += len(s.args[0])
    elif s.name == "parsing.serialize":
        totals["parsing.serialize_bytes"] += len(s.result)
    elif s.name == "algebra.normalize":
        totals["algebra.atom_products"] += sum(len(t) - 1 for t in s.args[0].terms)
        totals["algebra.canonical_keys"] += len(s.result.coeffs)
    elif s.name == "ratfun.zero_test":
        lcd: Counter = Counter()
        for _, factors in s.args[0]:
            for support, power in factors.items():
                lcd[support] = max(lcd[support], power)
        totals["ratfun.lcd_factors"] += len(lcd)
        totals["ratfun.lcd_degree"] += sum(p * sup.bit_count() for sup, p in lcd.items())
    elif s.name == "numeric.residual":
        expr = s.args[0]
        if id(expr) not in reuse:
            reuse[id(expr)] = reuse_counts(expr.terms)
        evals, atoms, levels, suffixes = reuse[id(expr)]
        totals["numeric.atom_evals"] += evals
        totals["numeric.distinct_atoms"] += atoms
        totals["numeric.dp_levels"] += levels
        totals["numeric.distinct_suffixes"] += suffixes
    elif s.name == "identities.verify":
        totals["identities.disagreements"] += not s.result.agreement


def require_spans(names: set[str], required: Iterable[str]) -> None:
    """Fail loudly when an op did not pass through a layer it must reach,
    for example after the engine stopped calling a wrapped name."""
    missing = sorted(set(required) - names)
    if missing:
        raise TracerError(f"no spans recorded for {', '.join(missing)}")
