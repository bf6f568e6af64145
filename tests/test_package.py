import subprocess
import sys
from pathlib import Path

import mzvident
import mzvident.identities
import mzvident.indexsets
import mzvident.numeric
import mzvident.partitions
import mzvident.ratfun

SRC = Path(__file__).resolve().parents[1] / "src"


def test_public_names_resolve():
    for name in mzvident.__all__:
        assert hasattr(mzvident, name), name
    for name in mzvident.partitions.__all__:
        assert hasattr(mzvident.partitions, name), name
    namespace: dict = {}
    exec("from mzvident import *", namespace)
    assert set(mzvident.__all__) <= set(namespace)


def test_removed_names_are_gone():
    assert not hasattr(mzvident, "probabilistic_zero_test")
    assert not hasattr(mzvident, "permutations")
    for name in ("probabilistic_zero_test", "evaluate_cleared_numerator"):
        assert not hasattr(mzvident.ratfun, name)
    assert not hasattr(mzvident.partitions, "permutations")
    assert not hasattr(mzvident.indexsets, "size")
    assert not {"min_index", "size", "factorial"} & set(mzvident.partitions.__all__)
    assert not hasattr(mzvident.identities, "NUMERIC_TRIALS")
    assert not hasattr(mzvident.numeric, "ROUNDING_TOL")


def test_import_loads_no_exact_arithmetic_modules():
    code = (
        "import sys, mzvident, mzvident.cli;"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
