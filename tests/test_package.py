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


def loaded_after(code: str, names: set[str]) -> str:
    """Which of `names` a fresh interpreter has loaded after running `code`."""
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(sorted({names!r} & set(sys.modules)))"],
        # Without bytecode, so the check leaves no src/mzvident/__pycache__
        # behind to speed up later fresh interpreters.
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.strip()


def test_import_loads_no_exact_arithmetic_modules():
    assert loaded_after("import mzvident, mzvident.cli", {"fractions", "decimal"}) == "[]"


def test_cli_run_loads_no_dataclasses_or_json():
    code = (
        "import mzvident, mzvident.cli\n"
        "from mzvident import parse, serialize, verify\n"
        "report = verify(parse('zeta(s1)*zeta(s2) - zeta(s1,s2)'))\n"
        "serialize(report, 'text'), serialize(report, 'structured')"
    )
    assert loaded_after(code, {"dataclasses", "inspect", "json"}) == "[]"
