import ast
import subprocess
import sys
from pathlib import Path

import mzvident
import mzvident.identities
import mzvident.indexsets
import mzvident.numeric
import mzvident.parsing
import mzvident.partitions
import mzvident.ratfun

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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
    assert not hasattr(mzvident.parsing, "_BLOCK_MASKS")
    for name in ("_SEED_TABLES", "_seed_tables"):
        assert not hasattr(mzvident.numeric, name)
    # Test references now live in tests/_references.py.
    moved = {
        mzvident.numeric: ("eval_zeta_truncated", "eval_expression", "random_assignment"),
        mzvident.partitions: (
            "check_partition", "fubini_count", "ordered_set_partitions", "OrderedPartition", "partition_sort_key"
        ),
        mzvident.identities: ("random_legal_term", "random_expression"),
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ())
    for name in ("eval_expression", "eval_zeta_truncated", "fubini_count", "ordered_set_partitions"):
        assert not hasattr(mzvident, name) and name not in mzvident.__all__, name


def test_sources_parse_as_python_3_10():
    """Every package, test and benchmark file is Python 3.10 grammar
    (`requires-python`; CI's 3.10 leg also runs the benchmark smoke run).

    This catches newer syntax such as `except*`; it does not check that the
    standard-library names a file uses exist in 3.10.
    """
    files = sorted(
        [*(SRC / "mzvident").rglob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    )
    assert len(files) > 10
    names = {path.relative_to(ROOT).as_posix() for path in files}
    assert {"tests/_references.py", "tests/test_golden.py", "perfbench/run.py"} <= names
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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
