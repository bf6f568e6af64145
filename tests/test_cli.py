import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mzvident.cli
import mzvident.identities
import mzvident.numeric
import mzvident.parsing
from mzvident.cli import cli_main
from mzvident.identities import hoffman_identity, verify
from mzvident.parsing import parse, serialize

EXAMPLE_TEXT = (
    "2*zeta(s1+s2+s3) - zeta(s2)*zeta(s1+s3) - zeta(s3)*zeta(s1+s2)"
    " + zeta(s1+s2,s3) + zeta(s2,s1+s3) + zeta(s1+s3,s2) + zeta(s3,s1+s2)"
)


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_identity_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", EXAMPLE_TEXT)
    assert code == 0
    assert "verdict: identity" in out


def test_verify_non_identity_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "zeta(s1)*zeta(s2) - zeta(s1,s2) - zeta(s2,s1)")
    assert code == 1
    assert "not-identity" in out
    assert "witness" in out


def test_verify_syntax_error_exit_two(capsys):
    code, _, err = run(capsys, "verify", "zeta(s1")
    assert code == 2
    assert "error" in err


def test_internal_fault_exit_two(capsys, monkeypatch):
    # Exit 1 means "not an identity", so a fault inside a route must not
    # escape as the interpreter's exit 1: it is reported and exits 2.
    def broken(expr, seed):
        raise RuntimeError("route failed")

    monkeypatch.setattr(mzvident.identities, "residual_report", broken)
    code, out, err = run(capsys, "verify", EXAMPLE_TEXT)
    assert code == 2
    assert out == ""
    assert "Traceback" in err
    assert err.rstrip().endswith("error: internal error: RuntimeError: route failed")


@pytest.mark.parametrize(
    "name, vote, method",
    [
        ("residual_report", lambda expr, seed: 1, "numeric"),
        ("is_zero_combination", lambda terms, seed: False, "rational"),
    ],
)
def test_vote_refuting_an_identity_is_an_internal_error(capsys, monkeypatch, name, vote, method):
    # Both votes refute exactly, so a refuted canonical identity can only
    # come from a defect in a route, never from the draw.
    monkeypatch.setattr(mzvident.identities, name, vote)
    code, out, err = run(capsys, "verify", EXAMPLE_TEXT, "--seed", "7")
    assert (code, out) == (2, "")
    assert err.rstrip().endswith(
        f"error: internal error: RuntimeError: the {method} vote refuted a canonical identity at seed 7")
    # A not-identity that the vote also refutes is no disagreement.
    code, out, _ = run(capsys, "verify", "zeta(s1)*zeta(s2) - zeta(s1,s2)", "--seed", "7")
    assert code == 1 and f"method {method}: not-identity" in out


def test_scanner_refusing_legal_text_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(mzvident.parsing, "_scan", lambda text, declared=None: None)
    code, out, err = run(capsys, "verify", EXAMPLE_TEXT)
    assert (code, out) == (2, "")
    assert "error: internal error: RuntimeError" in err


def test_closed_stdout_exits_two_quietly():
    # A reader that stops early (`mzvident hoffman 7 | head -c 10`) is no
    # engine fault.  The pipe's read end is closed before the child starts,
    # so its first write to stdout fails with EPIPE: inside `print` for the
    # large output, and at cli_main's flush for the small buffered one.
    # argparse writes the help itself and ignores a failed write.
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv in (["hoffman", "7"], ["verify", "zeta(s1)"], ["--help"], ["verify", "--help"]):
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "mzvident.cli", *argv],
                    stdout=write,
                    stderr=subprocess.PIPE,
                    env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", **unbuffered},
                    text=True,
                )
            finally:
                os.close(write)
            assert (proc.returncode, proc.stderr) == (2, ""), (argv, unbuffered, proc.stderr)


def test_non_ascii_digits_rejected(capsys):
    # U+0663 and U+0661, U+0662 are Arabic-Indic digits three, one and two.
    code, out, err = run(capsys, "normalize", "\u0663*zeta(s\u0661,s\u0662)")
    assert code == 2 and out == ""
    assert err == "error: unexpected character '\u0663' (at position 0)\n"


def test_huge_integers_exit_two(capsys):
    code, out, err = run(capsys, "normalize", "1" * 5000 + "*zeta(s1)")
    assert code == 2 and out == ""
    assert err == "error: coefficient too long (at position 0)\n"
    code, out, err = run(capsys, "verify", "zeta(s" + "1" * 5000 + ")")
    assert code == 2 and out == ""
    assert err == "error: variable index out of range 1..63 (at position 5)\n"


def test_results_past_the_digit_limit_are_written_in_full(capsys):
    # Each input coefficient is within Python's int-to-text limit (4,300
    # digits), but a sum of two is not: 2*C = 1 9...9 8 has 4,301 digits.
    # The result is written whole, and the limit still holds for input.
    c = "9" * 4300
    twice = "1" + "9" * 4299 + "8"
    text = f"{c}*zeta(s1,s2) + {c}*zeta(s1)*zeta(s2) - {c}*zeta(s2,s1) - {c}*zeta(s1+s2)"
    code, out, err = run(capsys, "verify", text, "--methods", "canonical")
    assert (code, err) == (1, "")
    assert out == f"verdict: not-identity\nmethod canonical: not-identity\nagreement: yes\nwitness: {twice}*zeta(s1,s2)\n"
    code, out, err = run(capsys, "verify", text, "--methods", "canonical", "--format", "structured")
    assert (code, err) == (1, "")
    assert f'\n  "witness": {{\n    "coeff": {twice},\n' in out
    code, out, err = run(capsys, "normalize", f"{c}*zeta(s1) + {c}*zeta(s1)")
    assert (code, out, err) == (0, f"{twice}*zeta(s1)\n", "")
    code, out, err = run(capsys, "rational", f"{c}*zeta(s1) + {c}*zeta(s1)")
    assert (code, out, err) == (0, f"+{twice} * zeta(s1)  ->  1 / [(x1-1)^1]\n", "")
    code, out, err = run(capsys, "normalize", "1" + c + "*zeta(s1)")
    assert (code, out) == (2, "")
    assert err == "error: coefficient too long (at position 0)\n"
    with pytest.raises(ValueError, match="Exceeds the limit"):
        str(10**4300)


def test_verify_gapped_universe_rejected(capsys):
    code, _, err = run(capsys, "verify", "zeta(s1+s3)")
    assert code == 2
    assert "contiguous" in err


def test_verify_methods_flag(capsys):
    code, out, _ = run(capsys, "verify", EXAMPLE_TEXT, "--methods", "canonical,rational")
    assert code == 0
    assert "numeric" not in out


def test_verify_unknown_method(capsys):
    code, _, err = run(capsys, "verify", EXAMPLE_TEXT, "--methods", "shuffle")
    assert code == 2
    assert err == "error: unknown method 'shuffle'; choose from canonical, rational, numeric\n"


def test_verify_empty_methods(capsys):
    code, out, err = run(capsys, "verify", EXAMPLE_TEXT, "--methods", "")
    assert code == 2 and out == ""
    assert err == "error: no method requested; choose from canonical, rational, numeric\n"


def test_verify_text_lists_methods_in_fixed_order(capsys):
    code, out, _ = run(capsys, "verify", EXAMPLE_TEXT, "--methods", "numeric,canonical")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("method ")] == [
        "method canonical: identity",
        "method numeric: identity",
    ]
    # At n = 6, past the exact rational test's budget, the rational vote
    # still runs and keeps its place in the order.
    code, out, _ = run(
        capsys, "verify", serialize(hoffman_identity(6)), "--methods", "numeric,rational,canonical"
    )
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("method ")] == [
        "method canonical: identity",
        "method rational: identity",
        "method numeric: identity",
    ]


def test_verify_rational_alone_at_hoffman_six(capsys):
    # The rational vote runs at every size, so agreement is never claimed
    # among zero votes.
    h6 = serialize(hoffman_identity(6))
    code, out, _ = run(capsys, "verify", h6, "--methods", "rational")
    assert code == 0
    assert out.splitlines() == ["verdict: identity", "method rational: identity", "agreement: yes"]
    code, out, _ = run(capsys, "verify", h6 + " + 3*zeta(s1+s2,s3,s4+s5,s6)", "--methods", "rational")
    assert code == 1
    assert out.splitlines()[:3] == [
        "verdict: not-identity",
        "method rational: not-identity",
        "agreement: yes",
    ]


def test_canonical_expansion_over_budget(capsys):
    left = ",".join(f"s{j}" for j in range(1, 13))
    right = ",".join(f"s{j}" for j in range(13, 25))
    for argv in (
        ("stuffle", left, right),
        ("normalize", f"zeta({left})*zeta({right})"),
        ("verify", f"zeta({left})*zeta({right})", "--methods", "numeric"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (
            "error: canonical expansion refused: estimate 6038303256 slots"
            " > budget 4194304 slots\n"
        )


def test_long_depth_one_product_over_budget(capsys):
    # Bell(10) * 10 slots for the coarsenings of up to 10 blocks, then r! * r
    # slots for each of their orderings.
    product = "*".join(f"zeta(s{j})" for j in range(1, 11))
    for command in ("normalize", "verify"):
        code, out, err = run(capsys, command, product)
        assert code == 2 and out == ""
        assert err == (
            "error: canonical expansion refused: estimate 761352255 slots"
            " > budget 4194304 slots\n"
        )


def test_eleven_depth_one_factors_over_budget(capsys):
    # Refused by the coarsenings' Bell(11) * 11 slots alone.
    product = "*".join(f"zeta(s{j})" for j in range(1, 12))
    for command in ("normalize", "verify"):
        code, out, err = run(capsys, command, product)
        assert code == 2 and out == ""
        assert err == (
            "error: canonical expansion refused: estimate 7464270 slots"
            " > budget 4194304 slots\n"
        )


def test_verify_structured_format(capsys):
    code, out, _ = run(capsys, "verify", EXAMPLE_TEXT, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "identity"
    assert doc["agreement"] is True
    assert "skipped" not in doc


def test_verify_structured_byte_stable(capsys):
    _, out1, _ = run(capsys, "verify", EXAMPLE_TEXT, "--format", "structured", "--seed", "5")
    _, out2, _ = run(capsys, "verify", EXAMPLE_TEXT, "--format", "structured", "--seed", "5")
    assert out1 == out2


def test_verify_at_file(capsys, tmp_path):
    path = tmp_path / "expr.txt"
    path.write_text(EXAMPLE_TEXT)
    code, out, _ = run(capsys, "verify", f"@{path}")
    assert code == 0


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "@/nonexistent/file.txt")
    assert code == 2


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "zeta(s2)*zeta(s1+s3)")
    assert code == 0
    assert out.strip() == "zeta(s1+s2+s3) + zeta(s1+s3,s2) + zeta(s2,s1+s3)"


def test_normalize_structured_is_the_stdlib_layout(capsys):
    # The largest structured output the benchmark produces: 16,081 keys.
    code, out, _ = run(capsys, "normalize", "zeta(s1,s2,s3)*zeta(s4,s5,s6)*zeta(s7,s8,s9)",
                       "--format", "structured")
    assert code == 0
    assert len(json.loads(out)["coeffs"]) == 16081
    # Compared outside the assert, so a failure does not diff two 5 MB strings.
    same = out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert same, "structured stdout differs from json.dumps of itself"


def test_normalize_identity_prints_zero(capsys):
    code, out, _ = run(capsys, "normalize", EXAMPLE_TEXT)
    assert code == 0
    assert out.strip() == "0"


def test_stuffle_command(capsys):
    code, out, _ = run(capsys, "stuffle", "s1", "s2")
    assert code == 0
    assert "zeta(s1,s2)" in out and "zeta(s2,s1)" in out and "zeta(s1+s2)" in out


def test_stuffle_order_is_by_index_tuples(capsys):
    # Block (s1+s3) has the larger mask but the smaller index tuple than (s2).
    code, out, _ = run(capsys, "stuffle", "s1+s3", "s2")
    assert code == 0
    assert out == "zeta(s1+s2+s3) + zeta(s1+s3,s2) + zeta(s2,s1+s3)\n"
    code, out, _ = run(capsys, "stuffle", "s1+s3", "s2", "--format", "structured")
    tuples = [t["blocks"] for t in json.loads(out)["tuples"]]
    assert tuples == [[[1, 2, 3]], [[1, 3], [2]], [[2], [1, 3]]]


def test_stuffle_shared_variable(capsys):
    code, _, err = run(capsys, "stuffle", "s1", "s1,s2")
    assert code == 2


def test_stuffle_operand_reusing_a_variable(capsys):
    for left, right in (("s1,s1", "s2"), ("s2", "s1,s1")):
        code, out, err = run(capsys, "stuffle", left, right)
        assert code == 2 and out == ""
        assert err == "error: variable reused: s1\n"


def test_hoffman_verify(capsys):
    code, out, _ = run(capsys, "hoffman", "2", "--verify")
    assert code == 0
    assert "verdict: identity" in out


def test_hoffman_verify_structured_writes_two_documents(capsys):
    # The expression, then the report: stdout is two JSON documents, not one.
    code, out, _ = run(capsys, "hoffman", "2", "--verify", "--format", "structured")
    assert code == 0
    expr = hoffman_identity(2)
    report = verify(expr, methods=["canonical"])
    assert out == serialize(expr, "structured") + "\n" + serialize(report, "structured") + "\n"
    with pytest.raises(json.JSONDecodeError, match="Extra data"):
        json.loads(out)


def test_hoffman_out_of_range(capsys):
    code, _, err = run(capsys, "hoffman", "99")
    assert code == 2
    assert err == "error: n must be in 1..8\n"


def test_rational_command(capsys):
    code, out, _ = run(capsys, "rational", "zeta(s1+s2,s3)")
    assert code == 0
    assert "(x1*x2-1)^1" in out and "(x1*x2*x3-1)^1" in out


def test_rational_check_identity(capsys):
    code, out, _ = run(capsys, "rational", EXAMPLE_TEXT, "--check")
    assert code == 0
    assert "zero combination: yes" in out


def test_rational_check_over_budget(capsys):
    # Refused before any work: no factor listing precedes the error.
    code, out, err = run(capsys, "rational", serialize(hoffman_identity(6)), "--check")
    assert (code, out) == (2, "")
    assert "rational zero test refused: estimate " in err and " bits > budget " in err


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "zeta(s1)", "--assign", "s1=2", "--N", "3")
    assert code == 0
    assert "value: 1.25" in out


def test_eval_bad_assignment(capsys):
    code, _, err = run(capsys, "eval", "zeta(s1)", "--assign", "s1=abc")
    assert code == 2
    code, _, err = run(capsys, "eval", "zeta(s1)", "--assign", "q1=2")
    assert code == 2
    code, out, err = run(capsys, "eval", "zeta(s1)", "--assign", "s1")
    assert (code, out) == (2, "")
    assert err == "error: bad assignment 's1', expected sK=value\n"


def test_eval_assignment_name_non_ascii_digit(capsys):
    # U+0661 is the Arabic-Indic digit one: not the name s1.
    code, out, err = run(capsys, "eval", "zeta(s1)", "--assign", "s\u0661=2")
    assert code == 2 and out == ""
    assert "bad variable name" in err


def test_eval_assignment_name_blamed_not_value(capsys):
    # A superscript two passes str.isdigit() but not int(); a 5,000-digit
    # index passes both checks but exceeds int()'s digit limit.
    for name in ("s\u00b2", "s" + "1" * 5000):
        code, out, err = run(capsys, "eval", "zeta(s1)", "--assign", f"{name}=2")
        assert code == 2 and out == ""
        assert "bad variable name" in err and "bad value" not in err


def test_eval_assignment_repeated_variable(capsys):
    for text in ("s1=2,s1=3", "s1=2,s01=3"):
        code, out, err = run(capsys, "eval", "zeta(s1)", "--assign", text)
        assert code == 2 and out == ""
        assert "s1 assigned twice" in err


def test_eval_assignment_index_out_of_range(capsys):
    for text in ("s1=2,s0=1", "s1=2,s99=3", "s64=2,s1=2"):
        code, out, err = run(capsys, "eval", "zeta(s1)", "--assign", text)
        assert code == 2 and out == ""
        assert "bad variable name" in err


def test_eval_assignment_unused_variable(capsys):
    for expr, text, name in (
        ("zeta(s1)", "s1=2,s2=3", "s2"),
        ("zeta(s1)", "s63=2,s1=2", "s63"),
        ("zeta(s1,s2)", "s3=2,s1=2,s2=2", "s3"),
    ):
        code, out, err = run(capsys, "eval", expr, "--assign", text)
        assert code == 2 and out == ""
        assert f"variable {name} does not occur in the expression" in err


def test_eval_non_finite_assignment(capsys):
    for value in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "eval", "zeta(s1)", "--assign", f"s1={value}")
        assert code == 2
        assert "finite" in err and out == ""


def test_eval_truncation_over_budget(capsys):
    code, out, err = run(
        capsys, "eval", "zeta(s1,s2,s3)", "--assign", "s1=2,s2=2,s3=2", "--N", "100000000"
    )
    assert code == 2 and out == ""
    assert "truncated evaluation refused: estimate " in err and " floats > budget " in err
    # verify fixes its own truncation level and takes no --N.
    code, out, err = run(capsys, "verify", EXAMPLE_TEXT, "--N", "100000000")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --N 100000000" in err


def test_verify_zero_expression(capsys):
    # The numeric vote on no variables truncates at N = 1 and still votes.
    code, out, _ = run(capsys, "verify", "0")
    assert code == 0
    assert "method numeric: identity" in out and "agreement: yes" in out


def test_eval_zero_expression_checks_truncation(capsys):
    code, out, err = run(capsys, "eval", "0", "--assign", "", "--N", "1")
    assert code == 2 and out == ""
    assert "truncation level must be >= 2" in err


def test_eval_evaluates_each_term_once(capsys, monkeypatch):
    # One atom-value pass: every distinct atom is evaluated in a single call.
    calls = []
    real = mzvident.numeric.atom_values

    def counting(atoms, block_row, n_trunc):
        atoms = list(atoms)
        calls.append(atoms)
        return real(atoms, block_row, n_trunc)

    monkeypatch.setattr(mzvident.numeric, "atom_values", counting)
    code, out, _ = run(capsys, "eval", EXAMPLE_TEXT, "--assign", "s1=2,s2=3,s3=2.5")
    assert code == 0
    assert len(calls) == 1
    assert set(calls[0]) == {atom for term in parse(EXAMPLE_TEXT).terms for atom in term}
    assert "absolute residual" in out


def test_verify_duplicate_methods_run_once(capsys):
    code, out, _ = run(
        capsys, "verify", EXAMPLE_TEXT, "--methods", "canonical,numeric,canonical"
    )
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("method ")] == [
        "method canonical: identity",
        "method numeric: identity",
    ]
    code, out, _ = run(
        capsys, "verify", EXAMPLE_TEXT, "--methods", "canonical,canonical",
        "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["methods"] == {"canonical": True}


def test_env_seed_is_ignored(capsys, monkeypatch):
    # The seed comes from --seed alone, as in the library's verify: a set or
    # malformed MZV_SEED leaves the exit code and every byte unchanged.
    seeds = []

    def recording_verify(expr, methods, seed):
        seeds.append(seed)
        return verify(expr, methods, seed)

    monkeypatch.setattr(mzvident.cli, "verify", recording_verify)
    monkeypatch.delenv("MZV_SEED", raising=False)
    for text in (EXAMPLE_TEXT, EXAMPLE_TEXT + " + zeta(s1,s2,s3)"):
        argv = ("verify", text, "--format", "structured")
        want = run(capsys, *argv)
        for value in ("12", "notanint"):
            monkeypatch.setenv("MZV_SEED", value)
            assert run(capsys, *argv) == want
        monkeypatch.delenv("MZV_SEED")
        assert want[0] == (0 if text == EXAMPLE_TEXT else 1)
    assert run(capsys, "verify", EXAMPLE_TEXT, "--seed", "5")[0] == 0
    assert seeds == [0] * 6 + [5]


def test_bad_flags_exit_two(capsys):
    code, _, _ = run(capsys, "verify", EXAMPLE_TEXT, "--no-such-flag")
    assert code == 2


def test_expression_with_leading_minus_goes_after_double_dash(capsys):
    # argparse reads an argument that starts with '-' as an option.
    code, out, err = run(capsys, "verify", "-zeta(s1)")
    assert code == 2
    assert out == ""
    assert "the following arguments are required: expr" in err
    code, out, _ = run(capsys, "verify", "--", "-zeta(s1)")
    assert code == 1
    assert "witness: -1*zeta(s1)" in out
    code, out, _ = run(capsys, "verify", "--methods", "canonical", "--", "-zeta(s1)")
    assert code == 1
    assert out == "verdict: not-identity\nmethod canonical: not-identity\nagreement: yes\nwitness: -1*zeta(s1)\n"
