"""Command-line interface.

Exit codes: 0 = identity (or plain success for non-verify commands),
1 = not an identity, 2 = any error: a closed stdout and an internal fault too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys

from .algebra import Expression, normalize, stuffle_product
from .identities import METHODS, hoffman_identity, verify
from .indexsets import MAX_INDEX, full_universe, indices_of, min_index
from .numeric import DEFAULT_TRUNCATION, residuals, term_values
from .parsing import atom_text, parse, parse_arglist, serialize
from .ratfun import kronecker_zero_test, rational_terms_of_expression


class CliError(Exception):
    pass


def _load_expression(spec: str) -> Expression:
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise CliError(str(e))
    else:
        text = spec
    expr = parse(text)
    # CLI boundary: the universe must be exactly {1..n}.
    n = expr.universe.bit_length()
    if expr.universe and expr.universe != full_universe(n):
        missing = min_index(full_universe(n) & ~expr.universe)
        raise CliError(f"universe must be contiguous s1..s{n}; s{missing} is unused")
    return expr


def _parse_assignment(text: str) -> dict[int, float]:
    assign: dict[int, float] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise CliError(f"bad assignment {piece!r}, expected sK=value")
        name, _, val = piece.partition("=")
        name = name.strip()
        digits = name[1:]
        if name[:1] != "s" or not (digits.isascii() and digits.isdigit()):
            raise CliError(f"bad variable name {name!r}")
        try:
            index = int(digits)
        except ValueError:  # more digits than int() converts
            raise CliError(f"bad variable name {name!r}") from None
        if not 1 <= index <= MAX_INDEX:
            raise CliError(f"bad variable name {name!r}")
        if index in assign:
            raise CliError(f"variable s{index} assigned twice")
        try:
            assign[index] = float(val)
        except ValueError:
            raise CliError(f"bad value {val!r} for {name}")
    return assign


def _write(render, *args) -> None:
    """Print render(*args) in full: `parse` holds each input number to the
    int-to-text digit limit, but a sum of input coefficients may pass it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(render(*args))
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_verify(args) -> int:
    expr = _load_expression(args.expr)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = verify(expr, methods=methods, seed=args.seed)
    _write(serialize, report, args.format)
    return 0 if report.is_identity else 1


def _cmd_normalize(args) -> int:
    expr = _load_expression(args.expr)
    _write(serialize, normalize(expr), args.format)
    return 0


def _cmd_stuffle(args) -> int:
    u = parse_arglist(args.left)
    v = parse_arglist(args.right)
    result = stuffle_product(u, v)
    _write(serialize, result, args.format)
    return 0


def _cmd_hoffman(args) -> int:
    expr = hoffman_identity(args.n)
    _write(serialize, expr, args.format)
    if args.verify:
        report = verify(expr, methods=["canonical"])
        _write(serialize, report, args.format)
        return 0 if report.is_identity else 1
    return 0


def _cmd_rational(args) -> int:
    expr = _load_expression(args.expr)
    pairs = expr.sorted_terms()
    terms = rational_terms_of_expression(pairs)
    ok = kronecker_zero_test(terms) if args.check else None  # a refusal writes nothing
    for (term, coeff), (_, factors) in zip(pairs, terms):
        rendered = " ".join(
            f"({'*'.join('x%d' % j for j in indices_of(s))}-1)^{m}"
            for s, m in sorted(factors.items(), key=lambda kv: tuple(indices_of(kv[0])))
        )
        _write("{:+d} * {}  ->  1 / [{}]".format, coeff, "*".join(map(atom_text, term)), rendered)
    if args.check:
        print(f"zero combination: {'yes' if ok else 'no'}")
        return 0 if ok else 1
    return 0


def _cmd_eval(args) -> int:
    expr = _load_expression(args.expr)
    assign = _parse_assignment(args.assign)
    for j in assign:
        if not expr.universe >> (j - 1) & 1:
            raise CliError(f"variable s{j} does not occur in the expression")
    values = term_values(expr, assign, args.N)
    absres, relres = residuals(values)
    print(f"value: {math.fsum(values)!r}")
    print(f"absolute residual: {absres:.6e}")
    print(f"relative residual: {relres:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mzvident",
        description="Decide whether expressions in multiple zeta functions vanish identically.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("expr", help="expression text, or @file")
        sp.add_argument("--format", choices=["text", "structured"], default="text")

    sp = sub.add_parser("verify", help="decide whether an expression is an identity")
    add_common(sp)
    sp.add_argument("--methods", default=",".join(METHODS))
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("normalize", help="expand into single zeta factors")
    add_common(sp)
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("stuffle", help="stuffle product of two argument lists")
    sp.add_argument("left", help='argument list, e.g. "s1,s2"')
    sp.add_argument("right", help='argument list over disjoint variables')
    sp.add_argument("--format", choices=["text", "structured"], default="text")
    sp.set_defaults(func=_cmd_stuffle)

    sp = sub.add_parser("hoffman", help="generate the symmetric-sum identity")
    sp.add_argument("n", type=int)
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--format", choices=["text", "structured"], default="text")
    sp.set_defaults(func=_cmd_hoffman)

    sp = sub.add_parser("rational", help="denominator factorization per term")
    sp.add_argument("expr", help="expression text, or @file")
    sp.add_argument("--check", action="store_true")
    sp.set_defaults(func=_cmd_rational)

    sp = sub.add_parser("eval", help="evaluate a truncated sum numerically")
    sp.add_argument("expr", help="expression text, or @file")
    sp.add_argument("--assign", required=True, help="s1=2.5,s2=1.7,...")
    sp.add_argument("--N", type=int, default=DEFAULT_TRUNCATION)
    sp.set_defaults(func=_cmd_eval)

    return p


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        # argparse ignores a failed write of its help, so the help is caught
        # here and written below, where a closed stdout shows.
        help_text = io.StringIO()
        try:
            with contextlib.redirect_stdout(help_text):
                args = parser.parse_args(argv)
        except SystemExit as e:
            sys.stdout.write(help_text.getvalue())
            sys.stdout.flush()
            return 2 if e.code else 0
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early: point its descriptor, if any, at devnull
        # so the exit flush cannot fail again (SIGPIPE note, Python's `signal` docs).
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 2
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        import traceback

        traceback.print_exc()
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
