"""Command-line interface.

Subcommands: coeff, triangle, certify, tuples, fermat, powersum,
faulhaber, verify. Output is deterministic: identical invocations print
identical bytes (verify's wall-clock timing goes to stderr). All numbers
are serialized exactly; JSON carries integers as decimal strings and
rationals as "num/den" (abbreviated to "num" when the denominator is 1),
so values survive consumers limited to 64-bit numbers.
Tables are written row by row, and every cell is converted to a string
before the first byte, so a refused conversion leaves stdout empty.

Exit codes: 0 success, 1 verification/certification failure, 2 usage
error, 3 internal invariant breach, 141 (128 + SIGPIPE, as a shell
reports a process killed by that signal) when the reader closes stdout
early; the rest of the output is then dropped without a traceback.

The size guard for enumerative computations defaults to p <= 14 and can
be overridden per invocation with --size-guard or globally with the
FIGURATE_SIZE_GUARD environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import zip_longest

from . import __version__, combinatorics, powersum
from .coefficients import (
    DEFAULT_SIZE_GUARD,
    ROUTES,
    build_triangle,
    certify,
    coefficient,
    split_routes,
)
from .enumeration import (
    enumerate_compositions,
    enumerate_j_tuples,
    enumerate_k_tuples,
)
from .verify import SUITES

# json, fermat, exact and verify.run_suites are imported by the
# subcommands that use them, so a process loads only what its subcommand
# runs. Each such import reads the module attribute when the subcommand
# runs, so a function replaced on its module is the one called.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _resolve_size_guard(args: argparse.Namespace) -> int:
    if getattr(args, "size_guard", None) is not None:
        if args.size_guard < 1:
            raise ValueError(f"size guard must be positive, got {args.size_guard}")
        return args.size_guard
    env = os.environ.get("FIGURATE_SIZE_GUARD")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"FIGURATE_SIZE_GUARD must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(f"FIGURATE_SIZE_GUARD must be positive, got {value}")
        return value
    return DEFAULT_SIZE_GUARD


def _print_formatted(fmt: str, plain, rows: list[list[str]], obj: dict) -> None:
    """Print one result in the chosen --format, one line at a time: the
    rows plain() returns, right-aligned column by column; one CSV line per
    row; or json.dumps(obj, sort_keys=True), written chunk by chunk. Every
    cell is a string already, so a refused conversion precedes any output."""
    write = sys.stdout.write
    if fmt == "plain":
        table = plain()
        widths: list[int] = []
        for row in table:
            widths = [max(w, n) for w, n in zip_longest(widths, map(len, row), fillvalue=0)]
        for row in table:
            write("  ".join(map(str.rjust, row, widths)).rstrip() + "\n")
    elif fmt == "csv":
        for row in rows:
            write(",".join(row) + "\n")
    else:
        import json

        for chunk in json.JSONEncoder(sort_keys=True).iterencode(obj):
            write(chunk)
        write("\n")


def _refuse_over_guard(routes, p: int, guard: int, how: str) -> None:
    _, over = split_routes(routes, p, guard)
    if over:
        raise ValueError(
            f"route {over[0]} at p={p} exceeds the size guard {guard}; "
            f"raise it with {how}"
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeff(args: argparse.Namespace) -> int:
    guard = _resolve_size_guard(args)
    requested = args.route or ["closed"]
    if "all" in requested:
        routes = list(ROUTES)
    else:
        routes = [r for r in ROUTES if r in requested]
    _refuse_over_guard(routes, args.p, guard, "--size-guard")
    if len(routes) == 1:
        print(coefficient(args.p, args.ell, routes[0]))
    else:
        for route in routes:
            print(f"{route:<11} {coefficient(args.p, args.ell, route)}")
    return EXIT_OK


def cmd_triangle(args: argparse.Namespace) -> int:
    if args.family is not None:
        triangle = combinatorics.number_triangle(args.family, args.pmax)
        rows = [[str(v) for v in row] for row in triangle.rows]
        first = triangle.first_row
        _print_formatted(
            args.format,
            lambda: [[f"{args.family[0]}={first + i}", *r] for i, r in enumerate(rows)],
            rows,
            {"triangle": args.family, "first_row": first, "max_row": args.pmax, "rows": rows},
        )
        return EXIT_OK

    guard = _resolve_size_guard(args)
    _refuse_over_guard([args.route], args.pmax, guard, "FIGURATE_SIZE_GUARD")
    rows = [[str(v) for v in row] for row in build_triangle(args.pmax, args.route)]
    header = ["p\\ell"] + [str(ell) for ell in range(args.pmax)]
    _print_formatted(
        args.format,
        lambda: [header] + [[str(p), *row] for p, row in enumerate(rows, 1)],
        rows,
        {"triangle": "coefficients", "route": args.route, "pmax": args.pmax, "rows": rows},
    )
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    guard = _resolve_size_guard(args)
    report = certify(args.p, args.ell, guard)
    print(f"p={args.p} ell={args.ell}")
    for route in ROUTES:
        value = report.values.get(route, f"skipped (size guard {guard})")
        if isinstance(value, RuntimeError):
            value = f"error: {value}"
        print(f"{route:<11} {value}")
    print(f"agree: {'yes' if report.agree else 'no'}")
    return EXIT_OK if report.agree else EXIT_CHECK_FAILED


def cmd_tuples(args: argparse.Namespace) -> int:
    if args.kind in ("k", "j"):
        if args.p is None or args.ell is None:
            raise ValueError(f"--kind {args.kind} requires --p and --ell")
        gen = enumerate_k_tuples if args.kind == "k" else enumerate_j_tuples
        stream = gen(args.p, args.ell)
    else:
        if args.total is None or args.parts is None:
            raise ValueError("--kind comp requires --total and --parts")
        stream = enumerate_compositions(args.total, args.parts, args.min_part)

    if args.count_only:
        print(sum(1 for _ in stream))
    else:
        sys.stdout.writelines(",".join(map(str, t)) + "\n" for t in stream)
    return EXIT_OK


def cmd_fermat(args: argparse.Namespace) -> int:
    from .fermat import build_fermat, inverse_closed

    matrix = inverse_closed(args.p) if args.inverse else build_fermat(args.p)
    rows = [matrix.row_strings(k) for k in range(1, matrix.order + 1)]
    _print_formatted(
        args.format,
        lambda: rows,
        rows,
        {"matrix": "inverse" if args.inverse else "fermat", "p": args.p, "entries": rows},
    )
    return EXIT_OK


def cmd_powersum(args: argparse.Namespace) -> int:
    tag = powersum.FORMULA_FLAGS[args.formula]
    if args.symbolic:
        if tag == "brute":
            raise ValueError("brute has no symbolic expansion; pick a formula")
        from .exact import format_polynomial, format_rational

        poly = powersum.expand_symbolic(args.p, tag)
        strings = [format_rational(c) for c in poly.coefficients]
        _print_formatted(
            args.format,
            lambda: [[format_polynomial(poly)]],
            [strings],
            {"p": args.p, "formula": args.formula, "polynomial": strings},
        )
        return EXIT_OK

    if args.n is None:
        raise ValueError("either --n or --symbolic is required")
    value = str(powersum.evaluate_formula(tag, args.n, args.p))
    _print_formatted(
        args.format,
        lambda: [[value]],
        [[value]],
        {"p": args.p, "n": args.n, "formula": args.formula, "value": value},
    )
    return EXIT_OK


def cmd_faulhaber(args: argparse.Namespace) -> int:
    from .exact import format_rational

    coeffs = powersum.faulhaber_coefficients(args.p)
    print(" ".join(format_rational(c) for c in coeffs))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    guard = _resolve_size_guard(args)
    suites = args.suite or ["all"]
    report = run_suites(suites, args.pmax, guard)
    print(f"figurate verify {__version__}")
    print(f"suites: {','.join(report.suites)}  pmax={args.pmax}  size_guard={guard}")
    for check in report.checks:
        line = f"[{check.status}] {check.suite}: {check.name}"
        if check.detail:
            line += f" ({check.detail})"
        print(line)
    print(
        f"summary: {report.passed} passed, {report.failed} failed, "
        f"{report.skipped} skipped"
    )
    print(f"completed in {report.duration:.2f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_size_guard(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--size-guard",
        type=int,
        default=None,
        metavar="P",
        help=f"max p for enumerative computations "
        f"(default {DEFAULT_SIZE_GUARD}, env FIGURATE_SIZE_GUARD)",
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("plain", "csv", "json"),
        default="plain",
        help="output format (default plain)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="figurate",
        description="Exact figurate-number expansions of powers and power sums.",
    )
    parser.add_argument("--version", action="version", version=f"figurate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="one coefficient c(p, ell)")
    p_coeff.add_argument("--p", type=int, required=True)
    p_coeff.add_argument("--ell", type=int, required=True)
    p_coeff.add_argument(
        "--route",
        action="append",
        choices=ROUTES + ("all",),
        help="computation route, repeatable (default closed)",
    )
    _add_size_guard(p_coeff)
    p_coeff.set_defaults(func=cmd_coeff)

    p_tri = sub.add_parser("triangle", help="coefficient or counting-family triangle")
    p_tri.add_argument("--pmax", type=int, required=True)
    group = p_tri.add_mutually_exclusive_group()
    group.add_argument(
        "--route", choices=ROUTES, default="closed", help="coefficient route"
    )
    group.add_argument(
        "--family",
        choices=combinatorics.FAMILIES,
        default=None,
        help="export a counting family instead of the coefficients",
    )
    _add_format(p_tri)
    p_tri.set_defaults(func=cmd_triangle)

    p_cert = sub.add_parser("certify", help="evaluate every route and compare")
    p_cert.add_argument("--p", type=int, required=True)
    p_cert.add_argument("--ell", type=int, required=True)
    _add_size_guard(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_tuples = sub.add_parser("tuples", help="stream the constrained tuple families")
    p_tuples.add_argument(
        "--kind", choices=("k", "j", "comp"), default="k", help="tuple family"
    )
    p_tuples.add_argument("--p", type=int)
    p_tuples.add_argument("--ell", type=int)
    p_tuples.add_argument("--total", type=int, help="composition total (kind comp)")
    p_tuples.add_argument("--parts", type=int, help="composition length (kind comp)")
    p_tuples.add_argument(
        "--min-part", type=int, default=1, help="composition part lower bound"
    )
    p_tuples.add_argument(
        "--count-only", action="store_true", help="print the count instead of tuples"
    )
    p_tuples.set_defaults(func=cmd_tuples)

    p_fermat = sub.add_parser("fermat", help="transition matrix or its exact inverse")
    p_fermat.add_argument("--p", type=int, required=True)
    p_fermat.add_argument(
        "--inverse", action="store_true", help="print the closed-form inverse"
    )
    _add_format(p_fermat)
    p_fermat.set_defaults(func=cmd_fermat)

    p_power = sub.add_parser("powersum", help="evaluate or expand a power-sum formula")
    p_power.add_argument("--p", type=int, required=True)
    p_power.add_argument("--n", type=int)
    p_power.add_argument(
        "--formula",
        choices=tuple(powersum.FORMULA_FLAGS),
        default="brute",
        help="formula to use (default brute)",
    )
    p_power.add_argument(
        "--symbolic",
        action="store_true",
        help="print the expanded polynomial instead of a value",
    )
    _add_format(p_power)
    p_power.set_defaults(func=cmd_powersum)

    p_faul = sub.add_parser("faulhaber", help="Faulhaber coefficient list for p >= 2")
    p_faul.add_argument("--p", type=int, required=True)
    p_faul.set_defaults(func=cmd_faulhaber)

    p_verify = sub.add_parser("verify", help="run the self-verification suites")
    p_verify.add_argument(
        "--suite",
        action="append",
        choices=SUITES + ("all",),
        help="suite to run, repeatable (default all)",
    )
    p_verify.add_argument("--pmax", type=int, default=10)
    _add_size_guard(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so a reader that closed the pipe is caught below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail too (the "Note on SIGPIPE" in the signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as exc:
        # The run ran out of a resource; no check failed, so not exit 1.
        what = "memory" if isinstance(exc, MemoryError) else "stack (the recursion limit)"
        print(f"internal error: out of {what}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RuntimeError, ZeroDivisionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    """`python -m figurate.cli` and the `figurate` script: exit with the
    code main() returns. Exit 3 ends the process at once, after stdout is
    flushed so that a stream keeps what it wrote: a run that ran out of
    memory may still hold its stored rows, and the interpreter's shutdown
    would then print MemoryError lines after main's one stderr line."""
    code = main()
    if code == EXIT_INTERNAL:
        try:
            sys.stdout.flush()
        except OSError:  # the reader closed stdout; nothing is left to keep
            pass
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
