"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 property failure or refuted
proof, 2 usage, 3 precision too low, 4 I/O failure, 5 inconclusive proof.

TRIGPOLY_DIGITS overrides the default working precision (50 digits).
"""

from __future__ import annotations

import argparse
import decimal
import math
import os
import random
import sys
from fractions import Fraction

from mpmath import mp

from . import approx, bench, coeffs, verify
from .approx import COS_PI_X, SIN_PI_X, DomainError
from .intervals import exact_ratio
from .precision import IndexLimitError, PrecisionError, working

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_IO = 4
EXIT_INCONCLUSIVE = 5
_PROOF_EXIT = {"proved": EXIT_OK, "refuted": EXIT_PROPERTY_FAIL, "inconclusive": EXIT_INCONCLUSIVE}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        value = _positive_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("value must be finite")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _m_list(text: str) -> tuple[int, ...]:
    try:
        ms = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")
    if not ms or any(m < 1 for m in ms):
        raise argparse.ArgumentTypeError("degrees must be positive integers")
    return ms


def _default_digits() -> int:
    raw = os.environ.get("TRIGPOLY_DIGITS", "50")
    try:
        return int(raw)
    except ValueError:
        raise PrecisionError(f"TRIGPOLY_DIGITS must be an integer, got {raw!r}")


def _func_tag(name: str) -> str:
    return SIN_PI_X if name == "sin" else COS_PI_X


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _round_up_3(x) -> str:
    """x > 0 (an mpf or a Fraction) rounded up to 3 significant digits, in exact decimal arithmetic."""
    p, q = exact_ratio(x)
    with decimal.localcontext(decimal.Context(prec=3, rounding=decimal.ROUND_CEILING)):
        return f"{decimal.Decimal(p) / q:.2e}"


# --- subcommands -----------------------------------------------------------

def cmd_coeffs(args) -> int:
    if args.format == "symbolic":
        for sym in coeffs.coeff_symbolic(args.max_j):
            print(f"t_{sym.index} = {sym.as_string()}")
        return EXIT_OK
    table = coeffs.coefficient_table(args.max_j, args.digits, route=args.route)
    # two digits past --digits: printing moves t_j by at most 5 * 10^-(digits+2)
    # relative, so the printed bound stays within the table's 10^-digits
    shown = args.digits + 2
    rows = []
    for e in table:
        # the printed bound covers the printed value: the stored bound plus
        # the exact distance the printing moved the value
        value = e.value.to_str(shown)
        moved = abs(Fraction(decimal.Decimal(value)) - Fraction(*exact_ratio(e.value.value)))
        rows.append((e.j, value, _round_up_3(Fraction(*exact_ratio(e.trunc_bound.value)) + moved)))
    if args.format == "csv":
        print("j,t_j,trunc_bound")
        for j, value, bound in rows:
            print(f"{j},{value},{bound}")
    else:
        print(f"{'j':>4}  {'t_j':<{shown + 8}}  trunc_bound")
        for j, value, bound in rows:
            print(f"{j:>4}  {value:<{shown + 8}}  {bound}")
    return EXIT_OK


def cmd_eval(args) -> int:
    func = _func_tag(args.func)
    poly = approx.build_poly(func, args.m, args.digits)
    value = poly.eval(args.x)
    with working(args.digits):
        ref = mp.cospi(args.x) if func == COS_PI_X else mp.sinpi(args.x)
        err = abs(ref - value)
        print(f"value={value!r}")
        print(f"reference={mp.nstr(ref, min(args.digits, 30))}")
        print(f"error={mp.nstr(err, 6)}")
    lo, hi = approx.DOMAINS[func]
    if lo < args.x < hi:
        cert = approx.error_bound(func, args.m, args.x, args.digits)
        print(f"bound={cert.bound!r}")
    else:
        print("note=outside certified domain")
    return EXIT_OK


def cmd_bound(args) -> int:
    cert = approx.error_bound(_func_tag(args.func), args.m, args.x, args.digits)
    print(f"m={cert.m}")
    print(f"leading_term={cert.leading_term!r}")
    print(f"q_m={cert.q_m!r}")
    print(f"tail_factor={cert.tail_factor!r}")
    print(f"bound={cert.bound!r}")
    print(f"domain=({cert.domain[0]},{cert.domain[1]})")
    return EXIT_OK


def cmd_select(args) -> int:
    m = approx.select_degree(_func_tag(args.func), args.tol, args.digits)
    print(f"m={m}")
    return EXIT_OK


def _compare_grid(lo: float, hi: float, n: int, seed) -> list[float]:
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    if seed is not None:
        rng = random.Random(seed)
        h = (hi - lo) / (n - 1)
        for i in range(1, n - 1):
            xs[i] = min(hi, max(lo, xs[i] + (rng.random() - 0.5) * h))
    return xs


def cmd_compare(args) -> int:
    func = _func_tag(args.func)
    is_sin = func == SIN_PI_X
    lo, hi = approx.DOMAINS[func]
    polys = {m: approx.build_poly(func, m, args.digits) for m in args.m_list}
    fam = "Q" if is_sin else "P"
    header = (
        ["x", "reference"]
        + [f"{fam}_{m}" for m in args.m_list]
        + [f"S_{m}" for m in args.m_list]
    )
    xs = _compare_grid(lo, hi, args.grid, args.seed)
    out, close_me = _open_out(args.out)
    try:
        out.write(",".join(header) + "\n")
        with working(args.digits):
            for x in xs:
                ref = float(mp.sinpi(x)) if is_sin else float(mp.cospi(x))
                row = [repr(x), repr(ref)]
                row += [repr(polys[m].eval(x)) for m in args.m_list]
                row += [repr(approx.maclaurin_eval(m, x, func)) for m in args.m_list]
                out.write(",".join(row) + "\n")
    finally:
        if close_me:
            out.close()
    return EXIT_OK


def cmd_prove_example(args) -> int:
    proof = verify.prove_example_inequality(args.max_depth, args.digits)
    print(f"{proof.status.upper()} target > 0 on [{proof.domain[0]}, {proof.domain[1]}]")
    print(f"subintervals={len(proof.subintervals)}")
    print(f"min_lower_bound={proof.min_lower_bound!r}")
    print(f"max_depth_used={proof.max_depth_used}")
    if proof.status == "inconclusive":
        print(f"unresolved={len(proof.unresolved)}")
    elif proof.status == "refuted":
        print("refutation={!r},{!r},{!r}".format(*proof.refutation))
    if args.emit_curves:
        rows = verify.example_curve(args.grid)
        with open(args.emit_curves, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("x,f,f_minus_f4\n")
            for x, f_val, diff in rows:
                handle.write(f"{x!r},{f_val!r},{diff!r}\n")
    return _PROOF_EXIT[proof.status]


_SUITES = ("all", "coeffs", "bracketing", "bessel", "maclaurin", "taylor")


def run_suite(suite: str, digits: int) -> list[verify.PropertyReport]:
    reports = []
    if suite in ("all", "coeffs"):
        reports.append(verify.check_coefficient_bounds(100, digits))
    if suite in ("all", "bracketing"):
        reports += [verify.check_bracketing(func, 10, digits) for func in (SIN_PI_X, COS_PI_X)]
    if suite in ("all", "bessel"):
        reports.append(verify.check_bessel_identity(50, digits))
    if suite in ("all", "maclaurin"):
        reports.append(verify.check_maclaurin_interleaving(4, digits))
    if suite in ("all", "taylor"):
        reports.append(verify.check_taylor_exactness(8, digits))
    return reports


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.digits)
    for report in reports:
        print(verify.report_line(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(verify.reports_to_json(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_PROPERTY_FAIL


def cmd_bench(args) -> int:
    cfg = bench.BenchConfig(
        grid_size=args.grid,
        m_list=args.m_list,
        repetitions=args.reps,
        digits=args.digits,
    )
    rows = bench.run_bench(cfg)
    out, close_me = _open_out(args.out)
    try:
        out.write(bench.rows_to_csv(rows))
    finally:
        if close_me:
            out.close()
    return EXIT_OK


def build_parser(default_digits: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigpoly",
        description=(
            "Certified polynomial approximants for cos(pi*x) and sin(pi*x) "
            "in the shifted bases 1/4-x^2 and x(1-x)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_digits(p):
        p.add_argument("--digits", type=_positive_int, default=default_digits,
                       help="working precision in significant decimal digits")

    p = sub.add_parser("coeffs", help="generate expansion coefficients")
    p.add_argument("--max-j", type=_positive_int, default=10)
    p.add_argument("--format", choices=("table", "csv", "symbolic"), default="table")
    p.add_argument("--route", choices=("recurrence", "direct", "bessel"),
                   default="recurrence")
    add_digits(p)
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate an approximant")
    p.add_argument("--func", choices=("sin", "cos"), required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    add_digits(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("bound", help="print the certified error bound at x")
    p.add_argument("--func", choices=("sin", "cos"), required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    add_digits(p)
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("select", help="minimal degree meeting a tolerance")
    p.add_argument("--func", choices=("sin", "cos"), required=True)
    p.add_argument("--tol", type=_positive_float, required=True)
    add_digits(p)
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("compare", help="CSV of approximants vs Maclaurin sums")
    p.add_argument("--func", choices=("sin", "cos"), required=True)
    p.add_argument("--m-list", type=_m_list, default=(1, 2, 3, 4))
    p.add_argument("--grid", type=_int_at_least(2, "grid"), default=2048)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=None,
                   help="jitter interior grid points (default: deterministic)")
    add_digits(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("prove-example", help="run the worked positivity proof")
    p.add_argument("--max-depth", type=_int_at_least(8, "max-depth"), default=24)
    p.add_argument("--emit-curves", default=None, metavar="PATH")
    p.add_argument("--grid", type=_positive_int, default=2048)
    add_digits(p)
    p.set_defaults(handler=cmd_prove_example)

    p = sub.add_parser("verify", help="run the property-check suites")
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--grid", type=_positive_int, default=2048,
                   help="accepted and ignored: no report samples a grid")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write a structured JSON report")
    add_digits(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="accuracy/cost benchmark CSV")
    p.add_argument("--grid", type=_positive_int, default=2048)
    p.add_argument("--m-list", type=_m_list, default=(1, 2, 3, 4))
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    add_digits(p)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser(_default_digits())
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (DomainError, IndexLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
