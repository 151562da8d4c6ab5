import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

import trigpoly
import trigpoly.cli as cli
from trigpoly.approx import COS_PI_X, maclaurin_eval
from trigpoly.coeffs import coefficient_table, t_enclosure
from trigpoly.intervals import IntervalValue, exact_ratio
from trigpoly.verify import PositivityProof, prove_polynomial_positive


def run_cli(*argv):
    return cli.main(list(argv))


# --- coeffs ----------------------------------------------------------------

def test_coeffs_symbolic_output(capsys):
    assert run_cli("coeffs", "--max-j", "5", "--format", "symbolic") == 0
    out = capsys.readouterr().out
    assert "t_5 = (1680 - 180*pi^2 + pi^4)/(120*pi^9)" in out
    assert "t_1 = 1/pi" in out


def test_coeffs_csv_thirty_digits(capsys):
    assert run_cli("coeffs", "--max-j", "1", "--digits", "30", "--format", "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "j,t_j,trunc_bound"
    assert lines[1].startswith("1,0.31830988618379067153776752674503,")  # digits + 2


@pytest.mark.parametrize("route", ["recurrence", "direct", "bessel"])
@pytest.mark.parametrize("max_j,digits", [(12, 50), (200, 30)])
def test_printed_bounds_cover_the_stored_ones(capsys, route, max_j, digits):
    stored = coefficient_table(max_j, digits, route=route)
    for fmt in ("csv", "table"):
        assert run_cli("coeffs", "--max-j", str(max_j), "--digits", str(digits),
                       "--route", route, "--format", fmt) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        for entry, line in zip(stored, lines, strict=True):
            printed = line.split(",")[-1] if fmt == "csv" else line.split()[-1]
            assert len(printed.split("e")[0].replace(".", "")) == 3
            assert Fraction(printed) >= Fraction(*exact_ratio(entry.trunc_bound.value))


@pytest.mark.parametrize("route", ["recurrence", "direct", "bessel"])
def test_printed_bounds_cover_the_printed_values(capsys, route):
    # the printed t_j is rounded to --digits + 2 digits; its printed bound
    # must still reach t_j, enclosed here 40 digits tighter
    for fmt in ("csv", "table"):
        assert run_cli("coeffs", "--max-j", "40", "--digits", "30", "--route", route,
                       "--format", fmt) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        for j, line in enumerate(lines, start=1):
            value, bound = (line.split(",") if fmt == "csv" else line.split())[1:]
            enc = t_enclosure(j, 70)
            lo, hi = Fraction(*exact_ratio(enc.lo)), Fraction(*exact_ratio(enc.hi))
            assert Fraction(value) - Fraction(bound) <= lo and hi <= Fraction(value) + Fraction(bound), j


@pytest.mark.parametrize("route", ["recurrence", "direct", "bessel"])
def test_printed_bounds_stay_within_the_table_guarantee(capsys, route):
    # each printed pair keeps the table's 10^-digits relative guarantee
    for digits in (30, 50):
        for fmt in ("csv", "table"):
            assert run_cli("coeffs", "--max-j", "40", "--digits", str(digits), "--route", route,
                           "--format", fmt) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            assert len(lines) == 40
            for line in lines:
                value, bound = (line.split(",") if fmt == "csv" else line.split())[1:]
                assert Fraction(bound) <= Fraction(value) / 10 ** digits, (digits, line)


def test_bound_rounding_runs_on_the_python_3_10_localcontext(monkeypatch):
    # Python 3.10's localcontext takes one context and no keyword arguments
    import decimal

    original = decimal.localcontext

    def localcontext(ctx=None):
        return original(ctx)

    monkeypatch.setattr(decimal, "localcontext", localcontext)
    assert cli._round_up_3(mpf("0.0001234")) == "1.24e-4"
    assert cli._round_up_3(mpf(1) / 3) == "3.34e-1"


def test_coeffs_table_format(capsys):
    assert run_cli("coeffs", "--max-j", "3", "--route", "direct") == 0
    out = capsys.readouterr().out
    assert "t_j" in out and len(out.splitlines()) == 4


def test_coeffs_symbolic_refuses_an_index_over_the_cap(capsys):
    # the symbolic forms obey the same cap as the numeric routes
    assert run_cli("coeffs", "--max-j", "201", "--format", "symbolic") == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the limit 200" in captured.err


def test_coeffs_rejects_zero_max_j(capsys):
    assert run_cli("coeffs", "--max-j", "0") == cli.EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("coeffs", "--nope") == cli.EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_low_precision_exit_code(capsys):
    assert run_cli("coeffs", "--max-j", "2", "--digits", "10") == cli.EXIT_PRECISION
    assert "precision" in capsys.readouterr().err


# --- eval / bound / select ---------------------------------------------------

def test_eval_sin_inside_domain(capsys):
    assert run_cli("eval", "--func", "sin", "--m", "4", "--x", "0.5") == 0
    out = capsys.readouterr().out
    assert "value=0.9999770598574257" in out
    assert "error=2.29401e-5" in out
    assert "bound=2.568210335854687e-05" in out


def test_eval_outside_domain_notes_it(capsys):
    assert run_cli("eval", "--func", "cos", "--m", "2", "--x", "0.7") == 0
    out = capsys.readouterr().out
    assert "note=outside certified domain" in out
    assert "bound=" not in out


def test_eval_at_zero_exact(capsys):
    assert run_cli("eval", "--func", "sin", "--m", "3", "--x", "0") == 0
    out = capsys.readouterr().out
    assert "value=0.0" in out


@pytest.mark.parametrize("func,x", [("cos", "0.5"), ("sin", "1")])
def test_eval_exact_zero_reference(capsys, func, x):
    assert run_cli("eval", "--func", func, "--m", "3", "--x", x) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["value=0.0", "reference=0.0", "error=0.0"]


def test_bound_fields(capsys):
    assert run_cli("bound", "--func", "cos", "--m", "1", "--x", "0") == 0
    out = capsys.readouterr().out
    for key in ("m=1", "leading_term=", "q_m=", "tail_factor=", "bound=", "domain=(-0.5,0.5)"):
        assert key in out


def test_bound_outside_domain_is_usage_error(capsys):
    assert run_cli("bound", "--func", "sin", "--m", "2", "--x", "1.5") == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_bound_refuses_an_index_over_the_cap_as_eval_does(capsys):
    errors = []
    for command in ("eval", "bound"):
        assert run_cli(command, "--func", "sin", "--m", "201", "--x", "0.3") == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] == "error: coefficient index 201 exceeds the limit 200\n"
    assert run_cli("bound", "--func", "sin", "--m", "200", "--x", "0.3") == 0
    assert capsys.readouterr().out.startswith("m=200\n")


def test_select_degree(capsys):
    assert run_cli("select", "--func", "sin", "--tol", "1e-6") == 0
    assert capsys.readouterr().out.strip() == "m=5"
    assert run_cli("select", "--func", "sin", "--tol", "0.3") == 0
    assert capsys.readouterr().out.strip() == "m=1"


def test_select_very_small_tolerance_still_within_limit(capsys):
    assert run_cli("select", "--func", "sin", "--tol", "1e-300") == 0
    assert capsys.readouterr().out.strip() == "m=91"


def test_select_underflowing_tolerance_is_usage_error(capsys):
    # 1e-400 underflows the float flag to zero, which is rejected
    assert run_cli("select", "--func", "sin", "--tol", "1e-400") == cli.EXIT_USAGE


# --- compare ------------------------------------------------------------------

def test_compare_shape_and_zero_row(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code = run_cli(
        "compare", "--func", "sin", "--m-list", "1,2,3,4", "--grid", "16",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,reference,Q_1,Q_2,Q_3,Q_4,S_1,S_2,S_3,S_4"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert all(float(v) == 0.0 for v in first[1:])
    mid = lines[9].split(",")  # x = 8/15... closest row to one half
    assert float(mid[1]) == pytest.approx(math.sin(math.pi * float(mid[0])), abs=1e-12)
    q_cols = [float(v) for v in mid[2:6]]
    assert q_cols == sorted(q_cols)  # monotone in m toward the reference
    assert all(q < float(mid[1]) for q in q_cols)


def test_compare_exact_zero_references(capsys):
    assert run_cli("compare", "--func", "cos", "--grid", "3", "--m-list", "2") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("-0.5", "0.0"), ("0.0", "1.0"), ("0.5", "0.0")]


def test_compare_cos_headers(capsys):
    assert run_cli("compare", "--func", "cos", "--m-list", "1,2", "--grid", "3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,reference,P_1,P_2,S_1,S_2"
    assert lines[1].split(",")[0] == "-0.5"


def test_compare_seed_jitter_is_deterministic(capsys):
    assert run_cli("compare", "--func", "sin", "--m-list", "1", "--grid", "8",
                   "--seed", "7") == 0
    first = capsys.readouterr().out
    assert run_cli("compare", "--func", "sin", "--m-list", "1", "--grid", "8",
                   "--seed", "7") == 0
    assert capsys.readouterr().out == first
    assert run_cli("compare", "--func", "sin", "--m-list", "1", "--grid", "8") == 0
    assert capsys.readouterr().out != first


def test_compare_cos_maclaurin_columns_are_even_partial_sums(capsys):
    # S_m = sum_{k<m} (-1)^k (pi x)^(2k)/(2k)!; each float term takes 7k
    # roundings (math.pi, the product pi*x, then t*t, /d and *= per step) and
    # the running sum m-1 more, so |S_m - exact| <= gamma_{8m} sum |term_k|
    # (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.3)
    m_list = (1, 2, 5, 9)
    assert run_cli("compare", "--func", "cos", "--m-list", "1,2,5,9", "--grid", "301",
                   "--seed", "7") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(",")[-4:] == [f"S_{m}" for m in m_list]
    u = mpf(2) ** -53
    with mp.workdps(50):
        for line in lines[1:]:
            fields = line.split(",")
            x = float(fields[0])
            for m, text in zip(m_list, fields[-4:]):
                value = float(text)
                assert value == maclaurin_eval(m, x, COS_PI_X)
                terms = [(mp.pi * x) ** (2 * k) / mp.factorial(2 * k) for k in range(m)]
                exact = sum((-1) ** k * t for k, t in enumerate(terms))
                gamma = 8 * m * u / (1 - 8 * m * u)
                assert abs(mpf(value) - exact) <= gamma * sum(terms), (m, x)


def test_compare_single_point_grid_is_usage_error():
    # the grid spacing divides by grid-1, so one point must be refused
    # before any work, not end in a ZeroDivisionError traceback
    src = str(Path(trigpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "trigpoly.cli", "compare", "--func", "sin", "--grid", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "--grid" in proc.stderr


def test_compare_unwritable_path(capsys):
    code = run_cli("compare", "--func", "sin", "--m-list", "1", "--grid", "4",
                   "--out", "/nonexistent-dir/x.csv")
    assert code == cli.EXIT_IO


# --- prove-example ---------------------------------------------------------------

def test_prove_example_default_proves(tmp_path, capsys):
    curves = tmp_path / "f.csv"
    code = run_cli("prove-example", "--emit-curves", str(curves), "--grid", "32")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("PROVED")
    assert "min_lower_bound=" in out
    lines = curves.read_text().splitlines()
    assert lines[0] == "x,f,f_minus_f4"
    x0, f0, d0 = lines[1].split(",")
    assert float(x0) == 0.0
    assert float(f0) == pytest.approx(4 / 9, rel=1e-15)
    assert float(d0) == 0.0
    assert all(float(line.split(",")[2]) >= 0 for line in lines[1:])


def test_prove_example_exhaustion_exits_five(capsys):
    assert run_cli("prove-example", "--max-depth", "8") == cli.EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.startswith("INCONCLUSIVE")


def test_prove_example_depth_below_floor_is_usage(capsys):
    assert run_cli("prove-example", "--max-depth", "4") == cli.EXIT_USAGE


def test_prove_example_inconclusive_wiring(monkeypatch, capsys):
    fake = PositivityProof(
        target_coefficients=(),
        domain=(0.0, 0.5),
        subintervals=((0.0, 0.25, 1.0),),
        max_depth_used=24,
        proved=False,
        unresolved=((0.25, 0.5),),
    )
    monkeypatch.setattr(cli.verify, "prove_example_inequality", lambda d, g: fake)
    assert run_cli("prove-example") == cli.EXIT_INCONCLUSIVE
    assert "unresolved=1" in capsys.readouterr().out


def test_prove_example_refutation_exits_one(monkeypatch, capsys):
    refuted = prove_polynomial_positive([IntervalValue(-1)], (0.0, 0.5), 24, 50)
    assert refuted.status == "refuted"
    monkeypatch.setattr(cli.verify, "prove_example_inequality", lambda d, g: refuted)
    assert run_cli("prove-example") == cli.EXIT_PROPERTY_FAIL
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "REFUTED target > 0 on [0.0, 0.5]"
    assert "refutation=0.0,0.5,-1.0" in out
    assert not any(line.startswith("unresolved=") for line in out)


# --- verify -----------------------------------------------------------------------

def test_verify_taylor_suite(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code = run_cli("verify", "--suite", "taylor", "--json", str(report_path))
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("taylor_exactness,pass,")
    assert report_path.exists()


def test_verify_failure_exits_one(monkeypatch, capsys):
    import trigpoly.verify as v

    bad = v.PropertyReport("coeff_bounds", "fail", ("j=3", -1.0), {})
    monkeypatch.setattr(cli.verify, "check_coefficient_bounds", lambda j, d: bad)
    assert run_cli("verify", "--suite", "coeffs") == cli.EXIT_PROPERTY_FAIL
    assert "fail" in capsys.readouterr().out


def test_verify_bessel_suite_quick(capsys):
    # full bessel suite covers j<=50; keep the CLI test at default scale
    code = run_cli("verify", "--suite", "bessel")
    assert code == 0
    assert capsys.readouterr().out.startswith("bessel_identity,pass,")


def test_verify_bessel_suite_at_thirty_digits(capsys):
    # the routes agree to about 10^-(digits+5); the tolerance follows --digits
    code = run_cli("verify", "--suite", "bessel", "--digits", "30")
    assert code == 0
    assert capsys.readouterr().out.startswith("bessel_identity,pass,")


def _report_lines(reports):
    return [cli.verify.report_line(r) for r in reports]


def test_subset_suites_match_the_all_suite():
    # a subset of the reports, asked for alone, gives the same reports
    every = {r.property_id: r for r in cli.run_suite("all", 50)}
    for suite, ids in (("bracketing", ["bracketing_sin", "bracketing_cos"]),
                       ("maclaurin", ["maclaurin_interleaving"])):
        reports = cli.run_suite(suite, 50)
        assert [r.property_id for r in reports] == ids
        assert reports == [every[i] for i in ids]
        assert _report_lines(reports) == _report_lines(every[i] for i in ids)


def test_run_suite_keeps_no_state_between_calls(monkeypatch):
    # a second call must read the coefficients afresh: with c_3's lower end
    # at 0 (as in test_nudged_coefficient_fails_bracketing) both bracketing
    # proofs fail on that hypothesis
    assert all(r.passed for r in cli.run_suite("all", 50))
    original = cli.verify._fixed_coefficients

    def nudged(n, bits):
        coeffs = list(original(n, bits))
        coeffs[2] = (0, coeffs[2][1])
        return tuple(coeffs)

    monkeypatch.setattr(cli.verify, "_fixed_coefficients", nudged)
    reports = {r.property_id: r for r in cli.run_suite("all", 50)}
    for name in ("bracketing_sin", "bracketing_cos"):
        assert reports[name].status == "fail", name
        assert reports[name].worst_case == ("j=3 c_j lower end", 0.0), name
    assert reports["maclaurin_interleaving"].passed


# --- bench --------------------------------------------------------------------------

def test_bench_csv(tmp_path):
    out_path = tmp_path / "bench.csv"
    code = run_cli("bench", "--grid", "1000", "--m-list", "1", "--reps", "3",
                   "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "method,m,ns_per_eval,max_abs_err,mean_abs_err,certified_bound"
    assert len(lines) == 4  # Q_1, S_1, native

def test_bench_rejects_small_grid(capsys):
    assert run_cli("bench", "--grid", "10") == cli.EXIT_USAGE


def test_bench_has_no_seed_flag(capsys):
    # bench grids are deterministic; the former no-op --seed is refused
    assert run_cli("bench", "--seed", "1") == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


# --- environment ----------------------------------------------------------------------

def test_env_digits_override(monkeypatch, capsys):
    monkeypatch.setenv("TRIGPOLY_DIGITS", "35")
    assert run_cli("coeffs", "--max-j", "1", "--format", "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    digits = lines[1].split(",")[1]
    assert digits.startswith("0.3183098861837906715377675267450")
    assert len(digits) == 2 + 35 + 2  # "0." plus 35 + 2 significant digits


def test_env_digits_invalid_is_precision_error(monkeypatch, capsys):
    monkeypatch.setenv("TRIGPOLY_DIGITS", "lots")
    assert run_cli("coeffs", "--max-j", "1") == cli.EXIT_PRECISION


def test_entry_point_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "trigpoly" in capsys.readouterr().out
