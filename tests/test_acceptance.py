"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time
from fractions import Fraction

from mpmath import mp, mpf

from trigpoly.approx import (
    COS_PI_X,
    SIN_PI_X,
    build_poly,
    select_degree,
)
from trigpoly.bench import CSV_HEADER, BenchConfig, rows_to_csv, run_bench
from trigpoly.coeffs import (
    coeff_bessel,
    coeff_direct,
    coeff_recurrence,
    coeff_symbolic,
)
from trigpoly.precision import working
from trigpoly.verify import (
    check_bessel_identity,
    check_bracketing,
    check_coefficient_bounds,
    check_maclaurin_interleaving,
    check_taylor_exactness,
    example_curve,
    prove_example_inequality,
)

DIGITS = 50
ROUTE_TOL = mpf(10) ** -40


def _run(number, name, fn, limit=None):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds the {limit}s budget"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_coefficient_values():
    def body():
        displayed = [0.318, 0.0323, 1.16e-3, 2.16e-5, 2.46e-7]
        expected_forms = [
            ((1,), 1),
            ((1,), 1),
            ((12, -1), 6),
            ((10, -1), 2),
            ((1680, -180, 1), 120),
        ]
        syms = coeff_symbolic(5)
        assert [(s.numerator, s.denominator) for s in syms] == expected_forms
        table = coeff_recurrence(5, DIGITS)
        with working(DIGITS + 10):
            for j in range(1, 6):
                via_recurrence = table.value(j).value
                via_direct = coeff_direct(j, DIGITS)[0].value
                via_bessel = coeff_bessel(j, DIGITS).value
                exact = syms[j - 1].evaluate(DIGITS + 10).value
                assert abs(via_recurrence - via_direct) <= ROUTE_TOL * via_direct
                assert abs(via_bessel - via_direct) <= ROUTE_TOL * via_direct
                assert abs(via_direct - exact) <= ROUTE_TOL * exact
                assert float(via_direct) / displayed[j - 1] - 1 < 5e-3
    _run(1, "coefficient-values", body, limit=1.0)


def test_criterion_02_coefficient_inequalities():
    def body():
        report = check_coefficient_bounds(100, DIGITS)
        assert report.passed, report.worst_case
        assert report.worst_case[1] > 0
    _run(2, "coefficient-inequalities", body, limit=10.0)


def test_criterion_03_monotone_bracketing():
    def body():
        for func in (SIN_PI_X, COS_PI_X):
            report = check_bracketing(func, 10, 2048, DIGITS)
            assert report.passed, report.worst_case
    _run(3, "monotone-bracketing", body, limit=60.0)


def _partial_sums_at(poly_coeffs, y):
    """Partial sums sum_{j<=m} c_j y^j for m = 1..len(coeffs), in mpf."""
    sums = []
    acc = mpf(0)
    ypow = mpf(1)
    for c in poly_coeffs:
        ypow *= y
        acc += c * ypow
        sums.append(acc)
    return sums


def _grid(n):
    """The sine grid of the bound sweep, exact: n uniform points i/(n+1) and 32 points
    within 1e-6 of each end, where every term of the bound degenerates."""
    near = [Fraction(1e-6) / 2 ** k for k in range(32)]
    return sorted(near + [Fraction(i, n + 1) for i in range(1, n + 1)] + [1 - u for u in near])


def _bound_validity_sweep(func, m_max, grid_size):
    top = build_poly(func, m_max, DIGITS)
    is_cos = func == COS_PI_X
    with working(DIGITS):
        slack = mpf(10) ** -(DIGITS - 10)
        pi2 = mp.pi ** 2
        # the cosine grid is the sine one minus 1/2
        for u in _grid(grid_size):
            v = u - Fraction(1, 2) if is_cos else u
            x = mpf(v.numerator) / v.denominator
            y = top.y_of_hp(x)
            ref = mp.cos(mp.pi * x) if is_cos else mp.sin(mp.pi * x)
            sums = _partial_sums_at(top.hp_coeffs, y)
            lead = pi2 ** 2 * y ** 2 / 24
            for m in range(1, m_max + 1):
                q_m = (pi2 / 4) / ((2 * m + 4) * (2 * m + 3))
                bound = lead / (1 - q_m)
                err = ref - sums[m - 1]
                assert err > -slack, (func, m, float(x))
                assert bound - err > -slack, (func, m, float(x))
                lead *= pi2 * y / ((2 * m + 3) * (2 * m + 4))


def test_criterion_04_error_bound_validity():
    def body():
        _bound_validity_sweep(SIN_PI_X, 10, 2048)
        _bound_validity_sweep(COS_PI_X, 10, 2048)
        poly = build_poly(SIN_PI_X, 4, DIGITS)
        with working(DIGITS):
            sup = max(
                abs(mp.sin(mp.pi * mpf(i) / 2048) - poly.eval_hp(mpf(i) / 2048))
                for i in range(2049)
            )
            assert sup <= mpf("2.6e-5")
    _run(4, "error-bound-validity", body)


def test_criterion_05_bessel_cross_check():
    def body():
        report = check_bessel_identity(50, DIGITS)
        assert report.passed, report.worst_case
    _run(5, "bessel-cross-check", body, limit=30.0)


def test_criterion_06_taylor_exactness():
    def body():
        report = check_taylor_exactness(8, DIGITS)
        assert report.passed, report.worst_case
    _run(6, "taylor-exactness", body)


def test_criterion_07_maclaurin_brackets():
    def body():
        report = check_maclaurin_interleaving(4, 2048, DIGITS)
        assert report.passed, report.worst_case
        domains = report.metadata["five_way_chain_valid_for"]
        assert set(domains) == {f"j={j}" for j in range(1, 5)}
        # the full five-way chain holds nowhere in (0,1]; its onset is reported
        assert domains["j=1"]["theoretical_x"] > 1.0
        print(f"  five-way chain validity: {domains}")
    _run(7, "maclaurin-brackets", body)


def test_criterion_08_example_proof():
    def body():
        proof = prove_example_inequality()
        assert proof.proved
        assert proof.min_lower_bound > 0
        rows = example_curve(2048, DIGITS)
        assert all(diff >= 0 for _, _, diff in rows)
        assert rows[0][1] == mpf(4) / 9 or abs(rows[0][1] - 4 / 9) < 1e-15
    _run(8, "example-proof", body, limit=30.0)


def test_criterion_09_degree_selection():
    def body():
        assert select_degree(SIN_PI_X, 1e-6, DIGITS) == 5
        assert select_degree(SIN_PI_X, 0.3, DIGITS) == 1
    _run(9, "degree-selection", body)


def test_criterion_10_bench_integrity():
    def body():
        rows = run_bench(BenchConfig(grid_size=1000, m_list=(1, 2, 3, 4), repetitions=3))
        q_rows = [r for r in rows if r.method == "Q_m"]
        assert len(q_rows) == 4
        for row in q_rows:
            assert row.max_abs_err <= row.certified_bound, (row.m, row.max_abs_err)
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert all(len(line.split(",")) == 6 for line in lines[1:])
        # timing is reported, never asserted
        assert all(r.ns_per_eval > 0 for r in rows)
    _run(10, "bench-integrity", body)
