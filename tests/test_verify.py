import dataclasses
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

import trigpoly.approx as approx
import trigpoly.cli as cli
import trigpoly.coeffs as coeffs
import trigpoly.verify as verify
from trigpoly.approx import COS_PI_X, SIN_PI_X, build_poly, maclaurin_eval
from trigpoly.coeffs import (
    c_enclosure,
    coeff_recurrence,
    coeff_symbolic,
    coefficient_table,
)
from trigpoly.intervals import (
    IntervalValue,
    exact_ratio,
    fixed_bits,
    fixed_from_interval,
    fixed_horner,
    fixed_ratio,
    fixed_sin_cos_pi,
    fixed_y,
    interval_from_fixed,
    poly_eval_centered,
)
from trigpoly.precision import DEFAULT_INDEX_LIMIT, IndexLimitError, working
from trigpoly.verify import (
    PropertyReport,
    check_bessel_identity,
    check_bracketing,
    check_coefficient_bounds,
    check_maclaurin_interleaving,
    check_taylor_exactness,
    example_curve,
    example_inequality_polynomial,
    prove_example_inequality,
    prove_polynomial_positive,
    report_line,
    reports_to_json,
)


# --- coefficient bounds -------------------------------------------------------

def test_coefficient_bounds_pass_small():
    report = check_coefficient_bounds(5, 50)
    assert report.passed
    assert report.metadata["j_max"] == 5
    assert report.metadata["evidence"] == "outward-rounded fixed-point enclosure"
    assert report.metadata["base_bits"] == fixed_bits(50)


def test_coefficient_bounds_worked_arithmetic():
    # j=1: 1/pi < 1/2 and 1 - pi^2/24 < 2/pi < 1; j=5: t_5 * 10! ~ 0.8930
    table = coeff_recurrence(5, 50)
    t1 = float(table.value(1))
    assert t1 < 0.5
    assert 1 - math.pi ** 2 / 24 == pytest.approx(0.5887664832879433, rel=1e-14)
    assert 2 / math.pi == pytest.approx(0.6366197723675814, rel=1e-14)
    assert 1 - math.pi ** 2 / 24 < 2 * t1 < 1
    scaled5 = float(table.value(5)) * math.factorial(10)
    assert scaled5 == pytest.approx(0.89302385693916633, rel=1e-12)


def test_coefficient_bounds_full_hundred():
    report = check_coefficient_bounds(100, 50)
    assert report.passed
    assert report.worst_case[1] > 0


def test_corrupted_coefficient_is_reported(monkeypatch):
    # t_3 * 6! enclosed near 1/2, below the bracket's lower end 1 - pi^2/56
    original = verify.fixed_t_scaled

    def corrupted(j, bits):
        return (1 << bits - 1, (1 << bits - 1) + 1) if j == 3 else original(j, bits)

    monkeypatch.setattr(verify, "fixed_t_scaled", corrupted)
    report = check_coefficient_bounds(5, 50)
    assert not report.passed
    assert report.worst_case[0] == "j=3 bracket"


def test_coefficient_bounds_have_no_slack(monkeypatch):
    # an enclosure that touches 1 leaves the upper margin's lower end at 0: a failure
    original = verify.fixed_t_scaled

    def touching(j, bits):
        lo, _ = original(j, bits)
        return (lo, 1 << bits) if j == 2 else original(j, bits)

    monkeypatch.setattr(verify, "fixed_t_scaled", touching)
    report = check_coefficient_bounds(5, 50)
    assert not report.passed
    assert report.worst_case == ("j=2 upper", -5e-324)


def test_coefficient_bounds_fail_at_the_bracket(monkeypatch):
    # a lower end at the bracket 1 - pi^2/(8(2j+1)), rounded down, leaves the
    # bracket margin's lower end at or below 0 for every j
    original, bits = verify.fixed_t_scaled, fixed_bits(30)
    with mp.workdps(200):
        at_bracket = [int(mp.floor((1 - mp.pi ** 2 / (8 * (2 * j + 1))) * 2 ** bits))
                      for j in range(31)]
    for j in range(1, 31):
        monkeypatch.setattr(verify, "fixed_t_scaled", lambda i, b, j=j: (
            (at_bracket[j], original(i, b)[1]) if i == j else original(i, b)))
        report = check_coefficient_bounds(j, 30)
        assert not report.passed and report.worst_case[0] == f"j={j} bracket", j


def test_coefficient_bounds_refuses_j_max_below_one():
    with pytest.raises(ValueError, match="j_max"):
        check_coefficient_bounds(0, 50)


# --- bracketing -----------------------------------------------------------------

def test_bracketing_sin_small_grid():
    report = check_bracketing(SIN_PI_X, 3, 64, 50)
    assert report.passed
    assert report.metadata["evidence"] == "outward-rounded fixed-point enclosure"
    assert report.worst_case[1] > 0


def test_bracketing_cos_small_grid_and_worked_value():
    report = check_bracketing(COS_PI_X, 2, 64, 50)
    assert report.passed
    # P_2(0) = pi/4 + pi/16 sits strictly between P_1(0) and cos(0) = 1
    p2_at_zero = math.pi / 4 + math.pi / 16
    assert p2_at_zero == pytest.approx(0.9817477042468103, rel=1e-14)
    assert math.pi / 4 < p2_at_zero < 1.0


def test_bracketing_rejects_tiny_m():
    with pytest.raises(ValueError):
        check_bracketing(SIN_PI_X, 1, 64, 50)


# --- Bessel identity -------------------------------------------------------------

def test_bessel_identity_small():
    report = check_bessel_identity(5, 50)
    assert report.passed
    assert "tolerance" not in report.metadata
    where, margin = report.worst_case
    # relative to the 10^-50 each certificate must stay below
    assert where.endswith(" route") and 0 < margin < 1


def test_bessel_identity_route_margin_is_exact_and_rounded_down():
    # 1 - 10^digits trunc_bound/t_j from the table's certificates, in Fraction
    report = check_bessel_identity(8, 40)
    exact = min(
        (1 - 10 ** 40 * Fraction(*exact_ratio(e.trunc_bound.value))
         / Fraction(*exact_ratio(e.value.value)), e.j)
        for e in coefficient_table(8, 40, route="bessel")
    )
    assert report.worst_case[0] == f"j={exact[1]} route"
    margin = report.worst_case[1]
    assert Fraction(margin) <= exact[0] < Fraction(math.nextafter(margin, math.inf))


def test_bessel_identity_passes_past_the_double_range():
    # 10^-330 is below the least double: a margin on the absolute scale
    # would round to 0.0 and fail the report
    report = check_bessel_identity(50, 330)
    assert report.passed, report.worst_case
    assert 0.5 < report.worst_case[1] < 1


def test_bessel_identity_margin_is_relative_to_the_tolerance(monkeypatch):
    # certificates of 3/4 and 6/4 times 2^-100 against 10^-30 (2^-100 is
    # about 0.79e-30): margins 1 - 10^30 (3/4) 2^-100 > 0, and the second < 0
    def table(j_max, digits, route):
        return [SimpleNamespace(j=j, value=SimpleNamespace(value=mpf(1)),
                                trunc_bound=SimpleNamespace(value=mpf(3 * j) / 4 * mpf(2) ** -100))
                for j in range(1, j_max + 1)]

    monkeypatch.setattr(verify, "coefficient_table", table)
    for j_max, status in ((1, "pass"), (2, "fail")):
        report = check_bessel_identity(j_max, 30)
        assert report.status == status and report.worst_case[0] == f"j={j_max} route"
        exact = 1 - 10 ** 30 * Fraction(3 * j_max, 4) / 2 ** 100
        margin = report.worst_case[1]
        assert Fraction(margin) <= exact < Fraction(math.nextafter(margin, math.inf))


def test_bessel_identity_refuses_j_max_below_one():
    with pytest.raises(ValueError, match="j_max"):
        check_bessel_identity(0, 50)
    # past the index cap the caller is at fault: raised, not reported as a refused route
    with pytest.raises(IndexLimitError):
        check_bessel_identity(DEFAULT_INDEX_LIMIT + 1, 50)


def test_bessel_identity_reports_a_refused_route_as_fail(monkeypatch):
    # a Bessel value off by 10^-45 relative, through the first term of its
    # series from the ladder: its certificate misses 10^-50
    good = coeffs._ladder

    def off(*args):
        firsts = good(*args)
        lo, hi = firsts[3].lo, firsts[3].hi
        with working(50):
            firsts[3] = IntervalValue(lo * (1 + mpf(10) ** -45), hi * (1 + mpf(10) ** -45))
        return firsts

    monkeypatch.setattr(coeffs, "_ladder", off)
    report = check_bessel_identity(5, 50)
    assert report.status == "fail"
    assert report.worst_case[0] == (
        "route refused: coefficient 3 certificate not below 10^-50 relative")
    assert report.worst_case[1] < 0


# --- Maclaurin interleaving -------------------------------------------------------

def test_maclaurin_interleaving_passes_on_unit_interval():
    report = check_maclaurin_interleaving(2, 128, 50)
    assert report.passed
    assert report.metadata["asserted"] == "sub-chains on (0,1]"


def test_maclaurin_interleaving_refuses_j_max_below_one():
    with pytest.raises(ValueError, match="j_max"):
        check_maclaurin_interleaving(0, 16, 50)


def test_maclaurin_chain_failure_at_x_equals_one():
    # the five-way chain needs S_1 < S_3, which reverses on (0, 1]
    s1 = maclaurin_eval(1, 1.0)
    s2 = maclaurin_eval(2, 1.0)
    s3 = maclaurin_eval(3, 1.0)
    s4 = maclaurin_eval(4, 1.0)
    assert s1 == pytest.approx(math.pi, rel=1e-15)
    assert s2 == pytest.approx(-2.0261201264601767, rel=1e-13)
    assert s3 == pytest.approx(0.5240439134171686, rel=1e-13)
    assert s4 == pytest.approx(-0.0752206159036234, rel=1e-12)
    assert s2 < s4 < 0 < s3 < s1  # brackets hold, but S_1 > S_3


def test_maclaurin_metadata_reports_chain_threshold():
    report = check_maclaurin_interleaving(2, 64, 50)
    info = report.metadata["five_way_chain_valid_for"]
    j1 = info["j=1"]
    assert j1["theoretical_x"] == pytest.approx(math.sqrt(20) / math.pi, rel=1e-12)
    assert j1["empirical_x_above"] == pytest.approx(j1["theoretical_x"], abs=0.02)
    # the chain is not valid anywhere inside (0, 1]
    assert j1["theoretical_x"] > 1.0


# --- Taylor exactness ---------------------------------------------------------------

def test_taylor_exactness_small():
    # the margin is c_{m+1}'s lower end, smallest at m = m_max
    report = check_taylor_exactness(3, 50)
    assert report.passed
    where, margin = report.worst_case
    assert where == "m=3 order=4"
    form = coeff_symbolic(4)[3]
    with mp.workdps(80):
        c4 = mp.pi * mp.polyval(form.numerator[::-1], mp.pi ** 2) / form.denominator
        assert margin <= c4
        assert margin == pytest.approx(float(c4), rel=1e-15)


def test_taylor_exactness_refuses_an_order_past_the_index_cap():
    # order m_max + 1 needs the symbolic form N_{m_max+1}, which obeys the cap
    with pytest.raises(IndexLimitError):
        check_taylor_exactness(DEFAULT_INDEX_LIMIT, 50)


def test_taylor_exactness_names_a_perturbed_coefficient(monkeypatch):
    # N_3 with its constant term off by one: Q_3 then misses sin at order 3
    good = coeff_symbolic(3)[2]
    bad = dataclasses.replace(good, numerator=(good.numerator[0] + 1,) + good.numerator[1:])
    monkeypatch.setattr(approx, "coeff_symbolic", lambda m: tuple(
        bad if f.index == 3 else f for f in coeff_symbolic(m)))
    report = check_taylor_exactness(4, 50)
    assert report.status == "fail"
    assert report.worst_case[0] == "m=3 order=3"


def test_taylor_exactness_checks_the_order_after_m(monkeypatch):
    # Q_2 right through order 2 but off by u at order 3: sin - Q_2 is not c_3 x^3 there
    good = approx.sine_monomials

    def off(m):
        q = good(m)
        if m == 2:
            q[3] = coeffs.poly_sum(q[3], (0, 1))
        return q

    monkeypatch.setattr(verify, "sine_monomials", off)
    report = check_taylor_exactness(4, 50)
    assert report.status == "fail"
    assert report.worst_case == ("m=2 order=3", -math.inf)


# --- positivity prover ----------------------------------------------------------------

def test_prove_example_succeeds_with_defaults():
    proof = prove_example_inequality()
    assert proof.proved
    assert proof.max_depth_used <= 24
    assert proof.preconditions["positive_y_coefficients"] is True
    assert all(lb > 0 for _, _, lb in proof.subintervals)
    assert proof.min_lower_bound > 0


@pytest.mark.parametrize("digits", [50, 80])
def test_proof_lower_bounds_are_the_enclosures_rounded_down(digits):
    proof = prove_example_inequality(digits=digits)
    bits = fixed_bits(digits)
    coeffs = [fixed_from_interval(c, bits) for c in proof.target_coefficients]
    dcoeffs = [(n * lo, n * hi) for n, (lo, hi) in enumerate(coeffs)][1:]
    for lo, hi, bound in proof.subintervals:
        end = Fraction(poly_eval_centered(coeffs, dcoeffs, lo, hi, bits)[0], 1 << bits)
        assert Fraction(bound) <= end < Fraction(math.nextafter(bound, math.inf))


def test_proof_subintervals_tile_domain_exactly():
    proof = prove_example_inequality()
    assert proof.subintervals[0][0] == 0.0
    assert proof.subintervals[-1][1] == 0.5
    for left, right in zip(proof.subintervals, proof.subintervals[1:]):
        assert left[1] == right[0]


def test_prove_example_depth_floor():
    with pytest.raises(ValueError):
        prove_example_inequality(max_depth=7)


def test_prove_example_exhaustion_is_inconclusive_not_false():
    # depth 8 cannot resolve the region near the true minimum (~5.1e-5)
    proof = prove_example_inequality(max_depth=8)
    assert not proof.proved
    assert proof.unresolved
    assert all(lb > 0 for _, _, lb in proof.subintervals)


def test_engine_trivial_positive_polynomial():
    coeffs = [IntervalValue(1), IntervalValue(1)]  # 1 + x
    proof = prove_polynomial_positive(coeffs, (0.0, 0.5), max_depth=10, digits=50)
    assert proof.proved and proof.status == "proved"
    assert len(proof.subintervals) == 1
    assert proof.max_depth_used == 0


def test_engine_touching_zero_is_never_proved():
    # (x - 1/4)^2 vanishes inside the domain: positivity must not be claimed,
    # and nor may it be refuted, since the polynomial is never negative
    coeffs = [IntervalValue(0.0625), IntervalValue(-0.5), IntervalValue(1)]
    proof = prove_polynomial_positive(coeffs, (0.0, 0.5), max_depth=12, digits=50)
    assert not proof.proved
    assert any(lo <= 0.25 <= hi for lo, hi in proof.unresolved)
    assert proof.refutation is None and proof.status == "inconclusive"


def test_engine_refutes_a_negative_constant_at_the_first_tile():
    # bisecting would split all 2^24 tiles; the first enclosure already lies below 0
    proof = prove_polynomial_positive([IntervalValue(-1)], (0.0, 0.5), max_depth=24, digits=50)
    assert not proof.proved
    assert proof.refutation == (0.0, 0.5, -1.0) and proof.status == "refuted"
    assert proof.metadata["tiles"] == 1
    assert proof.subintervals == () and proof.unresolved == ()


def test_engine_stops_at_a_tile_enclosed_by_exactly_zero():
    # no split can move the zero polynomial off 0: one tile, not 2^25 - 1
    proof = prove_polynomial_positive([IntervalValue(0)], (0.0, 0.5), 24, 30)
    assert proof.status == "inconclusive" and proof.metadata["tiles"] == 1
    assert proof.unresolved == ((0.0, 0.5),) and proof.subintervals == ()


@pytest.mark.parametrize("digits", [30, 50])
def test_engine_refutation_bound_is_the_enclosure_rounded_up(digits):
    # (x - 1/4)^2 - 2^-20 < 0 near 1/4; the first tile found below 0 stops the search
    coeffs = [IntervalValue(0.0625 - 2.0 ** -20), IntervalValue(-0.5), IntervalValue(1)]
    proof = prove_polynomial_positive(coeffs, (0.0, 0.5), max_depth=24, digits=digits)
    assert not proof.proved
    lo, hi, bound = proof.refutation
    assert abs(lo - 0.25) < 2.0 ** -10 and abs(hi - 0.25) < 2.0 ** -10 and bound < 0
    bits = fixed_bits(digits)
    fixed = [fixed_from_interval(c, bits) for c in coeffs]
    deriv = [(n * a, n * b) for n, (a, b) in enumerate(fixed)][1:]
    end = Fraction(poly_eval_centered(fixed, deriv, lo, hi, bits)[1], 1 << bits)
    assert Fraction(math.nextafter(bound, -math.inf)) < end <= Fraction(bound)
    assert proof.metadata["tiles"] < 100


def test_engine_depth_cap():
    with pytest.raises(ValueError):
        prove_polynomial_positive([IntervalValue(1)], (0.0, 0.5), max_depth=99)


@pytest.mark.parametrize("domain", [(0.5, 0.0), (0.25, 0.25), (0.0, math.inf), (math.nan, 0.5)],
                         ids=["inverted", "empty", "unbounded", "nan"])
def test_engine_refuses_an_empty_inverted_or_unbounded_domain(domain):
    # x - 0.3 < 0 on [0, 0.3): an inverted domain must not be "proved"
    with pytest.raises(ValueError, match="domain must be finite with lo < hi"):
        prove_polynomial_positive([IntervalValue(-0.3), IntervalValue(1)], domain, 20)


def _f4_coefficients_mp():
    # f4's monomial coefficients in mpf, from t_j's series and plain convolutions
    pi2 = mp.pi ** 2
    c = [mp.fsum((-pi2 / 4) ** k * mp.binomial(j + k, j) / mp.factorial(2 * j + 2 * k)
                 for k in range(120)) * pi2 ** j for j in range(1, 5)]

    def mul(a, b):
        out = [mpf(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                out[i + k] += x * y
        return out

    q, power = [mpf(0)] * 9, [mpf(1)]
    for cj in c:
        power = mul(power, [0, 1, -1])  # (x - x^2)^j
        q = [a + cj * b for a, b in zip(q, power + [0] * (9 - len(power)))]
    square = mul(q, q)
    return [4 * (2 + 2 ** k) * v / pi2 + b
            for k, (v, b) in enumerate(zip(square, [mpf(4) / 9, -8, 15] + [0] * 14))]


def test_example_polynomial_is_exact_in_q_pi2():
    # the x, x^2, x^3 and x^5 coefficients are rational (-8, 39, 0, 0): points;
    # all 17 enclose an independent evaluation at three times the bits, up to
    # that evaluation's own rounding (about 1e-211 at the exact zeros)
    f4, _ = example_inequality_polynomial(50)
    for k, value in ((1, -8), (2, 39), (3, 0), (5, 0)):
        assert f4[k].lo == f4[k].hi == value, k
    bits = fixed_bits(50)
    with mp.workprec(3 * bits):
        oracle = _f4_coefficients_mp()
        slack = mpf(2) ** (-2 * bits)
        assert all(c.lo - slack <= v <= c.hi + slack for c, v in zip(f4, oracle, strict=True))
        assert all(c.width < mpf(10) ** -55 for c in f4)


def test_example_polynomial_endpoint_values():
    coeffs, c_intervals = example_inequality_polynomial(50)
    assert len(coeffs) == 17
    assert all(c.lo > 0 for c in c_intervals)
    bits = fixed_bits(50)
    fixed = [fixed_from_interval(c, bits) for c in coeffs]
    at_zero = interval_from_fixed(fixed_horner(fixed, (0, 0), bits), bits)
    with working(60):
        four_ninths = mpf(4) / 9
    assert at_zero.contains(four_ninths)
    assert at_zero.width < mpf(10) ** -45
    half = 1 << (bits - 1)
    at_half = interval_from_fixed(fixed_horner(fixed, (half, half), bits), bits)
    # independent oracle: assemble f4(1/2) from the degree-4 approximant
    # (the Q(1) term vanishes, leaving 4/9 - 1/4 + (8/pi^2) Q(1/2)^2)
    poly4 = build_poly(SIN_PI_X, 4, 60)
    with working(70):
        x = mpf(1) / 2
        q1 = poly4.eval_hp(x)
        q2 = poly4.eval_hp(2 * x)
        oracle = mpf(4) / 9 + 15 * x ** 2 - 8 * x + 4 * (2 * q1 ** 2 + q2 ** 2) / mp.pi ** 2
        assert q2 == 0
    assert at_half.contains(oracle)
    assert float(oracle) == pytest.approx(1.0049767248513321, rel=1e-14)


def test_example_curve_rows():
    rows = example_curve(64, 50)
    assert rows[0] == (0.0, pytest.approx(4 / 9, rel=1e-15), 0.0)
    assert all(diff >= 0 for _, _, diff in rows)
    assert min(f for _, f, _ in rows) > 0


# --- reports ---------------------------------------------------------------------------

def test_report_line_format():
    report = PropertyReport("demo", "pass", ("j=3", 0.25), {"note": "x"})
    line = report_line(report)
    parts = line.split(",")
    assert parts[0] == "demo"
    assert parts[1] == "pass"
    assert float(parts[2]) == 0.25
    assert parts[3] == "j=3"


def test_reports_to_json_roundtrip():
    report = check_taylor_exactness(2, 50)
    doc = json.loads(reports_to_json([report]))
    assert doc[0]["property_id"] == "taylor_exactness"
    assert doc[0]["status"] == "pass"
    assert doc[0]["metadata"]["evidence"] == "exact polynomial identity in Q[pi^2]"


def test_reports_are_deterministic():
    a = check_bracketing(SIN_PI_X, 2, 32, 50)
    b = check_bracketing(SIN_PI_X, 2, 32, 50)
    assert report_line(a) == report_line(b)
    assert a.worst_case == b.worst_case


# --- grid reports, brute force and fixed-point enclosures ---------------------

def _maclaurin_from_scratch(m, x):
    # the m-term sum built on its own, as the grid checks once did per m
    t = mp.pi * x
    term = t
    acc = +t
    for j in range(1, m):
        term *= -t * t / ((2 * j) * (2 * j + 1))
        acc += term
    return +acc


# high-precision brute force of the grid reports' relative margins: every
# value comes from mpmath at three times the most fractional bits the
# checks may use, enough for the cancellation near the domain ends
BRUTE_PREC = 3 * (fixed_bits(50) << verify._MAX_DOUBLINGS)


def _grid_points(n, func=SIN_PI_X, include_one=False):
    # the checks' grid at 50 digits, each point exact with its label text: the
    # sine grid, the cosine grid (the sine grid minus 1/2), or the sine grid
    # and x = 1 (the Maclaurin grid)
    with working(50):
        ratios = verify._grid(n)
    if func == COS_PI_X:
        ratios = [(2 * p - q, 2 * q) for p, q in ratios]
    if include_one:
        ratios.append((1, 1))
    with mp.workprec(BRUTE_PREC):  # exact: no point needs as many bits
        return [(mpf(p) / q, verify._dyadic_text(p, q)) for p, q in ratios]


def _brute_y_coefficients(n):
    # c_j = pi N_j(pi^2) / D_j from the exact forms
    pi2 = mp.pi ** 2
    return [mp.pi * sum(k * pi2 ** i for i, k in enumerate(s.numerator)) / s.denominator
            for s in coeff_symbolic(n)]


def _check_against_brute(report, rows):
    assert report.passed
    where, margin = report.worst_case
    true_min = min(rows.values())
    # every enclosure's lower end lies below the value it encloses
    assert 0 < margin <= true_min
    assert where in rows
    assert margin <= rows[where]
    return where, margin, true_min


def test_maclaurin_worst_case_matches_brute_force():
    j_max, grid = 4, 64
    rows = {}
    with mp.workprec(BRUTE_PREC):
        for x, xs in _grid_points(grid, include_one=True):
            t = mp.pi * x
            terms = [(-1) ** k * t ** (2 * k + 1) / mp.factorial(2 * k + 1)
                     for k in range(2 * j_max + 3)]
            sums = [mp.fsum(terms[:k + 1]) for k in range(len(terms))]  # sums[k] = S_{k+1}
            ref = mp.sinpi(x)
            for j in range(1, j_max + 1):
                tag = f"j={j} x={xs}"
                rows[f"{tag} even-step"] = (sums[2 * j + 1] - sums[2 * j - 1]) / abs(terms[2 * j])
                rows[f"{tag} even-below"] = (ref - sums[2 * j + 1]) / abs(terms[2 * j + 2])
                rows[f"{tag} odd-above"] = (sums[2 * j] - ref) / abs(terms[2 * j + 1])
                rows[f"{tag} prev-odd-above"] = (sums[2 * j - 2] - ref) / abs(terms[2 * j - 1])
    report = check_maclaurin_interleaving(j_max, grid, 50)
    where, margin, true_min = _check_against_brute(report, rows)
    # at the true minimum (S_1 - sin(pi) over pi^3/6 at x = 1) the enclosure is tight
    assert where == min(rows, key=rows.get) == "j=1 x=1.0 prev-odd-above"
    assert margin == pytest.approx(float(true_min), rel=1e-12)
    assert true_min == pytest.approx(6 / math.pi ** 2, rel=1e-15)


@pytest.mark.parametrize("func", [SIN_PI_X, COS_PI_X])
def test_bracketing_worst_case_matches_brute_force(func):
    m_max, grid = 10, 64
    rows = {}
    with mp.workprec(BRUTE_PREC):
        c = _brute_y_coefficients(m_max + 2)
        for x, xs in _grid_points(grid, func):
            y = mp.mpf(1) / 4 - x * x if func == COS_PI_X else x * (1 - x)
            terms = [cj * y ** (j + 1) for j, cj in enumerate(c)]  # terms[j] = c_{j+1} y^{j+1}
            sums = [mp.fsum(terms[:j + 1]) for j in range(len(terms))]
            ref = mp.cospi(x) if func == COS_PI_X else mp.sinpi(x)
            rows[f"m=1 x={xs} delta"] = (ref - sums[0]) / terms[1]
            for m in range(1, m_max + 1):
                rows[f"m={m} x={xs} chain"] = (sums[m] - sums[m - 1]) / terms[m]
                rows[f"m={m + 1} x={xs} delta"] = (ref - sums[m]) / terms[m + 1]
        chains = [v for k, v in rows.items() if k.endswith("chain")]
        deltas = [v for k, v in rows.items() if k.endswith("delta")]
        # P_{m+1} - P_m is its own leading term; the tail is at least its first term
        assert max(abs(v - 1) for v in chains) < mpf(2) ** (-BRUTE_PREC // 2)
        assert min(deltas) > 1
    report = check_bracketing(func, m_max, grid, 50)
    _, margin, _ = _check_against_brute(report, rows)
    assert margin > 0.99


def _parses_back(text, x):
    # the label parses back to x at the width of x's own mantissa
    with mp.workprec(max(x._mpf_[3], 1)):
        return mpf(text) == x


def test_grid_reports_print_x_in_full():
    for func in (SIN_PI_X, COS_PI_X):
        report = check_bracketing(func, 10, 64, 50)
        x_text = report.worst_case[0].split("x=")[1].split()[0]
        assert [x for x, _ in _grid_points(64, func) if _parses_back(x_text, x)], x_text
        assert len(x_text) > 60
    # the cosine grid's points, and the sine grid's above 1/2, need more
    # bits than the working precision; each label still parses back
    for func in (SIN_PI_X, COS_PI_X):
        for x, text in _grid_points(64, func):
            assert _parses_back(text, x), text
    with working(50):
        p, q = verify._grid(64)[-1]  # 1 - 1e-6 * 2^-31, exact
        sweep = verify._Sweep(50)
        sweep.margins(lambda p, q, bits: [(-1, -1, 1, 1)], [("x={} first",)], (p, q))
    x_text = sweep.report("t", {}).worst_case[0].split("x=")[1].split()[0]
    with mp.workprec(BRUTE_PREC):
        x = mpf(p) / q
    assert x_text.startswith("0.99999999999999") and _parses_back(x_text, x)
    assert x._mpf_[3] > fixed_bits(50)


def test_maclaurin_thresholds_match_per_j_scan():
    j_max = 4
    report = check_maclaurin_interleaving(j_max, 16, 50)
    info = report.metadata["five_way_chain_valid_for"]
    with working(50):
        scan = [mpf(3) * i / 600 for i in range(1, 601)]
        for j in range(1, j_max + 1):
            cut = None
            for x in reversed(scan):
                if _maclaurin_from_scratch(2 * j + 1, x) <= _maclaurin_from_scratch(2 * j - 1, x):
                    cut = x
                    break
            found = cut is not None and cut < scan[-1]
            assert info[f"j={j}"]["empirical_x_above"] == (float(cut) if found else None)
    assert info["j=1"]["empirical_x_above"] is not None


def test_worst_keeps_the_first_of_equal_margins():
    worst = verify._Worst()
    worst.update(mpf(2), "j={} a", 1)
    worst.update(mpf(1), "j={} x={} b", 2, mpf(1) / 3)
    worst.update(mpf(1), "j={} c", 3)
    assert worst.where == "j=2 x=0.3333333333 b"
    report = worst.report("demo", {})
    assert report.worst_case == ("j=2 x=0.3333333333 b", 1.0)
    # visited in descending x, the last of equal margins is the first in
    # ascending x; merged after, the points above lose ties
    above = verify._Worst(descending=True)
    for x in ((7, 8), (3, 4), (5, 8)):
        above.update(1.0, "x={} d", x)
    assert above.where == "x=0.625 d"
    worst.merge(above)
    assert worst.where == "j=2 x=0.3333333333 b"
    above.update(0.25, "x={} e", (9, 16))
    worst.merge(above)
    assert (worst.where, worst.margin) == ("x=0.5625 e", 0.25)


def test_example_polynomial_builds_each_y_coefficient_once(monkeypatch):
    calls = []
    original = verify.c_enclosure

    def counted(j, bits):
        calls.append(j)
        return original(j, bits)

    monkeypatch.setattr(verify, "c_enclosure", counted)
    verify._fixed_coefficients.cache_clear()
    _, c_intervals = example_inequality_polynomial(50)
    assert calls == [1, 2, 3, 4]
    assert len(c_intervals) == 4


@pytest.mark.parametrize("doublings", range(verify._MAX_DOUBLINGS + 1))
def test_grid_coefficients_stay_within_four_units_at_every_escalation(doublings):
    bits = fixed_bits(50) << doublings
    for j, (lo, hi) in enumerate(verify._fixed_coefficients(12, bits), start=1):
        enc = c_enclosure(j, bits)
        assert Fraction(lo, 1 << bits) <= Fraction(*exact_ratio(enc.lo)), j
        assert Fraction(*exact_ratio(enc.hi)) <= Fraction(hi, 1 << bits), j
        assert hi - lo <= 4, j


def test_nudged_coefficient_fails_bracketing(monkeypatch):
    # c_3 raised by 1e-30: P_m then exceeds the target wherever the tail
    # c_{m+1} y^{m+1} drops below 1e-30 y^3, which the endpoint cluster reaches
    original = verify._fixed_coefficients

    def nudged(n, bits):
        coeffs = list(original(n, bits))
        bump = (1 << bits) // 10 ** 30 + 1
        coeffs[2] = (coeffs[2][0] + bump, coeffs[2][1] + bump)
        return tuple(coeffs)

    monkeypatch.setattr(verify, "_fixed_coefficients", nudged)
    for func in (SIN_PI_X, COS_PI_X):
        report = check_bracketing(func, 10, 64, 50)
        assert report.status == "fail"
        assert report.worst_case[1] < 0
        assert " delta" in report.worst_case[0]


def test_unsettled_enclosure_is_counted_not_passed(monkeypatch):
    # c_1 known only to within 1e-9: no precision settles P_m < target near
    # the ends, so those points must be counted as unresolved
    original = verify._fixed_coefficients

    def blurred(n, bits):
        coeffs = list(original(n, bits))
        lo, hi = coeffs[0]
        coeffs[0] = (lo - lo // 10 ** 9, hi + hi // 10 ** 9)
        return tuple(coeffs)

    monkeypatch.setattr(verify, "_fixed_coefficients", blurred)
    report = check_bracketing(SIN_PI_X, 3, 16, 50)
    assert report.status == "fail"
    assert report.metadata["unresolved_points"] > 0
    assert report.metadata["max_bits"] == fixed_bits(50) << verify._MAX_DOUBLINGS
    assert report.worst_case[1] <= 0


def test_escalation_cap_counts_unresolved_points(monkeypatch):
    full = check_maclaurin_interleaving(2, 32, 50)
    assert full.passed and full.metadata["escalated_points"] > 0
    monkeypatch.setattr(verify, "_MAX_DOUBLINGS", 0)
    capped = check_maclaurin_interleaving(2, 32, 50)
    assert capped.status == "fail"
    assert capped.metadata["unresolved_points"] == full.metadata["escalated_points"]
    assert capped.metadata["max_bits"] == capped.metadata["base_bits"] == fixed_bits(50)


def test_every_report_records_digits_and_grid_reports_their_evidence():
    reports = [
        check_coefficient_bounds(5, 40),
        check_bracketing(SIN_PI_X, 2, 16, 40),
        check_bracketing(COS_PI_X, 2, 16, 40),
        check_bessel_identity(3, 40),
        check_maclaurin_interleaving(1, 16, 40),
        check_taylor_exactness(2, 40),
    ]
    assert all(r.metadata["digits"] == 40 for r in reports)
    # every report names what it rests on; none rests on a tolerance
    assert all(r.metadata["evidence"] and "tolerance" not in r.metadata for r in reports)
    for r in reports[1:3] + reports[4:5]:
        meta = r.metadata
        assert meta["evidence"].startswith("outward-rounded fixed-point enclosure")
        assert "symmetric about 1/2" in meta["grid"] and "sine grid - 1/2" in meta["grid"]
        assert meta["base_bits"] == fixed_bits(40) <= meta["max_bits"]
        assert meta["unresolved_points"] == 0
        assert meta["escalated_points"] > 0
        assert r.passed and r.worst_case[1] > 0
    # bracketing_cos reads the sine rows shifted by 1/2, and says so
    assert reports[1].metadata["evidence"] == reports[4].metadata["evidence"]
    assert "cos(pi x) = sin(pi u)" in reports[2].metadata["evidence"]


def test_example_curve_values_are_correctly_rounded():
    # an odd grid too, so that x = i/(2 grid) is not dyadic and sin(2 pi x)
    # reads the fold j = min(2i, 2 grid - 2i) from both halves of the curve
    for grid in (64, 37):
        rows = example_curve(grid, 50)
        assert all(example_curve(grid, digits) == rows for digits in (30, 100))
        with mp.workprec(3 * fixed_bits(50)):
            pi2 = mp.pi ** 2
            cs = _brute_y_coefficients(4)

            def q(u):
                y = u * (1 - u)
                return sum(cj * y ** (j + 1) for j, cj in enumerate(cs))

            for i, (x, f, gap) in enumerate(rows):
                u = mpf(i) / (2 * grid)
                base = mpf(4) / 9 + 15 * u ** 2 - 8 * u
                s1, s2 = mp.sinpi(u), mp.sinpi(2 * u)
                f_ref = base + 4 * (2 * s1 ** 2 + s2 ** 2) / pi2
                gap_ref = 4 * (2 * (s1 ** 2 - q(u) ** 2) + (s2 ** 2 - q(2 * u) ** 2)) / pi2
                assert (x, f, gap) == (i / (2 * grid), float(f_ref), float(gap_ref)), (grid, i)
        assert rows[0] == (0.0, 4 / 9, 0.0)
        assert all(gap >= 0 for _, _, gap in rows)


@pytest.mark.parametrize("q", [74, 128, 4096])
def test_curve_table_sines_enclose_sinpi(q):
    # sin(pi j/q) from the two angle tables, q = 2 grid: --grid 37 gives 74
    for bits in (20, 106):
        sine = verify._table_sine(q, bits)
        with mp.workprec(bits + 64):
            for j in range(q // 2 + 1):
                lo, hi = sine(j)
                ref = mp.sinpi(mpf(j) / q) * 2 ** bits
                assert lo <= ref <= hi, (q, bits, j)
                assert hi - lo <= 64, (q, bits, j)  # tight: a few dozen units at most


@pytest.mark.parametrize("grid", [37, 64])
def test_curve_quadratic_part_is_exact_inside_horner(grid):
    # f = base + trig and f - f4 = trig - quad, so the quadratic part's
    # enclosure is (f - base) - (f - f4), end by end; integer Horner in i
    # rounds it once, inside fixed_horner's enclosure at x = i/q
    q, bits = 2 * grid, 106
    row, quad = verify._curve_level(grid, bits), verify._quadratic_part(bits)
    for i in range(grid + 1):
        (f_lo, f_hi), (gap_lo, gap_hi) = row(i)
        base_lo, base_hi = fixed_ratio(4 * q * q - 72 * i * q + 135 * i * i, 9 * q * q, bits)
        exact = f_hi - gap_hi - base_hi, f_lo - gap_lo - base_lo
        horner = fixed_horner(quad, fixed_ratio(i, q, bits), bits)
        assert horner[0] <= exact[0] <= exact[1] <= horner[1], (grid, i)
        # the ends are sum lo_k x^k and sum hi_k x^k, floored and ceiled once
        ends = [sum(c[end] * Fraction(i, q) ** k for k, c in enumerate(quad)) for end in (0, 1)]
        assert exact == (math.floor(ends[0]), math.ceil(ends[1])), (grid, i)


@pytest.mark.parametrize("seed", range(3))
def test_cosine_kernel_path_overlaps_the_shifted_sine_path(seed):
    # the grid checks read cos(pi x) as sin(pi u), u = x + 1/2; the cosine
    # kernel path (fixed_y and fixed_sin_cos_pi with cos=True) must agree
    rng = random.Random(f"cos-kernel/{seed}")
    points = [(-1, 2), (0, 1), (1, 2)]
    for _ in range(40):
        k = rng.randint(1, 80)
        points.append((rng.randint(-(1 << k - 1), 1 << k - 1), 1 << k))
    for p, q in points:
        u = Fraction(2 * p + q, 2 * q)
        bits = fixed_bits(50) << rng.randint(0, verify._MAX_DOUBLINGS)
        scale = Fraction(1, 1 << bits)
        for cos_enc, sin_enc in (
            (fixed_y(p, q, bits, True), fixed_y(u.numerator, u.denominator, bits, False)),
            (fixed_sin_cos_pi(p, q, bits, cos=True),
             fixed_sin_cos_pi(u.numerator, u.denominator, bits)),
        ):
            assert max(cos_enc[0], sin_enc[0]) <= min(cos_enc[1], sin_enc[1]), (p, q, bits)
        y_lo, y_hi = fixed_y(p, q, bits, True)
        assert y_lo * scale <= Fraction(1, 4) - Fraction(p, q) ** 2 <= y_hi * scale
        c_lo, c_hi = fixed_sin_cos_pi(p, q, bits, cos=True)
        with mp.workprec(bits + 64):
            ref = mp.cospi(mpf(p) / q)
            assert mpf(c_lo) / (1 << bits) <= ref <= mpf(c_hi) / (1 << bits), (p, q, bits)


def test_verify_all_encloses_each_sine_row_once(monkeypatch):
    # one series pass (fixed_sin_maclaurin) per lower grid point and bits,
    # and at x = 1; its sine serves the mirror 1 - x, which sums its own
    # Maclaurin terms (fixed_maclaurin) and nothing else does; one
    # fixed_partial_sums per distinct y and bits; no cosine kernel call
    calls = {"pass": [], "maclaurin": [], "sine": [], "sums": [], "y": []}

    def counted(name, fn, key):
        def wrapper(*args):
            calls[name].append(key(*args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verify, "fixed_sin_maclaurin", counted(
        "pass", verify.fixed_sin_maclaurin, lambda p, q, n, bits: (Fraction(p, q), bits)))
    monkeypatch.setattr(verify, "fixed_maclaurin", counted(
        "maclaurin", verify.fixed_maclaurin, lambda p, q, n, bits: (Fraction(p, q), bits)))
    monkeypatch.setattr(verify, "fixed_sin_cos_pi", counted(
        "sine", verify.fixed_sin_cos_pi, lambda *args: args))
    monkeypatch.setattr(verify, "fixed_partial_sums", counted(
        "sums", verify.fixed_partial_sums, lambda coeffs, y, bits: (y, bits)))
    monkeypatch.setattr(verify, "fixed_y", counted(
        "y", verify.fixed_y, lambda p, q, bits, cos: cos))
    reports = cli.run_suite("all", 64, 50)
    assert all(r.passed for r in reports)
    for name in ("pass", "maclaurin", "sums"):
        assert len(set(calls[name])) == len(calls[name]), name
    assert not calls["sine"] and not any(calls["y"])
    with working(50):
        grid = {Fraction(p, q) for p, q in verify._grid(64)}
    lower = {x for x in grid if x <= Fraction(1, 2)}
    # at the base bits: every point of the sine grid's lower half, and x = 1
    base = fixed_bits(50)
    assert {x for x, bits in calls["pass"] if bits == base} == lower | {1}
    assert {x for x, _ in calls["pass"]} <= lower | {1}
    # fixed_maclaurin only at the mirrors: none at a lower point, none off the grid
    assert {x for x, bits in calls["maclaurin"] if bits == base} == grid - lower
    assert {x for x, _ in calls["maclaurin"]} <= grid - lower
    assert sum(bits == base for _, bits in calls["sums"]) == len(lower)


def _fold_reference(rows, sums, scales, sine):
    # each row's difference and scale formed on its own, then the margin rule
    vals = sums + [sine]
    settled, at, least = True, 0, math.inf
    for i, (a, b, s) in enumerate(rows):
        d_lo, d_hi = vals[a][0] - vals[b][1], vals[a][1] - vals[b][0]
        settled = settled and (d_lo > 0 or d_hi < 0)
        den = scales[s][1] if d_lo > 0 else scales[s][0]
        try:
            rel = float(Fraction(d_lo, den)) if den > 0 else -math.inf
        except OverflowError:
            rel = math.inf if d_lo > 0 else -math.inf
        if rel < least:
            at, least = i, rel
    return settled, (at, least)


@pytest.mark.parametrize("seed", range(4))
def test_fold_matches_the_row_by_row_margin(seed):
    # small ends so that signs touch 0 and margins tie; huge ones past the doubles
    rng = random.Random(f"fold/{seed}")
    ends = [-3, -1, 0, 1, 2, 4, 10 ** 400, -10 ** 400]

    def enc():
        lo = rng.choice(ends)
        return lo, lo + rng.choice([0, 0, 1, 3])

    for _ in range(300):
        sums, scales, sine = [enc() for _ in range(5)], [enc() for _ in range(5)], enc()
        rows = [(rng.randrange(-1, 5), rng.randrange(-1, 5), rng.randrange(5))
                for _ in range(rng.randint(1, 8))]
        assert verify._fold(rows, (sums, scales, sine)) == _fold_reference(rows, sums, scales, sine)


def test_grid_reports_keep_the_first_of_equal_margins(monkeypatch):
    # every point's margin equal: each report names the lowest x of its grid
    monkeypatch.setattr(verify, "_fold", lambda rows, enclosures: (True, (0, 1.0)))
    reports = verify.check_grid(16, 50, (SIN_PI_X, COS_PI_X), 3, 1)
    with working(50):
        p, q = verify._grid(16)[0]
    assert [r.worst_case[0] for r in reports] == [
        f"m=1 x={verify._dyadic_text(p, q)} delta",
        f"m=1 x={verify._dyadic_text(2 * p - q, 2 * q)} delta",
        f"j=1 x={verify._dyadic_text(p, q)} even-step",
    ]


def test_sweep_reports_the_lower_end_and_counts_open_points():
    labels = [("x={} first",), ("x={} second",)]
    with working(50):
        sweep = verify._Sweep(50)
        # settled at the base bits: [1, 3] / [1, 2] has lower end 1/2
        sweep.margins(lambda p, q, bits: [(5, 6, 1, 1), (1, 3, 1, 2)], labels, (1, 4))
        assert (sweep.escalated, sweep.unresolved) == (0, 0)
        assert sweep.worst.margin == math.nextafter(0.5, 0) and sweep.report("t", {}).passed
        # open at every precision: counted, and the report fails
        sweep.margins(lambda p, q, bits: [(-1, 1, 1, 1), (1, 1, 1, 1)], labels, (1, 8))
        assert (sweep.escalated, sweep.unresolved) == (1, 1)
        assert sweep.top == sweep.cap == fixed_bits(50) << verify._MAX_DOUBLINGS
        report = sweep.report("t", {})
        assert report.status == "fail" and report.metadata["unresolved_points"] == 1
        assert report.worst_case == ("x=0.125 first", math.nextafter(-1.0, -math.inf))
    # settled negative: no escalation; [-3, -1] / [2, 4] has lower end -3/2
    assert verify._least_margin([(-3, -1, 2, 4)]) == (True, (0, -1.5))
    assert verify._least_margin([(-3, 1, 0, 4)]) == (False, (0, -math.inf))
    assert verify._least_margin([(3, 5, 2, 4)]) == (True, (0, 0.75))
    # the first of equal margins wins; a quotient past the doubles is +-inf
    rows = [(3, 5, 2, 4), (-3, -1, 2, 4), (-6, -1, 4, 8), (10 ** 400, 10 ** 401, 1, 1)]
    assert verify._least_margin(rows) == (True, (1, -1.5))
    assert verify._least_margin(rows[3:]) == (True, (0, math.inf))
    assert verify._least_margin([(-10 ** 401, -10 ** 400, 1, 1)]) == (True, (0, -math.inf))
