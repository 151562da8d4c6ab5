import dataclasses
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

import trigpoly.approx as approx
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
    interval_from_fixed,
    poly_eval_centered,
    y_ratio,
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
    # the lemma for every j: pi_hi^2 < 24 * 4^bits, its margin 1 - pi_hi^2/(24 * 4^bits)
    # rounded down, just below 1 - pi^2/24
    bits, lemma = fixed_bits(50), report.metadata["lemma"]
    exact = 1 - Fraction(verify.fixed_pi(bits)[1] ** 2, 24 << 2 * bits)
    assert lemma["holds"] is True and lemma["bits"] == bits
    assert _rounded_down(lemma["margin"], exact)
    assert lemma["margin"] == pytest.approx(1 - math.pi ** 2 / 24, rel=1e-15)


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
    assert report.metadata["scope"] == "all x in the domain, every m"
    assert report.worst_case == ("m>=1 every x chain", 1.0)


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
    # relative to the 10^-50 each certificate must stay below, which the
    # Bessel route's certificates beat by about 21 digits
    assert where.endswith(" route") and margin > 1e20


def _bessel_margin(j_max, digits):
    # (t_j/(10^digits trunc_bound) - 1, j) from the table's certificates, in Fraction
    return min(
        (Fraction(*exact_ratio(e.value.value))
         / (10 ** digits * Fraction(*exact_ratio(e.trunc_bound.value))) - 1, e.j)
        for e in coefficient_table(j_max, digits, route="bessel")
    )


def _rounded_down(margin, exact):
    return Fraction(margin) <= exact < Fraction(math.nextafter(margin, math.inf))


def test_bessel_identity_route_margin_is_exact_and_rounded_down():
    report = check_bessel_identity(8, 40)
    exact, j = _bessel_margin(8, 40)
    assert report.worst_case[0] == f"j={j} route"
    assert _rounded_down(report.worst_case[1], exact)


def test_bessel_identity_margin_tells_the_tables_apart():
    # the margin keeps how far each table's certificates beat their
    # tolerance: 30 and 50 digits read different margins, not one constant
    margins = []
    for digits in (30, 50):
        report = check_bessel_identity(50, digits)
        exact, j = _bessel_margin(50, digits)
        assert report.worst_case[0] == f"j={j} route" and report.passed
        assert _rounded_down(report.worst_case[1], exact), digits
        margins.append(report.worst_case[1])
    assert margins[0] != margins[1] and min(margins) > 1e20


def test_bessel_identity_passes_past_the_double_range():
    # 10^-330 is below the least double: a margin on the absolute scale
    # would round to 0.0 and fail the report
    report = check_bessel_identity(50, 330)
    assert report.passed, report.worst_case
    assert 1e20 < report.worst_case[1] < 1e22


def test_bessel_identity_margin_is_relative_to_the_tolerance(monkeypatch):
    # certificates of 3/4 and 6/4 times 2^-100 against 10^-30 (2^-100 is
    # about 0.79e-30): margins 2^100/(10^30 (3/4)) - 1 > 0, and the second < 0
    def table(j_max, digits, route):
        return [SimpleNamespace(j=j, value=SimpleNamespace(value=mpf(1)),
                                trunc_bound=SimpleNamespace(value=mpf(3 * j) / 4 * mpf(2) ** -100))
                for j in range(1, j_max + 1)]

    monkeypatch.setattr(verify, "coefficient_table", table)
    for j_max, status in ((1, "pass"), (2, "fail")):
        report = check_bessel_identity(j_max, 30)
        assert report.status == status and report.worst_case[0] == f"j={j_max} route"
        exact = 2 ** 100 / (10 ** 30 * Fraction(3 * j_max, 4)) - 1
        assert _rounded_down(report.worst_case[1], exact)


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
        enc = IntervalValue._of(*firsts[3])
        lo, hi = enc.lo, enc.hi
        with working(50):
            moved = IntervalValue(lo * (1 + mpf(10) ** -45), hi * (1 + mpf(10) ** -45))
        firsts[3] = moved.lo._mpf_, moved.hi._mpf_
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
    assert j1 == {"theoretical_x": pytest.approx(math.sqrt(20) / math.pi, rel=1e-15)}
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
    assert proof.preconditions["lemma"]["holds"] is True
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


@pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan], ids=["-inf", "inf", "nan"])
def test_engine_cannot_be_given_a_non_finite_coefficient(bad):
    # a non-finite end once enclosed as 0, so 1 + (-inf) x was "proved" on
    # [0, 1/2]; the coefficient is now refused when it is formed
    with pytest.raises(ValueError, match="finite"):
        prove_polynomial_positive([IntervalValue(1.0), IntervalValue(bad)], (0.0, 0.5))
    with pytest.raises(ValueError, match="finite"):
        prove_polynomial_positive([IntervalValue(1.0), IntervalValue(-1.0, bad)], (0.0, 0.5))


@pytest.mark.parametrize("grid_size", [0, -3])
def test_grid_checks_and_the_curve_refuse_a_grid_below_one(grid_size):
    with pytest.raises(ValueError, match="grid_size must be >= 1"):
        check_bracketing(COS_PI_X, 3, grid_size, 50)
    with pytest.raises(ValueError, match="grid_size must be >= 1"):
        check_maclaurin_interleaving(2, grid_size, 50)
    with pytest.raises(ValueError, match="grid_size must be >= 1"):
        example_curve(grid_size)


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


# --- whole-domain proofs, brute force and fixed-point enclosures ------------

# high-precision brute force: mpmath at three times the kernel's bits at
# 50 digits, doubled three times, enough for the cancellation at the points
# within 1e-6 * 2^-31 of the domain ends
BRUTE_PREC = 3 * (fixed_bits(50) << verify._MAX_DOUBLINGS)


def _sample_points(n, func=SIN_PI_X, include_one=False):
    # (x, label) at n uniform points i/(n+1) of the sine domain and 32 within 1e-6 of each
    # end; the cosine's are those minus 1/2, and x = 1 may be added, labelled as the
    # Maclaurin report labels it
    near = [Fraction(1e-6) / 2 ** k for k in range(32)]
    us = near + [Fraction(i, n + 1) for i in range(1, n + 1)] + [1 - u for u in near]
    xs = [u - Fraction(1, 2) if func == COS_PI_X else u for u in us]
    points = [(mpf(x.numerator) / x.denominator, str(x)) for x in xs]
    return points + [(mpf(1), "1.0")] if include_one else points


def _brute_y_coefficients(n):
    # c_j = pi N_j(pi^2) / D_j from the exact forms
    pi2 = mp.pi ** 2
    return [mp.pi * sum(k * pi2 ** i for i, k in enumerate(s.numerator)) / s.denominator
            for s in coeff_symbolic(n)]


def test_maclaurin_worst_case_matches_brute_force():
    # the margins at x = 1, the report's one certified number, are the least over the
    # sampled points too, and the report's lower end is tight there
    j_max, grid = 4, 64
    rows = {}
    with mp.workprec(BRUTE_PREC):
        for x, xs in _sample_points(grid, include_one=True):
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
    assert report.passed
    where, margin = report.worst_case
    true_min = min(rows.values())
    # at the true minimum (S_1 - sin(pi) over pi^3/6 at x = 1) the enclosure is tight
    assert where == min(rows, key=rows.get) == "j=1 x=1.0 prev-odd-above"
    assert 0 < margin <= true_min
    assert margin == pytest.approx(float(true_min), rel=1e-12)
    assert true_min == pytest.approx(6 / math.pi ** 2, rel=1e-15)


@pytest.mark.parametrize("func", [SIN_PI_X, COS_PI_X])
def test_bracketing_worst_case_matches_brute_force(func):
    # sampled, the proof's margins read as it states: every chain margin 1, every
    # delta margin above 1; the report's margin is their infimum, 1.0
    m_max, grid = 10, 64
    rows = {}
    with mp.workprec(BRUTE_PREC):
        c = _brute_y_coefficients(m_max + 2)
        for x, xs in _sample_points(grid, func):
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
        # the infimum 1 is approached as y -> 0, at the points nearest the ends
        assert min(deltas) < 1 + mpf(10) ** -6
    report = check_bracketing(func, m_max, grid, 50)
    assert report.passed and report.worst_case == ("m>=1 every x chain", 1.0)


@pytest.mark.parametrize("func", [SIN_PI_X, COS_PI_X])
def test_kernel_obeys_bracketing_and_contains_mpmath(func):
    # at 200 seeded points: the kernel's target (fixed_sin_cos_pi) and the partial sums
    # P_1..P_11 formed from c_enclosure ends obey P_m < P_{m+1} < target with their
    # enclosures apart, and each encloses mpmath's value at three times the digits
    rng = random.Random(f"kernel-bracketing/{func}")
    bits, is_cos = fixed_bits(50), func == COS_PI_X
    coeffs = [fixed_from_interval(c_enclosure(j, bits), bits) for j in range(1, 12)]

    def encloses(enc, value):
        return enc[0] <= value * 2 ** bits <= enc[1]

    with mp.workdps(150):
        c = _brute_y_coefficients(11)
        for _ in range(200):
            q = rng.randint(2, 4096)
            u = Fraction(rng.randint(1, q - 1), q)  # y = u(1 - u) >= 1/4096 - 1/4096^2
            x = u - Fraction(1, 2) if is_cos else u
            p, q = x.numerator, x.denominator
            y_enc = fixed_ratio(*y_ratio(p, q, is_cos), bits)
            sums = [fixed_horner([(0, 0), *coeffs[:m]], y_enc, bits) for m in range(1, 12)]
            target = fixed_sin_cos_pi(p, q, bits, cos=is_cos)
            for m, (lower, upper) in enumerate(zip(sums, sums[1:] + [target]), start=1):
                assert lower[1] < upper[0], (func, x, m)
            xv = mpf(p) / q
            assert encloses(target, mp.cospi(xv) if is_cos else mp.sinpi(xv)), (func, x)
            y, acc = mp.mpf(1) / 4 - xv * xv if is_cos else xv * (1 - xv), 0
            for m, cj in enumerate(c):
                acc += cj * y ** (m + 1)
                assert encloses(sums[m], acc), (func, x, m + 1)


def test_proofs_do_not_depend_on_the_grid():
    for report in (lambda grid: check_bracketing(SIN_PI_X, 10, grid, 50),
                   lambda grid: check_bracketing(COS_PI_X, 10, grid, 50),
                   lambda grid: check_maclaurin_interleaving(4, grid, 50)):
        assert report(1) == report(64) == report(2048)


@pytest.mark.parametrize("past", [False, True], ids=["below", "past"])
def test_lemma_is_checked_exactly_at_pi2_24(monkeypatch, past):
    # fixed_pi's upper end moved next to sqrt(24) 2^bits.  Just below, the lemma holds
    # by a hair and every report passes; just past, pi_hi^2 > 24 * 4^bits, and
    # coeff_bounds, both bracketing proofs, the Maclaurin proof and the prover's
    # precondition fail on it
    original = verify.fixed_pi

    def moved(bits):
        root = math.isqrt(24 << 2 * bits)  # root^2 < 24 * 4^bits: 24 is not a square
        return original(bits)[0], root + past

    monkeypatch.setattr(verify, "fixed_pi", moved)
    reports = [check_coefficient_bounds(5, 50), check_bracketing(SIN_PI_X, 3, 16, 50),
               check_bracketing(COS_PI_X, 3, 16, 50), check_maclaurin_interleaving(2, 16, 50)]
    proof = prove_example_inequality()
    lemma = proof.preconditions["lemma"]
    assert all(r.metadata["lemma"] == lemma for r in reports)
    assert lemma["holds"] is not past and proof.proved is not past
    if past:
        assert lemma["margin"] < 0 and proof.status == "inconclusive"
        assert all(r.status == "fail" and r.worst_case == ("lemma pi^2 < 24", lemma["margin"])
                   for r in reports)
    else:
        assert 0 < lemma["margin"] < 1e-70
        assert all(r.passed for r in reports)
        assert reports[0].worst_case == ("lemma pi^2 < 24", lemma["margin"])


def test_worst_keeps_the_first_of_equal_margins():
    worst = verify._Worst()
    worst.update(mpf(2), "j={} a", 1)
    worst.update(mpf(1), "j={} x={} b", 2, "0.3333333333")
    worst.update(mpf(1), "j={} c", 3)
    assert worst.where == "j=2 x=0.3333333333 b"
    report = worst.report("demo", {})
    assert report.worst_case == ("j=2 x=0.3333333333 b", 1.0)


def test_example_polynomial_builds_each_y_coefficient_once(monkeypatch):
    calls = []
    original = verify._c_ends

    def counted(j, bits):
        calls.append(j)
        return original(j, bits)

    monkeypatch.setattr(verify, "_c_ends", counted)
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
    # c_3's enclosure moved down to a lower end of 0, then of -1 unit: the proofs'
    # hypothesis that every c_j's lower end is positive fails, and names c_3
    original = verify._fixed_coefficients
    for low in (0, -1):
        monkeypatch.setattr(verify, "_fixed_coefficients", lambda n, bits, low=low: tuple(
            (low, hi) if j == 3 else (lo, hi) for j, (lo, hi) in enumerate(original(n, bits), 1)))
        for func in (SIN_PI_X, COS_PI_X):
            report = check_bracketing(func, 10, 64, 50)
            assert report.status == "fail"
            assert report.worst_case == ("j=3 c_j lower end", low * 2.0 ** -fixed_bits(50))


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
    # the three proofs state their scope and cite the lemma, as coeff_bounds records it
    for r in reports[1:3] + reports[4:5]:
        meta = r.metadata
        assert meta["evidence"].startswith("proof") and meta["scope"].startswith("all x in ")
        assert meta["lemma"] == reports[0].metadata["lemma"] and meta["lemma"]["holds"]
        assert meta["base_bits"] == fixed_bits(40)
        assert r.passed and r.worst_case[1] > 0
    assert "y = 1/4 - x^2" in reports[2].metadata["domain"]


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
    # cos(pi x) = sin(pi u) and 1/4 - x^2 = u(1 - u), u = x + 1/2: the cosine
    # kernel path (the y-map and fixed_sin_cos_pi with cos=True) must agree
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
            (fixed_ratio(*y_ratio(p, q, True), bits),
             fixed_ratio(*y_ratio(u.numerator, u.denominator, False), bits)),
            (fixed_sin_cos_pi(p, q, bits, cos=True),
             fixed_sin_cos_pi(u.numerator, u.denominator, bits)),
        ):
            assert max(cos_enc[0], sin_enc[0]) <= min(cos_enc[1], sin_enc[1]), (p, q, bits)
        y_lo, y_hi = fixed_ratio(*y_ratio(p, q, True), bits)
        assert y_lo * scale <= Fraction(1, 4) - Fraction(p, q) ** 2 <= y_hi * scale
        c_lo, c_hi = fixed_sin_cos_pi(p, q, bits, cos=True)
        with mp.workprec(bits + 64):
            ref = mp.cospi(mpf(p) / q)
            assert mpf(c_lo) / (1 << bits) <= ref <= mpf(c_hi) / (1 << bits), (p, q, bits)
