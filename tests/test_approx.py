import math
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import trigpoly.approx as approx
from trigpoly.approx import (
    COS_PI_X,
    SIN_PI_X,
    DomainError,
    bound_sup,
    build_poly,
    error_bound,
    maclaurin_eval,
    maclaurin_eval_hp,
    select_degree,
    sin_taylor_coefficient,
    taylor_coeffs_at_zero,
)
from trigpoly.coeffs import coeff_symbolic
from trigpoly.precision import IndexLimitError, horner, working


# --- coefficient construction ----------------------------------------------

def test_cos_m1_coefficient_is_pi():
    poly = build_poly(COS_PI_X, 1, 50)
    with working(60):
        assert abs(poly.hp_coeffs[0] - mp.pi) < mpf(10) ** -60
    assert poly.y_coeffs[0] == math.pi


def test_sin_m2_second_coefficient_is_pi():
    # t_2 = 1/pi^3, so c_2 = t_2 pi^4 = pi (oracle: exact symbolic form)
    poly = build_poly(SIN_PI_X, 2, 50)
    with working(60):
        assert abs(poly.hp_coeffs[1] - mp.pi) < mpf(10) ** -60


def test_sin_m5_fifth_coefficient_matches_symbolic_oracle():
    poly = build_poly(SIN_PI_X, 5, 50)
    sym = coeff_symbolic(5)[4]
    with working(70):
        expected = sym.evaluate(70).value * mp.pi ** 10
        assert abs(poly.hp_coeffs[4] - expected) < abs(expected) * mpf(10) ** -45
    assert poly.y_coeffs[4] == pytest.approx(0.023046169684720519, rel=1e-14)


def test_coefficients_identical_across_function_tags():
    # the sine form is the shifted cosine form: same y-coefficients
    p = build_poly(COS_PI_X, 6, 50)
    q = build_poly(SIN_PI_X, 6, 50)
    assert p.y_coeffs == q.y_coeffs
    assert p.hp_coeffs == q.hp_coeffs


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_poly("tan_pi_x", 2, 50)
    with pytest.raises(ValueError):
        build_poly(SIN_PI_X, 0, 50)


# --- evaluation -------------------------------------------------------------

def test_q1_at_one_half_is_quarter_pi():
    poly = build_poly(SIN_PI_X, 1, 50)
    assert poly.eval(0.5) == pytest.approx(math.pi / 4, rel=1e-15)
    with working(60):
        assert abs(poly.eval_hp(0.5) - mp.pi / 4) < mpf(10) ** -55


def test_zeros_at_basis_roots_are_exact():
    for m in (1, 2, 5):
        q = build_poly(SIN_PI_X, m, 50)
        p = build_poly(COS_PI_X, m, 50)
        assert q.eval(0.0) == 0.0
        assert q.eval(1.0) == 0.0
        assert p.eval(0.5) == 0.0
        assert p.eval(-0.5) == 0.0
        assert q.eval_hp(0) == 0
        assert p.eval_hp(mpf(1) / 2) == 0


@given(x=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_cos_evaluation_is_even_bitwise(x):
    poly = build_poly(COS_PI_X, 3, 50)
    assert poly.eval(x) == poly.eval(-x)


def test_sin_evaluation_symmetric_about_half_on_dyadics():
    poly = build_poly(SIN_PI_X, 4, 50)
    for k in range(65):
        x = k / 64.0
        assert poly.eval(x) == poly.eval(1.0 - x)


def test_evaluation_outside_certified_domain_is_allowed():
    # the identity holds for all real x; only the certificate refuses
    poly = build_poly(SIN_PI_X, 8, 50)
    with working(60):
        val = poly.eval_hp(mpf("1.25"))
        ref = mp.sin(mp.pi * mpf("1.25"))
        assert abs(val - ref) < mpf("1e-4")
    with pytest.raises(DomainError):
        error_bound(SIN_PI_X, 8, 1.25, 50)


# --- error certificates ------------------------------------------------------

def test_cos_m1_certificate_frozen_values():
    cert = error_bound(COS_PI_X, 1, 0.0, 50)
    assert cert.leading_term == pytest.approx(0.25366950790104803, rel=1e-14)
    assert cert.q_m == pytest.approx(0.08224670334241133, rel=1e-14)
    assert cert.bound == pytest.approx(0.27640272045319764, rel=1e-14)
    # true error at x=0 is 1 - pi/4, safely under the bound
    assert 1 - math.pi / 4 < cert.bound
    assert cert.domain == (-0.5, 0.5)


def test_sin_m4_bound_at_half():
    cert = error_bound(SIN_PI_X, 4, 0.5, 50)
    assert cert.bound == pytest.approx(2.568210335854687e-05, rel=1e-12)
    assert cert.bound <= 2.6e-5


def test_bound_vanishes_toward_domain_edge():
    cert = error_bound(SIN_PI_X, 1, 1e-8, 50)
    assert 0 < cert.bound < 1e-14


def test_bound_rounded_upward():
    for m in (1, 3, 7):
        cert = error_bound(SIN_PI_X, m, 0.37, 50)
        assert mpf(cert.bound) >= cert.bound_hp


def test_certificate_domain_errors():
    with pytest.raises(DomainError):
        error_bound(COS_PI_X, 2, 0.5, 50)
    with pytest.raises(DomainError):
        error_bound(COS_PI_X, 2, 0.7, 50)
    with pytest.raises(DomainError):
        error_bound(SIN_PI_X, 2, 0.0, 50)
    with pytest.raises(DomainError):
        error_bound(SIN_PI_X, 2, -0.1, 50)


def test_tail_factor_decreases_to_one():
    factors = [error_bound(SIN_PI_X, m, 0.5, 50).tail_factor for m in range(1, 21)]
    assert all(a > b for a, b in zip(factors, factors[1:]))
    assert all(f > 1 for f in factors)
    assert factors[-1] == pytest.approx(1.0, abs=2e-3)


# --- degree selection --------------------------------------------------------

def test_select_degree_frozen_examples():
    assert select_degree(SIN_PI_X, 1e-6, 50) == 5
    assert select_degree(SIN_PI_X, 0.3, 50) == 1


def test_select_degree_is_minimal():
    for tol in (1e-3, 1e-6, 1e-10):
        m = select_degree(SIN_PI_X, tol, 50)
        assert bound_sup(m, 50) <= mpf(tol)
        if m > 1:
            assert bound_sup(m - 1, 50) > mpf(tol)


def test_select_degree_same_for_both_functions():
    for tol in (0.3, 1e-2, 1e-6, 1e-12):
        assert select_degree(COS_PI_X, tol, 50) == select_degree(SIN_PI_X, tol, 50)


def test_select_degree_unreachable_tolerance_raises():
    with pytest.raises(IndexLimitError):
        select_degree(SIN_PI_X, "1e-800", 50)


def test_select_degree_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        select_degree(SIN_PI_X, 0, 50)


# --- Maclaurin comparators ---------------------------------------------------

def test_maclaurin_half_point_brackets():
    # S_1(1/2) = pi/2 overshoots sin(pi/2) = 1; S_2 undershoots
    assert maclaurin_eval(1, 0.5) == pytest.approx(math.pi / 2, rel=1e-15)
    assert maclaurin_eval(1, 0.5) > 1
    assert maclaurin_eval(2, 0.5) == pytest.approx(0.9248322292886504, rel=1e-14)
    assert maclaurin_eval(2, 0.5) < 1


def test_maclaurin_odd_function_zero_at_origin():
    for m in range(1, 7):
        assert maclaurin_eval(m, 0.0) == 0.0


def test_maclaurin_rejects_unknown_func():
    with pytest.raises(ValueError):
        maclaurin_eval(2, 0.5, "tan_pi_x")


def test_maclaurin_hp_matches_machine():
    for m in (1, 3, 6):
        for x in (0.25, 0.75):
            assert float(maclaurin_eval_hp(m, x, 50)) == pytest.approx(
                maclaurin_eval(m, x), rel=1e-13
            )


# --- monomial expansion -------------------------------------------------------

def test_taylor_q1_is_pi_x_minus_pi_x_squared():
    coeffs = taylor_coeffs_at_zero(build_poly(SIN_PI_X, 1, 50))
    with working(60):
        assert coeffs[0] == 0
        assert abs(coeffs[1] - mp.pi) < mpf(10) ** -60
        assert abs(coeffs[2] + mp.pi) < mpf(10) ** -60


def test_taylor_q2_matches_sine_to_order_two():
    coeffs = taylor_coeffs_at_zero(build_poly(SIN_PI_X, 2, 50))
    with working(60):
        assert abs(coeffs[1] - mp.pi) < mpf(10) ** -60
        assert abs(coeffs[2]) < mpf(10) ** -60


def test_taylor_q3_third_order_coefficient():
    coeffs = taylor_coeffs_at_zero(build_poly(SIN_PI_X, 3, 50))
    with working(60):
        assert abs(coeffs[3] + mp.pi ** 3 / 6) < mpf(10) ** -55
    assert float(coeffs[3]) == pytest.approx(-5.16771278004997, rel=1e-13)


def test_taylor_constant_term_zero_for_all_m():
    for m in range(1, 7):
        coeffs = taylor_coeffs_at_zero(build_poly(SIN_PI_X, m, 50))
        assert coeffs[0] == 0


def test_taylor_requires_sine_form():
    with pytest.raises(ValueError):
        taylor_coeffs_at_zero(build_poly(COS_PI_X, 2, 50))


def test_sin_taylor_coefficient_helper():
    with working(60):
        assert sin_taylor_coefficient(0) == 0
        assert abs(sin_taylor_coefficient(1, 50) - mp.pi) < mpf(10) ** -55
        assert sin_taylor_coefficient(2, 50) == 0
        assert abs(sin_taylor_coefficient(3, 50) + mp.pi ** 3 / 6) < mpf(10) ** -55


# --- analytic behavior ---------------------------------------------------------

def test_partial_sums_bracket_reference_small_scale():
    polys = [build_poly(SIN_PI_X, m, 50) for m in (1, 2, 3)]
    with working(50):
        for xf in (0.1, 0.3, 0.5, 0.8):
            x = mpf(str(xf))
            ref = mp.sin(mp.pi * x)
            vals = [p.eval_hp(x) for p in polys]
            assert vals[0] < vals[1] < vals[2] < ref


def test_bound_validity_small_scale():
    with working(50):
        for m in (1, 2, 3):
            poly = build_poly(SIN_PI_X, m, 50)
            for xf in (0.2, 0.5, 0.9):
                cert = error_bound(SIN_PI_X, m, xf, 50)
                err = mp.sin(mp.pi * mpf(str(xf))) - poly.eval_hp(mpf(str(xf)))
                assert 0 < err < cert.bound_hp


def test_sine_form_is_shifted_cosine_form():
    # Q_m(x) = P_m(x - 1/2) in extended precision
    q = build_poly(SIN_PI_X, 4, 50)
    p = build_poly(COS_PI_X, 4, 50)
    with working(50):
        for xf in ("0.1", "0.25", "0.6", "0.95"):
            x = mpf(xf)
            assert abs(q.eval_hp(x) - p.eval_hp(x - mpf(1) / 2)) < mpf(10) ** -60


# --- cached bound constants ---------------------------------------------------

def _certificate_bits(cert):
    return (cert.leading_term, cert.q_m, cert.tail_factor, cert.bound, cert.bound_hp._mpf_)


def test_error_bound_cache_is_per_precision():
    cases = [(func, m, x, digits)
             for func, x in ((COS_PI_X, 0.3125), (SIN_PI_X, 0.7))
             for m in (1, 4, 9)
             for digits in (50, 80)]
    fresh = {}
    for case in cases:
        approx._tail_constants.cache_clear()
        fresh[case] = _certificate_bits(error_bound(*case))
    approx._tail_constants.cache_clear()
    for _ in range(2):  # interleave the precisions on a warm cache
        for case in cases:
            assert _certificate_bits(error_bound(*case)) == fresh[case]


def _fraction(v) -> Fraction:
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _least_double_at_least(f: Fraction) -> float:
    d = float(f)  # int / int: correctly rounded, subnormals included
    return d if Fraction(d) >= f else math.nextafter(d, math.inf)


def _exact_y(func, x) -> Fraction:
    xf = Fraction(x)
    return Fraction(1, 4) - xf * xf if func == COS_PI_X else xf * (1 - xf)


def _closed_form(m, y: Fraction, dps):
    """(lead, q_m, 1/(1 - q_m), bound) by mpmath at dps digits, as Fractions."""
    with mp.workdps(dps):
        q = (mp.pi ** 2 / 4) / ((2 * m + 4) * (2 * m + 3))
        lead = mp.pi ** (2 * m + 2) / mp.factorial(2 * m + 2) * (
            mpf(y.numerator) / y.denominator) ** (m + 1)
        return tuple(_fraction(v) for v in (lead, q, 1 / (1 - q), lead / (1 - q)))


def test_error_bound_matches_uncached_formula():
    """The closed form at 3x the digits: bound_hp above it within 10^-digits, floats exact."""
    for func, x in ((COS_PI_X, -0.45), (SIN_PI_X, 0.125)):
        for m in (2, 7):
            for digits in (50, 80):
                cert = error_bound(func, m, x, digits)
                lead, q, tail, bound = _closed_form(m, _exact_y(func, x), 3 * digits)
                hp = _fraction(cert.bound_hp)
                assert bound <= hp <= bound * (1 + Fraction(1, 10 ** digits))
                assert cert.leading_term == float(lead)
                assert cert.q_m == float(q)
                assert cert.tail_factor == float(tail)
                assert cert.bound == _least_double_at_least(bound)


_SOUNDNESS_M = tuple(range(1, 15)) + (40, 100, 200)


def _subnormal_points(m):
    """sin points whose bound lands in the subnormal range (x ~ y for small y), if any."""
    with mp.workdps(60):
        k = mp.pi ** (2 * m + 2) / mp.factorial(2 * m + 2)
        xs = [float((mpf(t) / k) ** (mpf(1) / (m + 1))) for t in ("1e-310", "3e-318", "1e-322")]
    return [x for x in xs if x < 0.25]


def _soundness_points(func, m):
    lo, hi = approx.DOMAINS[func]
    xs = [lo + (hi - lo) * i / 16 for i in range(1, 16)]
    xs += [math.nextafter(lo, hi), math.nextafter(hi, lo), lo + (hi - lo) * 1e-9,
           hi - (hi - lo) * 1e-9, lo + (hi - lo) / 3]
    if func == SIN_PI_X:
        xs += _subnormal_points(m)
    return [x for x in xs if lo < x < hi]


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("func", [COS_PI_X, SIN_PI_X])
def test_error_bound_is_outward_rounded(func, digits):
    """exact <= bound_hp <= exact (1 + 10^-digits); bound the least double >= exact; floats nearest."""
    for m in _SOUNDNESS_M:
        for x in _soundness_points(func, m):
            cert = error_bound(func, m, x, digits)
            lead, q, tail, bound = _closed_form(m, _exact_y(func, x), 3 * digits)
            where = (func, m, x)
            hp = _fraction(cert.bound_hp)
            assert bound <= hp <= bound * (1 + Fraction(1, 10 ** digits)), where
            assert cert.bound == _least_double_at_least(bound), where
            assert cert.leading_term == float(lead), where
            assert (cert.q_m, cert.tail_factor) == (float(q), float(tail)), where


def test_error_bound_reaches_the_subnormal_range():
    bounds = [error_bound(SIN_PI_X, m, x).bound for m in (5, 14, 40) for x in _subnormal_points(m)]
    assert len(bounds) == 9 and all(0 < b < sys.float_info.min for b in bounds)
    assert max(bounds) > 1e-311
    assert error_bound(SIN_PI_X, 200, math.nextafter(0.0, 1.0)).bound == 5e-324


def test_bound_hp_is_the_upper_end_times_y_power_rounded_up():
    """bound_hp = ceil(upper end of K_m * y^(m+1)) at the working precision, exactly."""
    for func, x in ((COS_PI_X, -0.3), (COS_PI_X, 0.0), (SIN_PI_X, 0.61), (SIN_PI_X, 1e-5)):
        for m in (1, 5, 13, 40):
            c = approx._tail_constants(m, 50)
            k_lo, k_hi = (_fraction(mp.make_mpf(v)) for v in c.k)
            product = k_hi * _exact_y(func, x) ** (m + 1)
            hp = error_bound(func, m, x, 50).bound_hp
            assert product <= _fraction(hp) < product * (1 + Fraction(2) ** (1 - c.prec))
            assert hp.man.bit_length() <= c.prec
            assert k_lo < k_hi
    for m in (1, 7, 30):
        k_hi = _fraction(mp.make_mpf(approx._tail_constants(m, 50).k[1]))
        assert _fraction(bound_sup(m, 50)) == k_hi / 4 ** (m + 1)
        assert bound_sup(m, 50) == error_bound(COS_PI_X, m, 0.0, 50).bound_hp


def test_error_bound_rejects_a_non_binary_x():
    with pytest.raises(TypeError):
        error_bound(SIN_PI_X, 3, Fraction(1, 3))
    assert error_bound(SIN_PI_X, 3, mpf(0.375)) == error_bound(SIN_PI_X, 3, 0.375)


# --- float eval keeps its operations ------------------------------------------

def _eval_reference(poly, x):
    y = 0.25 - x * x if poly.func == COS_PI_X else x * (1.0 - x)
    acc = 0.0
    for c in reversed(poly.y_coeffs):
        acc = acc * y + c
    return acc * y


def test_float_eval_is_bit_identical_to_the_reversed_loop():
    pts = [-0.5, 0.5, 0.0, -0.0, 1.0, 0.25, -0.3, 0.7, 1e-300, 5e-324,
           math.nextafter(-0.5, 0), math.nextafter(0.5, 0), math.nextafter(0.0, 1),
           math.nextafter(1.0, 0), 1.25, -3.0, 2.0, 1e10, -1e200, 1e300,
           math.inf, -math.inf, math.nan]
    for func in (COS_PI_X, SIN_PI_X):
        for m in range(1, 15):
            poly = build_poly(func, m, 50)
            for x in pts:
                got, want = poly.eval(x), _eval_reference(poly, x)
                assert struct.pack("<d", got) == struct.pack("<d", want), (func, m, x)
                assert struct.pack("<d", poly(x)) == struct.pack("<d", want)


def test_mpf_horner_keeps_the_loop_order():
    poly = build_poly(SIN_PI_X, 6, 50)
    with working(50):
        for x in (mpf("0.1"), mpf("0.37"), mpf(1) / 3):
            y = x * (1 - x)
            acc = mpf(0)
            for c in reversed(poly.hp_coeffs):
                acc = acc * y + c
            assert horner(poly.hp_coeffs, y)._mpf_ == acc._mpf_
            assert poly.eval_hp(x)._mpf_ == (acc * y)._mpf_
    for s in coeff_symbolic(6):
        with working(50):
            u = mp.pi ** 2
            acc = mpf(0)
            for c in reversed(s.numerator):
                acc = acc * u + c
            ref = +(acc / s.denominator / mp.pi ** s.pi_power)
        assert s.evaluate(50).value._mpf_ == ref._mpf_
