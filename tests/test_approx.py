import copy
import dataclasses
import math
import pickle
import random
import struct
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import mpf_le, mpf_mul, mpf_shift, round_ceiling

import trigpoly.approx as approx
from trigpoly.approx import (
    COS_PI_X,
    DOMAINS,
    ApproxPolynomial,
    SIN_PI_X,
    DomainError,
    ErrorCertificate,
    bound_sup,
    build_poly,
    error_bound,
    maclaurin_eval,
    maclaurin_eval_hp,
    select_degree,
    sine_monomials,
)
from trigpoly.coeffs import c_enclosure, coeff_symbolic, poly_sum
from trigpoly.intervals import exact_ratio, fixed_bits, interval_dps, nearest_double, y_ratio
from trigpoly.precision import DEFAULT_INDEX_LIMIT, IndexLimitError, working


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


@pytest.mark.parametrize("digits", [30, 50, 100, 200])
def test_coefficients_are_their_enclosures_rounded(digits):
    # each double is the one both ends of c_j's enclosure round to, and each
    # extended value lies within 10^-(digits+18) relative of that enclosure
    bits = fixed_bits(digits)
    tol = Fraction(1, 10 ** (digits + 18))
    for func in (COS_PI_X, SIN_PI_X):
        poly = build_poly(func, DEFAULT_INDEX_LIMIT, digits)
        for j, (y, hp) in enumerate(zip(poly.y_coeffs, poly.hp_coeffs), start=1):
            enc = c_enclosure(j, bits)
            assert nearest_double(exact_ratio(enc.lo), exact_ratio(enc.hi)) == y, (func, j)
            lo, hi, v = (Fraction(*exact_ratio(e)) for e in (enc.lo, enc.hi, hp))
            assert lo * (1 - tol) <= v <= hi * (1 + tol), (func, j)


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


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, "inf"])
def test_maclaurin_hp_refuses_a_non_finite_x(x):
    # the series of an infinite argument would never end
    with pytest.raises(ValueError, match="finite"):
        maclaurin_eval_hp(3, x, 50)


# --- monomial expansion -------------------------------------------------------

def test_taylor_q1_is_pi_x_minus_pi_x_squared():
    # Q_1/pi = x - x^2: each coefficient a polynomial in u = pi^2
    assert sine_monomials(1) == [(), (1,), (-1,)]


def test_taylor_q2_matches_sine_to_order_two():
    coeffs = sine_monomials(2)
    assert coeffs[1] == (1,)
    assert coeffs[2] == ()


def test_taylor_q3_third_order_coefficient():
    # the x^3 coefficient of Q_3/pi is -u/6, that of sin(pi x)/pi
    coeffs = sine_monomials(3)
    assert coeffs[3] == (0, Fraction(-1, 6))


def test_taylor_constant_term_zero_for_all_m():
    for m in range(1, 7):
        coeffs = sine_monomials(m)
        assert len(coeffs) == 2 * m + 1
        assert coeffs[0] == ()


def test_sine_monomials_refuse_m_below_one():
    with pytest.raises(ValueError):
        sine_monomials(0)


def test_sine_monomials_match_sine_maclaurin_through_order_m():
    # sin(pi x)/pi = sum_h (-1)^h u^h x^(2h+1)/(2h+1)!, u = pi^2
    coeffs = sine_monomials(7)
    for n in range(8):
        h = n // 2
        want = (0,) * h + (Fraction((-1) ** h, math.factorial(n)),) if n % 2 else ()
        assert coeffs[n] == want, n
    # at order m + 1 = 8 sin's coefficient is 0 and Q_7's is -c_8/pi = -N_8(u)/D_8
    form = coeff_symbolic(8)[7]
    assert coeffs[8] == tuple(Fraction(-c, form.denominator) for c in form.numerator)


def _sine_monomials_by_fractions(m):
    # the Fraction loop: each order's polynomial summed term by term in Fraction
    out = [()] * (2 * m + 1)
    for j, form in enumerate(coeff_symbolic(m), start=1):
        for i in range(j + 1):
            scale = Fraction((-1) ** i * math.comb(j, i), form.denominator)
            out[j + i] = poly_sum(out[j + i], [scale * c for c in form.numerator])
    return out


def test_sine_monomials_equal_the_fraction_loop():
    # summed in ints over lcm(D_1..D_m), the same tuples of Fractions, trailing zeros dropped
    for m in range(1, 15):
        got = sine_monomials(m)
        assert got == _sine_monomials_by_fractions(m), m
        assert all(type(p) is tuple and all(type(c) is Fraction for c in p) for p in got), m
        assert all(not p or p[-1] for p in got), m


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


def test_error_bound_refuses_an_index_past_the_limit():
    with pytest.raises(IndexLimitError):
        error_bound(SIN_PI_X, DEFAULT_INDEX_LIMIT + 1, 0.3)
    with pytest.raises(IndexLimitError):
        bound_sup(DEFAULT_INDEX_LIMIT + 1, 50)
    assert 0 < error_bound(SIN_PI_X, DEFAULT_INDEX_LIMIT, 0.3).bound < 1e-300


def _reference_certificate(func, m, x, digits):
    """The fields error_bound gave before its integer path: libmp's `mpf_mul` of the raw
    upper end of K_m by the raw mpf y^(m+1), and the leading term refined in a loop."""
    p, q = x.as_integer_ratio() if isinstance(x, (int, float)) else exact_ratio(x)
    num, den = y_ratio(p, q, func == COS_PI_X)
    tz = (num & -num).bit_length() - 1
    man = (num >> tz) ** (m + 1)
    y_exp = (tz - den.bit_length() + 1) * (m + 1)
    c = approx._tail_constants(m, digits)
    bound = mpf_mul(c.k[1], (0, man, y_exp, man.bit_length()), c.prec, round_ceiling)
    lead_digits = digits
    while True:
        ends = [(lo_man * man, 1 << -(exp + y_exp))
                for _, lo_man, exp, _ in approx._tail_constants(m, lead_digits).lead]
        lead = nearest_double(*ends)
        if lead is not None:
            break
        lead_digits *= 2
    return lead, c.q_m, c.tail_factor, _least_double_at_least(Fraction(*exact_ratio(bound))), bound


def test_error_bound_is_bit_identical_to_the_mpf_product():
    for func in (COS_PI_X, SIN_PI_X):
        for m in _SOUNDNESS_M:
            xs = _soundness_points(func, m)
            for digits in (30, 50, 100):
                for x in xs + [mpf(xs[3]), mpf(xs[-1])]:
                    got = _certificate_bits(error_bound(func, m, x, digits))
                    assert got == _reference_certificate(func, m, x, digits), (func, m, x, digits)


def test_error_bound_refines_a_straddling_leading_term(monkeypatch):
    # the lower end of L_m halved at 50 digits: its two ends round to different doubles,
    # so the leading term is read from the enclosure at 100 digits
    cases = [(func, m, x) for func, x in ((COS_PI_X, 0.3), (SIN_PI_X, 0.61), (SIN_PI_X, 1e-5))
             for m in (1, 7, 14)]
    plain = [error_bound(*case, 50) for case in cases]
    real, calls = approx._tail_constants, []

    def widened(m, digits):
        calls.append(digits)
        c = real(m, digits)
        if digits != 50:
            return c
        return dataclasses.replace(c, lead=(mpf_shift(c.lead[0], -1), c.lead[1]))

    monkeypatch.setattr(approx, "_tail_constants", widened)
    for case, cert in zip(cases, plain):
        calls.clear()
        got = _certificate_bits(error_bound(*case, 50))
        assert calls == [50, 100], case
        assert got == _reference_certificate(*case, 50) == _certificate_bits(cert), case


def test_certificate_behaves_as_one_built_by_its_init():
    cert = error_bound(COS_PI_X, 7, 0.3)
    init = ErrorCertificate(**{f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)})
    assert type(cert) is ErrorCertificate and cert.__dict__ == init.__dict__
    assert cert == init and hash(cert) == hash(init) and repr(cert) == repr(init)
    assert pickle.dumps(cert) == pickle.dumps(init)
    for other in (pickle.loads(pickle.dumps(cert)), copy.copy(cert), copy.deepcopy(cert)):
        assert other == init and _certificate_bits(other) == _certificate_bits(init)
    moved = dataclasses.replace(cert, bound=1.0)
    assert moved == dataclasses.replace(init, bound=1.0) and moved.bound_hp is cert.bound_hp
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.bound = 1.0


# --- float eval keeps its operations ------------------------------------------

def _eval_reference(poly, x):
    y = 0.25 - x * x if poly.func == COS_PI_X else x * (1.0 - x)
    acc = 0.0
    for c in reversed(poly.y_coeffs):
        acc = acc * y + c
    return acc * y


def _bits(v) -> bytes:
    return struct.pack("<d", v)


def test_float_eval_is_bit_identical_to_the_reversed_loop():
    # every m up to the index cap: at m = 200 one nested expression would reach
    # the parser's cap of 200 nested parentheses, so the kernel cuts it into
    # chunks; the bit patterns also tell apart the signs of zero
    special = [-0.5, 0.5, 0.0, -0.0, 1.0, 0.25, -0.3, 0.7, 1e-300, 5e-324,
               math.nextafter(-0.5, 0), math.nextafter(0.5, 0), math.nextafter(0.0, 1),
               math.nextafter(1.0, 0), 1.25, -3.0, 2.0, 7.5, 1e10, -1e200, 1e300,
               math.inf, -math.inf, math.nan]
    for func in (COS_PI_X, SIN_PI_X):
        lo, hi = DOMAINS[func]
        top = build_poly(func, DEFAULT_INDEX_LIMIT, 50)
        for m in range(1, DEFAULT_INDEX_LIMIT + 1):
            poly = ApproxPolynomial(func, m, top.y_coeffs[:m], top.hp_coeffs[:m], 50)
            if m <= 14 or m % 50 == 0:
                assert poly == build_poly(func, m, 50)
            rng = random.Random(f"{func}/{m}")
            for x in [rng.uniform(lo, hi) for _ in range(500)] + special:
                want = _bits(_eval_reference(poly, x))
                assert _bits(poly.eval(x)) == want, (func, m, x)
            for x in special:
                want = _bits(poly.eval(x))
                assert _bits(poly(x)) == want and _bits(ApproxPolynomial.eval(poly, x)) == want


def test_kernel_refuses_non_finite_coefficients():
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ApproxPolynomial(SIN_PI_X, 2, (1.0, c), (mpf(1), mpf(1)), 50)


def test_approximant_pickles_and_copies_with_its_own_kernel():
    poly = build_poly(COS_PI_X, 14, 50)
    xs = [-0.5, -0.3, 0.0, 0.1, 0.49, 2.0]
    for other in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly), copy.copy(poly)):
        assert other == poly and hash(other) == hash(poly)
        assert [other.eval(x) for x in xs] == [poly.eval(x) for x in xs]
    halved = dataclasses.replace(poly, y_coeffs=tuple(c / 2 for c in poly.y_coeffs))
    assert halved._kernel is not poly._kernel
    assert [halved(x) for x in xs] == [_eval_reference(halved, x) for x in xs]
    assert [halved(x) for x in xs] == [poly(x) / 2 for x in xs]


def test_mpf_horner_keeps_the_loop_order():
    poly = build_poly(SIN_PI_X, 6, 50)
    with working(50):
        for x in (mpf("0.1"), mpf("0.37"), mpf(1) / 3):
            y = x * (1 - x)
            acc = mpf(0)
            for c in reversed(poly.hp_coeffs):
                acc = acc * y + c
            assert poly.eval_hp(x)._mpf_ == (acc * y)._mpf_
    # the symbolic value is its enclosure's midpoint rounded to the working precision
    for s in coeff_symbolic(6):
        enc = s.evaluate_interval(50)
        with working(50):
            ref = +enc.mid
        assert s.evaluate(50).value._mpf_ == ref._mpf_


# --- K_m enclosures against mpmath's interval context -------------------------------

@lru_cache(maxsize=None)
def _iv_tail_constants(m, digits):
    """The earlier `_tail_constants`, on mpmath's interval context, as the reference."""
    from mpmath import iv

    with interval_dps(digits):
        pi2 = (+iv.pi) ** 2
        q = pi2 / (4 * (2 * m + 4) * (2 * m + 3))
        lead = pi2 ** (m + 1) / math.factorial(2 * m + 2)
        k = lead / (1 - q)
        tail = 1 / (1 - q)
    lead, k, q, tail = (v._mpi_ for v in (lead, k, q, tail))
    floats = nearest_double(*map(exact_ratio, q)), nearest_double(*map(exact_ratio, tail))
    if None in floats:
        finer = _iv_tail_constants(m, 2 * digits)
        floats = finer.q_m, finer.tail_factor
    return approx._TailConstants(fixed_bits(digits), lead, k, *floats)


@pytest.mark.parametrize("digits", [30, 50])
def test_tail_constants_equal_the_interval_context_for_small_m(digits):
    for m in range(1, 25):
        got, ref = approx._tail_constants(m, digits), _iv_tail_constants(m, digits)
        assert (got.lead, got.k) == (ref.lead, ref.k), m
        assert (got.q_m, got.tail_factor) == (ref.q_m, ref.tail_factor), m


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_tail_constants_are_never_looser_than_the_interval_context(digits):
    # the interval context rounds (2m+2)! once more before dividing by it
    for m in range(1, 201):
        got, ref = approx._tail_constants(m, digits), _iv_tail_constants(m, digits)
        for (lo, hi), (ref_lo, ref_hi) in ((got.lead, ref.lead), (got.k, ref.k)):
            assert mpf_le(ref_lo, lo) and mpf_le(lo, hi) and mpf_le(hi, ref_hi), m


def test_error_bound_equals_the_interval_context_on_a_grid(monkeypatch):
    cases = [(func, m, x) for func in (COS_PI_X, SIN_PI_X) for m in range(1, 15)
             for x in [DOMAINS[func][0] + (i + 0.5) / 40 * (DOMAINS[func][1] - DOMAINS[func][0])
                       for i in range(40)]]
    got = [_certificate_bits(error_bound(*case)) for case in cases]
    monkeypatch.setattr(approx, "_tail_constants", _iv_tail_constants)
    assert got == [_certificate_bits(error_bound(*case)) for case in cases]
