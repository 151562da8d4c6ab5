import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from trigpoly.coeffs import coeff_symbolic, t_enclosure
from trigpoly.intervals import (
    IntervalValue,
    exact_ratio,
    fixed_bits,
    fixed_digits,
    fixed_from_interval,
    fixed_maclaurin,
    fixed_partial_sums,
    fixed_pi,
    fixed_sin_cos_pi,
    fixed_y,
    interval_dps,
    interval_from_fixed,
    pi_interval,
    poly_deriv,
    poly_eval,
    poly_eval_centered,
    poly_mul,
    positive_double,
    y_ratio,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def make_interval(a: float, b: float) -> IntervalValue:
    return IntervalValue(min(a, b), max(a, b))


def test_endpoints_ordering_enforced():
    with pytest.raises(ValueError):
        IntervalValue(2, 1)


def test_basic_properties():
    v = IntervalValue(1, 3)
    assert v.lo == 1 and v.hi == 3
    assert v.mid == 2 and v.width == 2
    assert v.contains(2) and not v.contains(5)


def test_fraction_construction_encloses():
    v = IntervalValue(Fraction(1, 3))
    assert v.lo <= mpf(1) / 3 <= v.hi
    assert v.width < mpf(10) ** -15


def test_pi_interval_width_and_containment():
    enc = pi_interval(50)
    assert enc.width <= mpf(10) ** -50
    with mp.workdps(80):
        assert enc.lo < mp.pi < enc.hi


def sample_point(a: float, b: float, t: float) -> float:
    """A point of [min(a,b), max(a,b)]: min + t*(max-min), clamped to the ends.

    The clamp matters: the float sum can round past an endpoint, e.g.
    -1.0 + 1.0*(-6e-31 - -1.0) rounds to 0.0, outside [-1, -6e-31].
    """
    lo, hi = min(a, b), max(a, b)
    return min(hi, max(lo, lo + t * (hi - lo)))


@given(a=finite, b=finite, c=finite, d=finite, ta=st.floats(0, 1), tb=st.floats(0, 1))
@example(a=0.0, b=0.0, c=-1.0, d=-6.038865258794831e-31, ta=0.0, tb=1.0)
@example(a=0.0, b=0.0, c=-1.0, d=-8.74304699952782e-19, ta=0.0, tb=1.0)
@settings(max_examples=200, deadline=None)
def test_arithmetic_containment(a, b, c, d, ta, tb):
    """Exact results of point operations stay inside interval results."""
    u = make_interval(a, b)
    v = make_interval(c, d)
    pu = sample_point(a, b, ta)
    pv = sample_point(c, d, tb)
    with mp.workdps(40):
        xs, ys = mpf(pu), mpf(pv)
        assert (u + v).contains(xs + ys)
        assert (u - v).contains(xs - ys)
        assert (u * v).contains(xs * ys)
        assert (u ** 2).contains(xs ** 2)
        assert (3 * u).contains(3 * xs)
        if not v.contains(0):
            assert (u / v).contains(xs / ys)


def test_division_by_zero_spanning_interval_yields_whole_line():
    # dividing by an interval containing zero widens to the whole line,
    # which is still a sound (if useless) enclosure
    q = IntervalValue(1) / IntervalValue(-1, 1)
    assert q.lo == mpf("-inf") and q.hi == mpf("+inf")


def test_power_containment_even():
    v = IntervalValue(-2, 3)
    sq = v ** 2
    assert sq.lo <= 0 and sq.hi >= 9


def test_sqrt():
    v = IntervalValue(4, 9).sqrt()
    assert v.contains(2) and v.contains(3)


def test_poly_eval_contains_point_value():
    # p(x) = 1 - 2x + x^2 on [0.5, 1.5]
    coeffs = [IntervalValue(1), IntervalValue(-2), IntervalValue(1)]
    enc = poly_eval(coeffs, IntervalValue(0.5, 1.5))
    assert enc.contains(0.25) and enc.contains(0.0)


def test_centered_form_is_tighter_near_extremum():
    coeffs = [IntervalValue(1), IntervalValue(-2), IntervalValue(1)]
    dcoeffs = poly_deriv(coeffs)
    with interval_dps(50):
        plain = poly_eval(coeffs, IntervalValue(0.9, 1.1))
        best = poly_eval_centered(coeffs, dcoeffs, 0.9, 1.1)
    assert best.width <= plain.width
    assert best.contains(0.01)  # p(0.9) = 0.01


def test_poly_mul_matches_square():
    coeffs = [IntervalValue(1), IntervalValue(1)]  # 1 + x
    sq = poly_mul(coeffs, coeffs)  # 1 + 2x + x^2
    assert [c.mid for c in sq] == [1, 2, 1]


def test_interval_dps_restores_context():
    from mpmath import iv

    old = iv.dps
    with interval_dps(60):
        assert iv.dps == 80
    assert iv.dps == old


# --- fixed-point kernel -----------------------------------------------------------

def _encloses(enc, value, bits) -> bool:
    return enc[0] <= value * 2 ** bits <= enc[1]


CLUSTER = 1e-6 * 2.0 ** -31


@given(x=st.floats(0, 1), scale=st.sampled_from([1, 2, 4]))
@example(x=0.0, scale=1)
@example(x=1.0, scale=1)
@example(x=CLUSTER, scale=1)
@example(x=1 - CLUSTER, scale=1)
@example(x=CLUSTER, scale=4)
@settings(max_examples=60, deadline=None)
def test_fixed_point_enclosures_contain_high_precision_values(x, scale):
    """Each kernel enclosure holds mpmath's value at 3x the working bits."""
    bits = fixed_bits(50) * scale
    p, q = exact_ratio(Fraction(x))
    half = (2 * p - q, 2 * q)  # x - 1/2, in the cosine's domain
    coeffs = [fixed_from_interval(s.y_coefficient_interval(fixed_digits(bits)), bits)
              for s in coeff_symbolic(12)]
    with mp.workprec(3 * bits):
        xv, hv = mpf(p) / q, mpf(half[0]) / half[1]
        assert _encloses(fixed_pi(bits), mp.pi, bits)
        assert _encloses(fixed_sin_cos_pi(p, q, bits), mp.sinpi(xv), bits)
        assert _encloses(fixed_sin_cos_pi(*half, bits, cos=True), mp.cospi(hv), bits)
        pi2 = mp.pi ** 2
        c = [mp.pi * sum(k * pi2 ** i for i, k in enumerate(s.numerator)) / s.denominator
             for s in coeff_symbolic(12)]
        for u, cos in ((xv, False), (hv, True)):
            y = mpf(1) / 4 - u * u if cos else u * (1 - u)
            num, den = (half if cos else (p, q))
            y_enc = fixed_y(num, den, bits, cos)
            assert _encloses(y_enc, y, bits)
            sums, terms = fixed_partial_sums(coeffs, y_enc, bits)
            acc = 0
            for j, cj in enumerate(c):
                term = cj * y ** (j + 1)
                acc += term
                assert _encloses(terms[j], term, bits)
                assert _encloses(sums[j], acc, bits)
        t = mp.pi * xv
        for odd in (True, False):
            sums, mags = fixed_maclaurin(p, q, 10, bits, odd=odd)
            acc = 0
            for k in range(11):
                n = 2 * k + odd
                mag = t ** n / mp.factorial(n)
                assert _encloses(mags[k], mag, bits)
                if k < 10:
                    acc += (-1) ** k * mag
                    assert _encloses(sums[k], acc, bits)


def test_fixed_point_exact_inputs_stay_exact():
    bits = fixed_bits(50)
    assert fixed_sin_cos_pi(0, 1, bits) == (0, 0)
    assert fixed_sin_cos_pi(1, 1, bits) == (0, 0)
    assert fixed_sin_cos_pi(1, 2, bits, cos=True) == (0, 0)
    assert fixed_sin_cos_pi(0, 1, bits, cos=True) == (1 << bits, 1 << bits)
    assert fixed_y(1, 2, bits, False) == (1 << bits - 2, 1 << bits - 2)
    assert exact_ratio(mpf(0.75)) == (3, 4)
    with mp.workprec(300):
        third = mpf(1) / 3
    p, q = exact_ratio(third)  # at the default context precision: no rounding
    assert q.bit_length() > 290
    with mp.workprec(300):
        assert mpf(p) / q == third
    with pytest.raises(ValueError):
        fixed_sin_cos_pi(3, 4, bits, cos=True)
    with pytest.raises(ValueError):
        fixed_partial_sums([(-1, 1)], (0, 1), bits)


def test_interval_from_fixed_rounds_each_end_outward():
    bits = fixed_bits(30)
    for enc, den in (((1, 1), 3), ((-5, 7), 7), ((2, 3), 3628800), ((10 ** 40, 10 ** 40 + 1), 11)):
        got = interval_from_fixed(enc, bits, den)
        lo, hi = Fraction(enc[0], den << bits), Fraction(enc[1], den << bits)
        got_lo, got_hi = Fraction(*exact_ratio(got.lo)), Fraction(*exact_ratio(got.hi))
        assert got_lo <= lo and hi <= got_hi
        # each end moves by less than one unit in its last place
        assert lo - got_lo < abs(lo) / 2 ** (bits - 1) and got_hi - hi < abs(hi) / 2 ** (bits - 1)
    assert interval_from_fixed((3, 4), bits).lo == mpf(3) / 2 ** bits  # exact when den = 1


def _fraction(v) -> Fraction:
    return Fraction(*exact_ratio(v))


def test_mid_is_exact_whatever_the_context_precision():
    cases = [t_enclosure(1, 50), t_enclosure(7, 100), pi_interval(200)]
    with interval_dps(40):
        cases.append(IntervalValue(mpf(1) / 3, 1) * IntervalValue(Fraction(2, 7)))
    cases.append(IntervalValue(mpf(2) ** -1000, 3))
    for enc in cases:
        outside = enc.mid
        with interval_dps(50):
            inside = enc.mid
        assert outside._mpf_ == inside._mpf_
        assert _fraction(outside) == (_fraction(enc.lo) + _fraction(enc.hi)) / 2
    assert t_enclosure(1, 50).mid.man.bit_length() > 200  # not cut to the ambient 25 digits


def _nearest_reference(f: Fraction) -> float:
    return float(f)  # int / int rounds correctly, subnormals included


def test_positive_double_rounds_once_to_nearest_or_up():
    tiny = Fraction(1, 2 ** 1074)
    cases = [Fraction(2 ** 53 + 1, 2 ** 53), Fraction(2 ** 53 + 3, 2 ** 53),  # ties to even
             tiny / 2, tiny * 3 / 2, tiny * 5 / 2, tiny / 3, tiny * 2 ** 52 - tiny / 2,
             Fraction(1, 3), Fraction(2 ** 60 - 1), Fraction(1, 10 ** 320), Fraction(1, 10 ** 330)]
    rng = random.Random(8)
    cases += [Fraction(rng.getrandbits(120) | 1, 2 ** rng.randrange(60, 1250)) for _ in range(400)]
    for f in cases:
        with mp.workprec(300):
            v = (mpf(f.numerator) / f.denominator)._mpf_
        f = _fraction(mp.make_mpf(v))
        near, up = positive_double(v), positive_double(v, up=True)
        assert near == _nearest_reference(f), f
        assert Fraction(up) >= f and (up == 0 or Fraction(math.nextafter(up, 0)) < f), f
    assert positive_double(mpf(0.1)._mpf_) == 0.1 == positive_double(mpf(0.1)._mpf_, up=True)
    assert positive_double((0, 1, -1075, 1)) == 0.0
    assert positive_double((0, 1, -1075, 1), up=True) == 5e-324


def test_y_ratio_is_the_exact_shifted_variable():
    for p, q in ((1, 4), (-3, 8), (0, 1), (5, 7)):
        x = Fraction(p, q)
        num, den = y_ratio(p, q, True)
        assert Fraction(num, den) == Fraction(1, 4) - x * x
        num, den = y_ratio(p, q, False)
        assert Fraction(num, den) == x * (1 - x)
