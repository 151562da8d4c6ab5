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
    fixed_series,
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


def _series_reference(first, z, a, b, bits, n=None):
    """`fixed_series`'s documented steps in exact rationals: each term is
    u z / (d 2^bits) rounded by Fraction floor (lower end) and ceiling (upper)."""
    unit = 2 ** bits
    (u_lo, u_hi), (s_lo, s_hi) = first, (0, 0)
    sums, mags = [], [first]
    k = 0
    while (k < n) if n is not None else u_hi > 1:
        if k % 2 == 0:
            s_lo, s_hi = s_lo + u_lo, s_hi + u_hi
        else:
            s_lo, s_hi = s_lo - u_hi, s_hi - u_lo
        d = (2 * k + a) * (2 * k + b) * unit
        u_lo = math.floor(Fraction(u_lo * z[0], d))
        u_hi = math.ceil(Fraction(u_hi * z[1], d))
        sums.append((s_lo, s_hi))
        mags.append((u_lo, u_hi))
        k += 1
    if n is not None:
        return sums, mags
    return (s_lo - u_hi, s_hi) if k % 2 else (s_lo, s_hi + u_hi)


def _enclosure(rng, top):
    lo = rng.randint(0, top)
    return lo, lo + rng.randint(0, max(1, top >> 20))


def test_fixed_series_matches_exact_rational_steps():
    rng = random.Random(9)
    shapes = [(1, 2), (2, 3)] + [(2, 2 * j + 1) for j in (1, 2, 5, 40)]
    for bits in range(8, 65, 4):
        unit = 1 << bits
        for a, b in shapes:
            for _ in range(12):
                first = _enclosure(rng, 4 * unit)
                z = _enclosure(rng, a * b * unit - 1)
                z = (min(z), min(z[1], a * b * unit - 1))
                assert fixed_series(first, z, a, b, bits) == _series_reference(first, z, a, b, bits)
                n = rng.randint(1, 12)
                z = _enclosure(rng, 4 * a * b * unit)  # growing terms are fine with n
                assert fixed_series(first, z, a, b, bits, n) == _series_reference(first, z, a, b, bits, n)


def test_fixed_series_refuses_terms_that_do_not_decrease():
    # cos 10 < 0, but the tail rule [0, u_k] would return (0, 1) at 8 bits
    with pytest.raises(ValueError):
        fixed_series((1, 1), (100 << 8, 100 << 8), 1, 2, 8)
    # the first ratio z/(ab) must be below 1; at exactly 1 it is refused
    with pytest.raises(ValueError):
        fixed_series((1 << 8, 1 << 8), (5 << 8, 6 << 8), 2, 3, 8)
    assert fixed_series((1 << 8, 1 << 8), (5 << 8, (6 << 8) - 1), 2, 3, 8)
    # the partial sums have no tail to enclose, so growing terms are allowed
    sums, mags = fixed_series((1, 1), (100 << 8, 100 << 8), 1, 2, 8, n=3)
    assert len(sums) == 3 and len(mags) == 4


def test_fixed_series_encloses_t_sin_and_cos():
    """Each convergent enclosure holds mpmath's sum at 3x the bits."""
    for bits in range(8, 65, 4):
        pi_lo, pi_hi = fixed_pi(bits)
        with mp.workprec(3 * bits):
            z = (pi_lo * pi_lo >> bits + 2, -(-(pi_hi * pi_hi) >> bits + 2))  # (pi/2)^2
            for j in (1, 2, 3, 10, 40):
                one = (1 << bits, 1 << bits)
                t_scaled = mp.factorial(2 * j) / (2 * mp.factorial(j)) * mp.pi ** (1 - j) \
                    * mp.besselj(j - mpf(1) / 2, mp.pi / 2)
                assert _encloses(fixed_series(one, z, 2, 2 * j + 1, bits), t_scaled, bits), (j, bits)
            for p, q in ((0, 1), (1, 4), (1, 8), (3, 16), (1, 5)):
                t = pi_lo * p // q, -(-pi_hi * p // q)
                t2 = t[0] * t[0] >> bits, -(-(t[1] * t[1]) >> bits)
                x = mpf(p) / q
                assert _encloses(fixed_series(t, t2, 2, 3, bits), mp.sinpi(x), bits), (p, q, bits)
                one = (1 << bits, 1 << bits)
                assert _encloses(fixed_series(one, t2, 1, 2, bits), mp.cospi(x), bits), (p, q, bits)


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
