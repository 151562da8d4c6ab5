import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_float, from_int, fzero

from trigpoly.coeffs import coeff_symbolic, t_enclosure
from trigpoly.intervals import (
    IntervalValue,
    _fixed_sin_cos_args,
    exact_ratio,
    fixed_bits,
    fixed_from_interval,
    fixed_horner,
    fixed_mul,
    fixed_pi,
    fixed_ratio,
    fixed_series,
    fixed_sin_cos_pi,
    interval_dps,
    interval_from_fixed,
    nearest_double,
    pi_interval,
    poly_eval_centered,
    to_double,
    y_ratio,
)
from trigpoly.verify import _fixed_coefficients

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def make_interval(a: float, b: float) -> IntervalValue:
    return IntervalValue(min(a, b), max(a, b))


def test_endpoints_ordering_enforced():
    with pytest.raises(ValueError):
        IntervalValue(2, 1)
    with pytest.raises(ValueError, match="invalid"):  # from raw ends too
        IntervalValue._of(from_int(2), from_int(1))
    with pytest.raises(ValueError, match="invalid"):
        IntervalValue._of(from_float(2.0 ** -1000), fzero)
    assert IntervalValue._of(from_int(-1), from_int(-1)).width == 0


@pytest.mark.parametrize("lo,hi", [(math.inf, None), (-math.inf, None), (math.nan, None),
                                   (0, math.inf), (-math.inf, 0), (math.nan, 1), (0, math.nan),
                                   (mpf("-inf"), 0), (0, mpf("nan"))])
def test_endpoints_must_be_finite(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        IntervalValue(lo, hi)
    ends = mpf(lo)._mpf_, mpf(lo if hi is None else hi)._mpf_
    with pytest.raises(ValueError, match="finite"):  # from raw ends too
        IntervalValue._of(*ends)


def test_basic_properties():
    v = IntervalValue(1, 3)
    assert v.lo == 1 and v.hi == 3
    assert v.mid == 2 and v.width == 2
    assert v.contains(2) and not v.contains(5)


def test_fraction_construction_encloses():
    with pytest.raises(TypeError):
        IntervalValue(Fraction(1, 3))  # not exact: enclose it at some bits instead
    bits = fixed_bits(30)
    v = interval_from_fixed(fixed_ratio(1, 3, bits), bits)
    assert v.contains(Fraction(1, 3)) and not v.contains(Fraction(1, 3) + Fraction(1, 2 ** bits))
    assert v.width < mpf(10) ** -45


def test_pi_interval_width_and_containment():
    enc = pi_interval(50)
    assert enc.width <= mpf(10) ** -50
    with mp.workdps(80):
        assert enc.lo < mp.pi < enc.hi


def test_pi_interval_is_mpmath_interval_pi():
    from mpmath import iv

    for digits in (30, 50, 97, 200):
        with interval_dps(digits):
            ref = (+iv.pi)._mpi_
        enc = pi_interval(digits)
        assert (enc.lo._mpf_, enc.hi._mpf_) == ref


def test_fixed_pi_is_the_floor_and_ceiling():
    for bits in (1, 8, 53, 166, 1000):
        lo, hi = fixed_pi(bits)
        assert hi == lo + 1
        with mp.workprec(bits + 80):
            assert lo == int(mp.floor(mp.pi * 2 ** bits))


def sample_point(a: float, b: float, t: float) -> float:
    """A point of [min(a,b), max(a,b)]: min + t*(max-min), clamped to the ends.

    The clamp matters: the float sum can round past an endpoint, e.g.
    -1.0 + 1.0*(-6e-31 - -1.0) rounds to 0.0, outside [-1, -6e-31].
    """
    lo, hi = min(a, b), max(a, b)
    return min(hi, max(lo, lo + t * (hi - lo)))


def _pair(a: float, b: float, bits: int) -> tuple[int, int]:
    return fixed_from_interval(make_interval(a, b), bits)


def _holds(enc, value: Fraction, bits: int) -> bool:
    return Fraction(enc[0], 1 << bits) <= value <= Fraction(enc[1], 1 << bits)


@given(a=finite, b=finite, c=finite, d=finite, ta=st.floats(0, 1), tb=st.floats(0, 1))
@example(a=0.0, b=0.0, c=-1.0, d=-6.038865258794831e-31, ta=0.0, tb=1.0)
@example(a=0.0, b=0.0, c=-1.0, d=-8.74304699952782e-19, ta=0.0, tb=1.0)
@settings(max_examples=200, deadline=None)
def test_arithmetic_containment(a, b, c, d, ta, tb):
    """Exact results of point operations stay inside the fixed-point enclosures."""
    bits = 64
    u, v = _pair(a, b, bits), _pair(c, d, bits)
    xs, ys = Fraction(sample_point(a, b, ta)), Fraction(sample_point(c, d, tb))
    assert _holds((u[0] + v[0], u[1] + v[1]), xs + ys, bits)
    assert _holds((u[0] - v[1], u[1] - v[0]), xs - ys, bits)
    assert _holds(fixed_mul(u, v, bits), xs * ys, bits)
    assert _holds(fixed_mul(v, u, bits), xs * ys, bits)
    assert _holds(fixed_mul(u, u, bits), xs * xs, bits)
    assert _holds((3 * u[0], 3 * u[1]), 3 * xs, bits)


def test_power_containment_even():
    bits = 16
    v = _pair(-2, 3, bits)
    lo, hi = fixed_mul(v, v, bits)
    assert lo <= 0 and hi >= 9 << bits


def _exact_coeffs(values, bits):
    return [(v << bits, v << bits) for v in values]


def test_poly_eval_contains_point_value():
    # p(x) = 1 - 2x + x^2 on [0.5, 1.5]
    bits = 64
    enc = fixed_horner(_exact_coeffs([1, -2, 1], bits), _pair(0.5, 1.5, bits), bits)
    assert _holds(enc, Fraction(1, 4), bits) and _holds(enc, Fraction(0), bits)


def _horner_reference(coeffs, x, bits):
    # Horner's rule as one `fixed_mul` per coefficient
    lo = hi = 0
    for c_lo, c_hi in reversed(coeffs):
        lo, hi = fixed_mul((lo, hi), x, bits)
        lo, hi = lo + c_lo, hi + c_hi
    return lo, hi


def test_fixed_horner_matches_one_fixed_mul_per_coefficient():
    rng = random.Random(20)
    for bits in (8, 64, 106, 236):
        unit = 1 << bits
        for _ in range(40):
            coeffs = []
            for _ in range(rng.randint(0, 17)):
                lo = rng.randint(-4 * unit, 4 * unit)
                coeffs.append((lo, lo + rng.randint(0, unit >> 4)))
            for kind in ("non-negative", "negative", "straddling"):
                if kind == "non-negative":
                    x_lo = rng.choice((0, rng.randint(0, 2 * unit)))
                    x = x_lo, x_lo + rng.randint(0, unit)
                elif kind == "negative":
                    x_hi = -rng.randint(1, 2 * unit)
                    x = x_hi - rng.randint(0, unit), x_hi
                else:
                    x = -rng.randint(1, unit), rng.randint(0, unit)
                assert fixed_horner(coeffs, x, bits) == _horner_reference(coeffs, x, bits), kind


def test_centered_form_is_tighter_near_extremum():
    bits = fixed_bits(50)
    coeffs, dcoeffs = _exact_coeffs([1, -2, 1], bits), _exact_coeffs([-2, 2], bits)
    plain = fixed_horner(coeffs, _pair(0.9, 1.1, bits), bits)
    best = poly_eval_centered(coeffs, dcoeffs, 0.9, 1.1, bits)
    assert best[1] - best[0] <= plain[1] - plain[0]
    assert _holds(best, (Fraction(0.9) - 1) ** 2, bits)  # p at the left end


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
    coeffs = _fixed_coefficients(12, bits)
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
            y_enc = fixed_ratio(*y_ratio(num, den, cos), bits)
            assert _encloses(y_enc, y, bits)
            acc = 0
            for j, cj in enumerate(c):
                acc += cj * y ** (j + 1)
                # the partial sum P_{j+1}, a polynomial in y with no constant term
                assert _encloses(fixed_horner([(0, 0), *coeffs[:j + 1]], y_enc, bits), acc, bits)
        t = mp.pi * xv
        sums, mags = fixed_series(*_fixed_sin_cos_args(p, q, bits, True), bits, 10)
        acc = 0
        for k in range(11):
            n = 2 * k + 1
            mag = t ** n / mp.factorial(n)
            assert _encloses(mags[k], mag, bits)
            if k < 10:
                acc += (-1) ** k * mag
                assert _encloses(sums[k], acc, bits)


def _series_reference(first, z, a, b, bits, n=None):
    """`fixed_series`'s documented steps in exact rationals: each term is
    u z / (d 2^bits) rounded by Fraction floor (lower end) and ceiling (upper);
    without n it stops at the first term below one unit whose ratio is below 1."""
    unit = 2 ** bits
    (u_lo, u_hi), (s_lo, s_hi) = first, (0, 0)
    sums, mags = [], [first]
    k = 0
    while (k < n) if n is not None else (u_hi > 1 or Fraction(z[1], (2 * k + a) * (2 * k + b) * unit) >= 1):
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
                z = _enclosure(rng, 4 * a * b * unit)  # terms that grow before they fall
                assert fixed_series(first, z, a, b, bits, n) == _series_reference(first, z, a, b, bits, n)
                assert fixed_series(first, z, a, b, bits) == _series_reference(first, z, a, b, bits)


def test_fixed_series_sums_through_terms_that_grow():
    # cos 10 = sum (-100)^k/(2k)! < 0: the terms grow to about 2800 first; a
    # stop at the first term below one unit would return [0, 1] at 8 bits
    with mp.workdps(100):
        for bits in (8, 16, 64, 200):
            one, z = (1 << bits, 1 << bits), (100 << bits, 100 << bits)
            lo, hi = fixed_series(one, z, 1, 2, bits)
            assert lo <= mp.cos(10) * 2 ** bits <= hi and hi < 0, bits
    # a first term of one unit, below the terms that follow: no stop at k = 0
    lo, hi = fixed_series((1, 1), (100 << 8, 100 << 8), 1, 2, 8)
    with mp.workdps(50):
        assert lo <= mp.cos(10) <= hi  # the old stop at k = 0 gave (0, 1)
    # a first ratio of exactly 1 sums on to the next term
    lo, hi = fixed_series((1 << 8, 1 << 8), (6 << 8, 6 << 8), 2, 3, 8)
    with mp.workdps(50):
        assert lo <= mp.sin(mp.sqrt(6)) / mp.sqrt(6) * 2 ** 8 <= hi
    # the partial sums need no tail rule, so they stop at n whatever the terms do
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
    assert fixed_ratio(*y_ratio(1, 2, False), bits) == (1 << bits - 2, 1 << bits - 2)
    assert exact_ratio(mpf(0.75)) == (3, 4)
    with mp.workprec(300):
        third = mpf(1) / 3
    p, q = exact_ratio(third)  # at the default context precision: no rounding
    assert q.bit_length() > 290
    with mp.workprec(300):
        assert mpf(p) / q == third
    with pytest.raises(ValueError):
        fixed_sin_cos_pi(3, 4, bits, cos=True)


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
    with mp.workdps(40):
        cases.append(IntervalValue(mpf(1) / 3, 1))
    cases.append(interval_from_fixed(fixed_ratio(2, 21, 200), 200))
    cases.append(IntervalValue(mpf(2) ** -1000, 3))
    for enc in cases:
        outside = enc.mid
        with mp.workdps(10):
            inside = enc.mid
        assert outside._mpf_ == inside._mpf_
        assert _fraction(outside) == (_fraction(enc.lo) + _fraction(enc.hi)) / 2
    assert t_enclosure(1, 50).mid.man.bit_length() > 200  # not cut to the ambient 25 digits


def _rounds_correctly(f: Fraction, toward: int, got: float) -> bool:
    """Whether got is f rounded once to a double, by exact comparisons: the nearest
    double, ties to the even significand, or the nearest on the side asked for."""
    g = Fraction(got)
    if toward:
        other = Fraction(math.nextafter(got, -toward * math.inf))
        return (g - f) * toward >= 0 and (other - f) * toward < 0
    err = abs(g - f)
    for side in (-math.inf, math.inf):
        near = abs(Fraction(math.nextafter(got, side)) - f)
        if near < err or near == err and (g / Fraction(math.ulp(got))) % 2:
            return False
    return True


def test_to_double_rounds_once_to_nearest_down_or_up():
    tiny = Fraction(1, 2 ** 1074)
    cases = [Fraction(2 ** 53 + 1, 2 ** 53), Fraction(2 ** 53 + 3, 2 ** 53),  # ties to even
             tiny / 2, tiny * 3 / 2, tiny * 5 / 2, tiny / 3, tiny * 2 ** 52 - tiny / 2,
             Fraction(1, 3), Fraction(2 ** 60 - 1), Fraction(1, 10 ** 320), Fraction(1, 10 ** 330),
             Fraction(0), Fraction(1, 10), Fraction(3, 2 ** 1080), Fraction(10 ** 300, 3)]
    rng = random.Random(8)
    cases += [Fraction(rng.getrandbits(120) | 1, 2 ** rng.randrange(60, 1250)) for _ in range(300)]
    cases += [Fraction(rng.getrandbits(rng.randrange(1, 200)) + 1, rng.getrandbits(150) | 1)
              for _ in range(300)]
    for f in cases + [-f for f in cases]:
        for toward in (0, -1, 1):
            assert _rounds_correctly(f, toward, to_double(f.numerator, f.denominator, toward)), (
                f, toward)
    # 2^-1075 lies halfway between 0 and the least subnormal: a tie, to the even 0
    assert to_double(1, 2 ** 1075) == 0.0 and to_double(1, 2 ** 1075, -1) == 0.0
    assert to_double(1, 2 ** 1075, 1) == 5e-324 and to_double(-1, 2 ** 1075, -1) == -5e-324
    assert math.copysign(1, to_double(-1, 2 ** 1075)) == -1  # a negative value rounds to -0.0
    assert to_double(0, 7, -1) == to_double(0, 7, 1) == 0.0
    assert to_double(1, 10) == 0.1 and to_double(1, 10, 1) == 0.1
    assert to_double(1, 10, -1) == math.nextafter(0.1, 0)


def test_to_double_rounds_a_dyadic_ratio_on_the_integer():
    # den = 2**e: results across the subnormal boundary (2**-1022) and up to 2**1024, mantissas
    # up to 2000 bits, exact halves (ties to even) and exact values, both signs, all directions
    rng = random.Random(27)
    cases = []
    for bits in (1, 2, 52, 53, 54, 55, 64, 106, 500, 2000):
        for k in (-1080, -1075, -1074, -1073, -1023, -1022, -1021, -1, 0, 1, 1000, 1022, 1023):
            e = bits - 1 - k  # num in [2**(bits-1), 2**bits), so num/2**e in [2**k, 2**(k+1))
            if e < 0:
                continue
            nums = [rng.getrandbits(bits - 1) | 1 << (bits - 1) for _ in range(4)]
            if bits > 54:  # an exact value, and ties between an even and an odd significand
                cut = bits - 53
                nums += [(q << cut | 1 << (cut - 1)) for q in (1 << 52, 1 << 52 | 1)]
                nums.append(nums[0] >> cut << cut)
            cases += [(num, e) for num in nums]
    top = Fraction(sys.float_info.max)
    for num, e in cases:
        for num in (num, -num):
            f = Fraction(num, 2 ** e)
            for toward in (-1, 0, 1):
                # past the largest double, to nearest raises OverflowError and down or up
                # saturates or overflows to inf: the next test checks both
                if abs(f) >= top:
                    continue
                got = to_double(num, 2 ** e, toward)
                assert _rounds_correctly(f, toward, got), (num, e, toward)
    assert to_double(3, 4, 1) == to_double(3, 4, -1) == 0.75
    assert to_double(2 ** 1024 - 2 ** 970 - 1, 1, -1) == sys.float_info.max


def test_to_double_rounds_down_or_up_over_every_range():
    # any den, an odd part times a power of two: results below the least subnormal, in the
    # subnormal range, normal, in the top binade and past the largest double, both signs
    rng = random.Random(28)
    top = Fraction(sys.float_info.max)
    cases = []
    for k in (-1100, -1076, -1075, -1074, -1073, -1050, -1023, -1022, -1021, 0, 1022, 1023, 1024,
              1030):
        for _ in range(12):
            num = rng.getrandbits(rng.randrange(1, 200)) | 1
            odd = rng.getrandbits(rng.randrange(1, 400)) | 1
            shift = num.bit_length() - odd.bit_length() - k  # num/den near 2**k
            num, den = (num, odd << shift) if shift >= 0 else (num << -shift, odd)
            cases += [(num, den), (-num, den)]
    for num, den in cases:
        f = Fraction(num, den)
        for toward in (-1, 1):
            got = to_double(num, den, toward)
            if abs(f) > top:  # IEEE 754: away from zero overflows, toward zero saturates
                away = (f > 0) == (toward > 0)
                assert got == (math.inf if away else sys.float_info.max) * (1 if f > 0 else -1)
            else:
                assert _rounds_correctly(f, toward, got), (num, den, toward)
            if got == 0:  # zero keeps the sign of the value rounded to it
                assert math.copysign(1, got) == (1 if f > 0 else -1), (num, den, toward)
    # just past the largest double, 2**1024 - 2**971: up overflows, down saturates
    assert to_double(2 ** 1024 - 2 ** 970 - 1, 1, 1) == math.inf
    assert to_double(2 ** 1024 - 2 ** 970, 1, -1) == sys.float_info.max
    assert to_double(-(2 ** 1024 - 2 ** 970), 1, 1) == -sys.float_info.max
    assert to_double(-(2 ** 1024 - 2 ** 970 - 1), 1, -1) == -math.inf
    assert to_double(-2 ** 1100, 3, 1) == -sys.float_info.max
    assert to_double(-2 ** 1100, 3, -1) == -math.inf
    assert to_double(2 ** 1100, 3, 1) == math.inf
    # below the least subnormal, with an odd den: down to 0.0, up to -0.0 when negative
    assert math.copysign(1, to_double(1, 3 * 2 ** 1100, -1)) == 1
    assert math.copysign(1, to_double(-1, 3 * 2 ** 1100, 1)) == -1
    assert to_double(1, 3 * 2 ** 1100, 1) == 5e-324 == -to_double(-1, 3 * 2 ** 1100, -1)
    with pytest.raises(OverflowError):  # to nearest stays CPython's int / int
        to_double(2 ** 1100, 3)


def test_nearest_double_needs_both_ends_to_round_alike():
    assert nearest_double((1, 3), (1, 3)) == 1 / 3
    assert nearest_double((2 ** 60 - 1, 2 ** 60), (1, 1)) == 1.0
    assert nearest_double((1, 3), (1, 2)) is None
    # zero keeps its sign: ends that round to -0.0 and to 0.0 are two doubles
    assert nearest_double((-1, 2 ** 1100), (1, 2 ** 1100)) is None
    assert math.copysign(1, nearest_double((-1, 2 ** 1100), (-1, 2 ** 1099))) == -1
    assert nearest_double((0, 1), (1, 2 ** 1100)) == 0.0


def test_y_ratio_is_the_exact_shifted_variable():
    for p, q in ((1, 4), (-3, 8), (0, 1), (5, 7)):
        x = Fraction(p, q)
        num, den = y_ratio(p, q, True)
        assert Fraction(num, den) == Fraction(1, 4) - x * x
        num, den = y_ratio(p, q, False)
        assert Fraction(num, den) == x * (1 - x)
