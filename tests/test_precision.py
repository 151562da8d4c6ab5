import math

import pytest
from mpmath import mp, mpf

from trigpoly.approx import maclaurin_eval_hp
from trigpoly.coeffs import bessel_j_half_integer, gamma_half, general_series_direct
from trigpoly.precision import (
    DEFAULT_DIGITS,
    ExtReal,
    PrecisionError,
    alternating_series,
    to_mpf,
    working,
)


def test_working_context_sets_guard_digits():
    before = mp.dps
    with working(50):
        assert mp.dps == 70
    assert mp.dps == before


def test_extreal_requires_minimum_digits():
    with pytest.raises(PrecisionError):
        ExtReal(mpf(1), 10)


def test_extreal_comparisons_and_str():
    # a frozen carrier: equality compares value and digits, never a bare number
    a = ExtReal(mpf("0.5"), 30)
    assert a == ExtReal(mpf("0.5"), 30)
    assert a != ExtReal(mpf("0.5"), 40)
    assert a != 0.5 and a.value == 0.5
    assert float(a) == 0.5
    assert "0.5" in str(a)


def test_to_mpf_fraction_is_single_rounding():
    from fractions import Fraction

    with working(DEFAULT_DIGITS):
        v = to_mpf(Fraction(1, 3))
        assert abs(v - mpf(1) / 3) <= mpf(10) ** -69


def test_concurrent_coefficient_generation_is_consistent():
    # operations at mixed precisions from many threads must match the
    # single-threaded results bit for bit
    import concurrent.futures

    from trigpoly.coeffs import coeff_direct

    jobs = [(j, d) for j in (1, 3, 5, 8) for d in (30, 50, 64)] * 2
    expected = {(j, d): coeff_direct(j, d)[0].value for j, d in set(jobs)}
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda jd: (jd, coeff_direct(*jd)[0].value), jobs))
    for (j, d), value in results:
        assert value == expected[(j, d)]


# --- the mpf alternating-series kernel ---------------------------------------
#
# The loops below are the three hand-written series that `alternating_series`
# replaced, kept here as they were; the kernel must give the same mpf bits.

def _ratio_sum(first_mag, ratio_at, digits):
    thresh = mpf(10) ** (-(digits + 5))
    floor = first_mag * thresh
    s, mag, sign, k = mpf(0), first_mag, 1, 0
    while True:
        s += sign * mag
        ratio = ratio_at(k)
        nxt = mag * ratio
        if ratio < 1 and nxt <= thresh * max(abs(s), floor):
            return s
        mag, sign, k = nxt, -sign, k + 1


def _bessel_loop(j, x, digits):
    with working(digits, extra=5):
        half = to_mpf(x) / 2
        half2 = half * half
        nu = j - mpf(1) / 2
        first = mp.power(half, nu) / gamma_half(j, digits + 5).value
        return +_ratio_sum(first, lambda k: half2 / ((k + 1) * (nu + k + 1)), digits)


def _general_loop(j, z, digits):
    with working(digits, extra=5):
        zv = to_mpf(z)
        first = mpf(1) / mpf(math.factorial(2 * j))
        return +_ratio_sum(first, lambda k: zv / (2 * (k + 1) * (2 * j + 2 * k + 1)), digits)


def _maclaurin_loop(m, x, digits):
    with working(digits):
        t = mp.pi * to_mpf(x)
        term, acc = t, +t
        for j in range(1, m):
            term *= -t * t / ((2 * j) * (2 * j + 1))
            acc += term
        return acc


ARGS = ["0.1", "0.5", "1", "3", "7.5", "12", "30", 1.5707963267948966]


@pytest.mark.parametrize("digits", [30, 50, 80])
def test_kernel_matches_the_bessel_and_t_j_loops_bitwise(digits):
    for j in range(0, 25):
        for x in ARGS:
            assert bessel_j_half_integer(j, x, digits).value._mpf_ == \
                _bessel_loop(j, x, digits)._mpf_, (j, x)
            assert general_series_direct(j, x, digits).value._mpf_ == \
                _general_loop(j, x, digits)._mpf_, (j, x)


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_kernel_matches_the_maclaurin_loop_bitwise(digits):
    for m in range(1, 20):
        for x in (0, 1e-5, 0.123, 0.25, 0.5, 0.77, 1, 1.5):
            assert maclaurin_eval_hp(m, x, digits)._mpf_ == _maclaurin_loop(m, x, digits)._mpf_, (m, x)


def test_kernel_sums_n_terms_or_to_convergence():
    with working(50):
        # cos 1 = sum (-1)^k 1/(2k)!: u_0 = 1, z = 1, (a, b) = (1, 2)
        assert abs(alternating_series(mpf(1), mpf(1), 1, 2, 50) - mp.cos(1)) < mpf(10) ** -55
        assert alternating_series(mpf(1), mpf(1), 1, 2, 50, n=1) == 1
        assert alternating_series(mpf(1), mpf(1), 1, 2, 50, n=2) == mpf(1) / 2
        # growing terms first: sin 10 = sum (-1)^k 10^(2k+1)/(2k+1)!
        assert abs(alternating_series(mpf(10), mpf(100), 2, 3, 50) - mp.sin(10)) < mpf(10) ** -50
