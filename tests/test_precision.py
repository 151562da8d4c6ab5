import pytest
from mpmath import mp, mpf

from trigpoly.approx import maclaurin_eval_hp
from trigpoly.coeffs import bessel_j_half_integer, general_series_direct
from trigpoly.intervals import IntervalValue, series_interval
from trigpoly.precision import DEFAULT_DIGITS, ExtReal, PrecisionError, to_mpf, working


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


# --- the series on the fixed-point kernel ------------------------------------
#
# Every extended-precision series value is the midpoint of an enclosure from
# `intervals.series_interval`; mpmath's own functions, at digits + 40, are
# the references.

ARGS = ["0.1", "0.5", "1", "3", "7.5", "12", "30", 1.5707963267948966]


def _rel(got, ref):
    return abs(got - ref) / abs(ref)


@pytest.mark.parametrize("digits", [30, 50, 80])
def test_bessel_and_t_j_series_match_mpmath(digits):
    # x = 12 and 30 make the terms grow before they fall
    for x in ARGS:
        with mp.workdps(digits + 40):
            xv = mpf(x)
            root = mp.sqrt(xv)
            refs = [(mp.besselj(j - mpf(1) / 2, xv),
                     # T_j(z) = sqrt(pi)/(j! 2^(j+1/2)) z^(1/4-j/2) J_{j-1/2}(sqrt(z))
                     mp.sqrt(mp.pi) / (mp.factorial(j) * mp.power(2, j + mpf(1) / 2))
                     * mp.power(xv, mpf(1) / 4 - mpf(j) / 2) * mp.besselj(j - mpf(1) / 2, root))
                    for j in range(25)]
            cos_sin = mp.cos(root), mp.sin(root) / (2 * root)
        for j, (ref_bessel, ref_t) in enumerate(refs):
            bessel = bessel_j_half_integer(j, xv, digits).value
            t = general_series_direct(j, xv, digits).value
            with mp.workdps(digits + 40):
                assert _rel(bessel, ref_bessel) < mpf(10) ** -digits, (j, x)
                assert _rel(t, ref_t) < mpf(10) ** -digits, (j, x)
                if j < 2:
                    assert _rel(t, cos_sin[j]) < mpf(10) ** -digits, (j, x)


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_maclaurin_partial_sums_match_mpmath(digits):
    # S_m(x) against mpmath's sum of its m terms, within 10^-digits of the
    # larger of |S_m| and the first term pi x (S_m(1) cancels to ~pi^(2m+1)/(2m+1)!)
    for x in (0, 1e-5, 0.123, 0.25, 0.5, 0.77, 1, 1.5, *ARGS):
        with mp.workdps(digits + 40):
            xv = mpf(x)
            t = mp.pi * xv
            terms = [(-1) ** k * t ** (2 * k + 1) / mp.factorial(2 * k + 1) for k in range(20)]
        for m in range(1, 20):
            got = maclaurin_eval_hp(m, xv, digits)
            with mp.workdps(digits + 40):
                ref = mp.fsum(terms[:m])
                assert abs(got - ref) <= max(abs(ref), t) * mpf(10) ** -digits, (m, x)
                assert abs(maclaurin_eval_hp(m, -xv, digits) + got) == 0, (m, x)
    # far enough out the partial sum is sin(pi x) itself (here sin(pi x) != 0)
    for x in ("0.1", "0.5", "7.5", ARGS[-1]):
        with mp.workdps(digits + 40):
            ref = mp.sin(mp.pi * mpf(x))
            assert _rel(maclaurin_eval_hp(120, mpf(x), digits), ref) < mpf(10) ** -digits, x


def test_kernel_sums_n_terms_or_to_convergence():
    prec = 200
    with mp.workprec(400):
        one = IntervalValue(mpf(1))
        # cos 1 = sum (-1)^k 1/(2k)!: u_0 = 1, z = 1, (a, b) = (1, 2)
        enc = series_interval(one, one, 1, 2, prec)
        assert enc.contains(mp.cos(1)) and enc.width < mpf(2) ** -190
        assert series_interval(one, one, 1, 2, prec, n=1) == one
        assert series_interval(one, one, 1, 2, prec, n=2) == IntervalValue(mpf(1) / 2)
        # growing terms first: sin 10 = 10 sum (-1)^k 100^k/(2k+1)!
        enc = series_interval(IntervalValue(mpf(10)), IntervalValue(mpf(100)), 2, 3, prec)
        assert enc.contains(mp.sin(10)) and enc.width < mpf(2) ** -190
        # a wide first term: each end of the product takes the factor that
        # makes it least or most, here 2 for both ends of the negative cos 10
        enc = series_interval(IntervalValue(mpf(1), mpf(2)), IntervalValue(mpf(100)), 1, 2, prec)
        assert enc.contains(2 * mp.cos(10)) and enc.contains(mp.cos(10))
        # a first term far below any fixed-point unit keeps its relative precision
        tiny = IntervalValue(mpf(2) ** -3000)
        enc = series_interval(tiny, one, 1, 2, prec)
        assert enc.contains(mp.cos(1) * tiny.lo) and enc.width < tiny.lo * mpf(2) ** -190
