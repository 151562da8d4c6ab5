import dataclasses
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from trigpoly import approx, coeffs, intervals, precision, verify
from trigpoly.approx import COS_PI_X, SIN_PI_X, build_poly, maclaurin_eval_hp, select_degree
from trigpoly.coeffs import bessel_j_half_integer, general_series_direct
from trigpoly.intervals import IntervalValue, fixed_bits, series_ends
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
    # p/q rounded once to nearest at the bits asked for: numerators of 200-500 bits and odd
    # denominators up to 400 bits, wider than the 236 bits of 50 digits, against libmp
    prec = fixed_bits(DEFAULT_DIGITS)
    rng = random.Random(30)
    cases = [Fraction(1, 3)] + [Fraction(rng.getrandbits(rng.randrange(200, 501)) | 1,
                                         rng.getrandbits(rng.randrange(1, 401)) | 1)
                                for _ in range(2000)]
    for f in cases + [-f for f in cases]:
        expected = from_rational(f.numerator, f.denominator, prec, round_nearest)
        assert to_mpf(f, prec)._mpf_ == expected, f
    # nor does the context's precision enter
    with mp.workprec(20):
        assert to_mpf(Fraction(1, 3), prec)._mpf_ == from_rational(1, 3, prec, round_nearest)
        assert to_mpf("0.1", prec) == mpf("0.1", prec=prec)


def _raw(v):
    """v with each mpf as its raw libmp tuple and each float as its hex, recursively through
    dataclasses, tuples, lists and dicts: an equality that reads no context (`repr(mpf)` reads
    its dps) and tells -0.0 from 0.0."""
    if isinstance(v, mpf):
        return v._mpf_
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (tuple, list)):
        return tuple(map(_raw, v))
    if isinstance(v, dict):
        return {k: _raw(x) for k, x in v.items()}
    if dataclasses.is_dataclass(v):
        return type(v).__name__, *(_raw(getattr(v, f.name)) for f in dataclasses.fields(v))
    return v


def _library_outputs():
    """The public functions of approx, coeffs and verify at small sizes, every cache of the
    library cleared first, so that a run computes each value again."""
    for module in (approx, coeffs, intervals, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    polys = [build_poly(func, 6, 30) for func in (COS_PI_X, SIN_PI_X)]
    xs = (0.3, "0.1", Fraction(1, 3))
    return {
        "build_poly": polys,
        "eval_hp": [p.eval_hp(x) for p in polys for x in xs],
        "y_of_hp": [p.y_of_hp(x) for p in polys for x in xs],
        "error_bound": [approx.error_bound(p.func, 6, 0.3, 30) for p in polys],
        "select_degree": [select_degree(SIN_PI_X, tol, 30)
                          for tol in (1e-12, "1e-20", Fraction(1, 10 ** 25))],
        "maclaurin_eval_hp": [maclaurin_eval_hp(m, x, 30) for m in (1, 4) for x in (*xs, -0.7)],
        "tables": [coeffs.coefficient_table(8, 30, route)
                   for route in ("recurrence", "direct", "bessel")],
        "general_series_direct": general_series_direct(2, "2.5", 30),
        "general_series_recurrence": coeffs.general_series_recurrence(6, Fraction(7, 3), 30),
        "bessel_j_half_integer": bessel_j_half_integer(2, "1.5", 30),
        "gamma_half": coeffs.gamma_half(5, 30),
        "evaluate": coeffs.coeff_symbolic(6)[-1].evaluate(30),
        "reports": [verify.check_coefficient_bounds(8, 30), verify.check_bessel_identity(8, 30),
                    verify.check_taylor_exactness(4, 30),
                    *(verify.check_bracketing(func, 4, 30) for func in (SIN_PI_X, COS_PI_X)),
                    verify.check_maclaurin_interleaving(2, 30)],
        "prove_example_inequality": verify.prove_example_inequality(),
        "example_curve": verify.example_curve(64),
    }


def test_library_reads_no_mpmath_context(monkeypatch):
    # the same results, bit for bit, at an ambient precision of 20 bits and with the
    # precision lock refusing entry: no library function reads or enters mpmath's context
    class Refusing:
        def __enter__(self):
            raise AssertionError("a library function entered mpmath's context")

        def __exit__(self, *exc):
            return False

    expected = _raw(_library_outputs())
    monkeypatch.setattr(precision, "PRECISION_LOCK", Refusing())
    with mp.workprec(20):
        got = _raw(_library_outputs())
        assert mp.prec == 20
    for name in expected:
        assert got[name] == expected[name], name


def test_concurrent_coefficient_generation_is_consistent():
    # operations at mixed precisions from many threads must match the
    # single-threaded results bit for bit
    import concurrent.futures

    from trigpoly.coeffs import coeff_direct

    polys = {d: build_poly(SIN_PI_X, 8, d) for d in (30, 50, 64)}
    kinds = {
        "coeff_direct": lambda j, d: coeff_direct(j, d)[0].value,
        "select_degree": lambda j, d: select_degree(COS_PI_X, f"1e-{3 * j}", d),
        "maclaurin_eval_hp": lambda j, d: maclaurin_eval_hp(j, "0.37", d),
        "general_series_direct": lambda j, d: general_series_direct(j, "2.5", d).value,
        "eval_hp": lambda j, d: polys[d].eval_hp(Fraction(j, 17)),
    }
    jobs = [(kind, j, d) for kind in kinds for j in (1, 3, 5, 8) for d in (30, 50, 64)] * 2
    expected = {job: kinds[job[0]](*job[1:]) for job in set(jobs)}
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda job: (job, kinds[job[0]](*job[1:])), jobs))
    for job, value in results:
        assert _raw(value) == _raw(expected[job]), job


# --- the series on the fixed-point kernel ------------------------------------
#
# Every extended-precision series value is the midpoint of an enclosure from
# `intervals.series_ends`; mpmath's own functions, at digits + 40, are the
# references.

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
    # past the doubles, x = 1e200 and 1e400, z = (pi x)^2 is no double
    for x in (0, 1e-5, 0.123, 0.25, 0.5, 0.77, 1, 1.5, *ARGS, 1e5, 1e200, "1e400"):
        with mp.workdps(digits + 40):
            xv = mpf(x)
            t = mp.pi * xv
            terms = [(-1) ** k * t ** (2 * k + 1) / mp.factorial(2 * k + 1) for k in range(20)]
        for m in range(1, 6 if abs(xv) >= 1e5 else 20):
            got = maclaurin_eval_hp(m, xv, digits)
            with mp.workdps(digits + 40):
                ref = mp.fsum(terms[:m])
                assert abs(got - ref) <= max(abs(ref), t) * mpf(10) ** -digits, (m, x)
                assert abs(maclaurin_eval_hp(m, -xv, digits) + got) == 0, (m, x)
    # a float and a string past the doubles, as given
    for x in (1e200, "1e400"):
        with mp.workdps(digits + 40):
            t = mp.pi * mpf(x)
            ref = t - t ** 3 / 6 + t ** 5 / 120
            assert _rel(maclaurin_eval_hp(3, x, digits), ref) < mpf(10) ** -digits, x
    # far enough out the partial sum is sin(pi x) itself (here sin(pi x) != 0)
    for x in ("0.1", "0.5", "7.5", ARGS[-1]):
        with mp.workdps(digits + 40):
            ref = mp.sin(mp.pi * mpf(x))
            assert _rel(maclaurin_eval_hp(120, mpf(x), digits), ref) < mpf(10) ** -digits, x


def test_kernel_sums_n_terms_or_to_convergence():
    prec = 200

    def ends(lo, hi=None):
        # raw mpf ends (lo, hi) of exact values
        return mpf(lo)._mpf_, mpf(lo if hi is None else hi)._mpf_

    def series(first, z, a, b, n=None):
        return IntervalValue._of(*series_ends(first, z, a, b, prec, n))

    with mp.workprec(400):
        one = ends(1)
        # cos 1 = sum (-1)^k 1/(2k)!: u_0 = 1, z = 1, (a, b) = (1, 2)
        enc = series(one, one, 1, 2)
        assert enc.contains(mp.cos(1)) and enc.width < mpf(2) ** -190
        assert series_ends(one, one, 1, 2, prec, n=1) == one
        assert series_ends(one, one, 1, 2, prec, n=2) == ends(mpf(1) / 2)
        # growing terms first: sin 10 = 10 sum (-1)^k 100^k/(2k+1)!
        enc = series(ends(10), ends(100), 2, 3)
        assert enc.contains(mp.sin(10)) and enc.width < mpf(2) ** -190
        # a wide first term: each end of the product takes the factor that
        # makes it least or most, here 2 for both ends of the negative cos 10
        enc = series(ends(1, 2), ends(100), 1, 2)
        assert enc.contains(2 * mp.cos(10)) and enc.contains(mp.cos(10))
        # a first term far below any fixed-point unit keeps its relative precision
        tiny = mpf(2) ** -3000
        enc = series(ends(tiny), one, 1, 2)
        assert enc.contains(mp.cos(1) * tiny) and enc.width < tiny * mpf(2) ** -190
