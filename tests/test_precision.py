import pytest
from mpmath import mp, mpf

from trigpoly.precision import (
    DEFAULT_DIGITS,
    ExtReal,
    PrecisionError,
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
    a = ExtReal.from_value("0.5", 30)
    assert a == ExtReal.from_value("0.5", 30)
    assert a != ExtReal.from_value("0.5", 40)
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
