import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_div, mpf_pi, mpf_shift, round_ceiling,
                          round_floor)

import trigpoly.coeffs as coeffs
import trigpoly.verify as verify
from trigpoly.coeffs import (
    CoefficientEntry,
    CoefficientTable,
    coeff_bessel,
    coeff_direct,
    coeff_recurrence,
    coeff_symbolic,
    coefficient_table,
    bessel_j_half_integer,
    c_enclosure,
    fixed_at_pi2,
    gamma_half,
    general_series_direct,
    general_series_recurrence,
    poly_mul,
    poly_sum,
    t_enclosure,
    t_enclosures,
)
from trigpoly.intervals import (IntervalValue, exact_ratio, fixed_bits, fixed_pi, fixed_series,
                                fixed_t_scaled, interval_from_fixed)
from trigpoly.precision import (GUARD_DIGITS, ExtReal, IndexLimitError, PrecisionError, to_mpf,
                                working)

# 1/pi to 50 significant digits
INV_PI_50 = "0.31830988618379067153776752674502872406891929148091"

# brute-force 30-term partial sum of sum_k (-1)^k binom(k+2,2)/(2k+4)!,
# frozen from the independent oracle below
T2_AT_1 = "0.0376460848674695986564457142734"


def brute_series(j: int, z, terms: int) -> mpf:
    """Independent oracle: raw partial summation, no stopping logic."""
    s = mpf(0)
    for k in range(terms):
        s += (-z) ** k * mpf(math.comb(j + k, j)) / mpf(math.factorial(2 * j + 2 * k))
    return s


def rel_diff(a: mpf, b: mpf) -> mpf:
    return abs(a - b) / abs(b)


# --- direct series ---------------------------------------------------------

def test_direct_j1_is_inverse_pi_to_50_digits():
    value, bound = coeff_direct(1, 50)
    assert value.to_str(50) == INV_PI_50
    assert bound.value < mpf(10) ** -50 * value.value


def t_terms(j: int, count: int, bits: int):
    """The kernel's enclosures of the first terms of t_j (2j)!, as (sums, mags)."""
    pi_lo, pi_hi = fixed_pi(bits)
    z = pi_lo * pi_lo >> bits + 2, -(-(pi_hi * pi_hi) >> bits + 2)  # (pi/2)^2
    return fixed_series((1 << bits, 1 << bits), z, 2, 2 * j + 1, bits, n=count)


def test_first_series_term_is_alternating_upper_bound():
    # truncating at K=0 leaves a_{1,0} = 1/2! = 0.5, an upper bound on t_1
    bits = fixed_bits(50)
    _, mags = t_terms(1, 1, bits)
    assert mags[0] == (1 << bits, 1 << bits)  # a_{1,0} (2j)! = 1 exactly
    assert Fraction(mags[0][1], math.factorial(2) << bits) == Fraction(1, 2)
    value, _ = coeff_direct(1, 50)
    assert value.value < 0.5


def test_direct_j5_matches_exact_symbolic_oracle():
    value, _ = coeff_direct(5, 50)
    with working(60):
        oracle = (1680 - 180 * mp.pi ** 2 + mp.pi ** 4) / (120 * mp.pi ** 9)
        assert rel_diff(value.value, oracle) < mpf(10) ** -50
    assert float(value) == pytest.approx(2.46e-7, rel=1e-2)


def test_direct_rejects_low_precision_and_large_index():
    with pytest.raises(PrecisionError):
        coeff_direct(1, 29)
    with pytest.raises(IndexLimitError):
        coeff_direct(201, 50)


@pytest.mark.parametrize("route", ["recurrence", "direct", "bessel"])
def test_table_refuses_an_index_over_the_cap(route):
    with pytest.raises(IndexLimitError):
        coefficient_table(201, 30, route=route)
    # and one below 1, alike on every route
    with pytest.raises(ValueError, match="j_max must be >= 1"):
        coefficient_table(0, 30, route=route)


def test_general_series_refuse_an_index_over_the_cap():
    with pytest.raises(IndexLimitError):
        general_series_recurrence(201, 1, 30)
    with pytest.raises(IndexLimitError):
        general_series_direct(201, 1, 30)


def test_series_terms_alternate_and_follow_ratio_law():
    # the kernel's ratio steps enclose the closed form a_{j,k} of every term
    j, bits = 3, fixed_bits(50)
    sums, mags = t_terms(j, 8, bits)
    with mp.workprec(3 * bits):
        for k, (lo, hi) in enumerate(mags):
            a_jk = (mp.pi ** 2 / 4) ** k * math.comb(j + k, j) / mp.factorial(2 * j + 2 * k)
            assert lo <= a_jk * math.factorial(2 * j) * 2 ** bits <= hi, k
            assert hi - lo <= 2 * k + 2, k  # a few units: each step rounds once per end
    # the partial sums alternate: each term moves the sum by its sign, (-1)^k
    for k in range(1, len(sums)):
        step = sums[k][0] - sums[k - 1][0]
        assert (step > 0) == (k % 2 == 0), k


@given(j=st.integers(1, 40), k=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_term_ratio_below_one_everywhere(j, k):
    with working(30):
        ratio = mp.pi ** 2 / (8 * (k + 1) * (2 * j + 2 * k + 1))
        assert ratio < 1


# --- recurrence ------------------------------------------------------------

def forward_allowance(j_max: int) -> int:
    """Digits the forward recurrence loses to cancellation at z = pi^2/4, plus slack:
    about log10(8 j^2 / z) per step."""
    z = math.pi ** 2 / 4
    return int(math.ceil(sum(max(0.0, math.log10(8.0 * i * i / z))
                             for i in range(2, j_max + 1)))) + 10


@pytest.mark.parametrize("digits", [30, 37, 50, 100, 151, 200])
def test_recurrence_values_match_the_hand_written_loop(digits):
    # the oracle runs the recurrence forward from t_0 = 0, t_1 = 1/pi at the
    # precision its cancellation needs; every table value lies inside its
    # enclosure, within its certificate and 10^-(digits+19) relative of it
    for j_max in (1, 2, 5, 40, 199, 200):
        with mp.workdps(digits + GUARD_DIGITS + forward_allowance(j_max)):
            pi2 = mp.pi ** 2
            vals = [mpf(0), 1 / mp.pi]
            for j in range(2, j_max + 1):
                a = 2 * (2 * j - 3) / (pi2 * j)
                b = 1 / (pi2 * j * (j - 1))
                vals.append(a * vals[j - 1] - b * vals[j - 2])
            encs = t_enclosures(j_max, digits)
            for e in coeff_recurrence(j_max, digits):
                assert encs[e.j - 1].contains(e.value.value), (j_max, e.j)
                err = abs(e.value.value - vals[e.j])
                assert err <= e.trunc_bound.value, (j_max, e.j)
                assert err < vals[e.j] * mpf(10) ** -(digits + 19), (j_max, e.j)


def test_recurrence_seed_only():
    table = coeff_recurrence(1, 50)
    assert len(table) == 1
    assert table.value(1).to_str(50) == INV_PI_50


def test_recurrence_j2_is_inverse_pi_cubed():
    table = coeff_recurrence(2, 50)
    with working(60):
        assert rel_diff(table.value(2).value, 1 / mp.pi ** 3) < mpf(10) ** -50
    assert float(table.value(2)) == pytest.approx(0.032251534433199, rel=1e-12)


def test_recurrence_first_five_match_displayed_values():
    table = coeff_recurrence(5, 50)
    approx = [0.318, 0.0323, 1.16e-3, 2.16e-5, 2.46e-7]
    for j, expected in enumerate(approx, start=1):
        assert float(table.value(j)) == pytest.approx(expected, rel=5e-3)


def test_recurrence_certificates_meet_table_invariant():
    table = coeff_recurrence(20, 50)
    for entry in table:
        assert entry.trunc_bound.value < mpf(10) ** -50 * entry.value.value


def test_table_rejects_gaps_and_bad_values():
    good = coeff_recurrence(3, 50)
    with pytest.raises(ValueError):
        CoefficientTable(entries=good.entries[1:], precision_digits=50)


def test_table_checks_are_exact_at_their_edges():
    # t_2's value against 1/4! and its bound against 10^-50 of the value, one
    # unit either side at 300 bits, and signed, zero and non-finite ends: the
    # table accepts exactly what the exact rational checks accept
    good = coeff_recurrence(3, 50)

    def at(num, den, rnd):
        return mpf_div(from_int(num), from_int(den), 300, rnd)

    v_ok, b_ok = (1, 32), (1, 32 * 10 ** 50)
    values = [at(1, 24, round_floor), at(1, 24, round_ceiling), at(*v_ok, round_floor),
              from_man_exp(5 ** 50, -300), from_int(0), at(-1, 32, round_floor), from_int(3),
              mpf("inf")._mpf_, mpf("-inf")._mpf_, mpf("nan")._mpf_]
    # 2^-350 is 10^-50 of 5^50 2^-300 exactly; 2^-171 < 10^-50/24 < 2^-170
    bounds = [at(*b_ok, round_floor), at(*b_ok, round_ceiling), from_man_exp(1, -350),
              from_man_exp(1, -171), from_man_exp(1, -170), from_int(0), at(-1, 7, round_floor),
              mpf("inf")._mpf_, mpf("nan")._mpf_]
    for v in values:
        for b in bounds:
            entry = CoefficientEntry(2, ExtReal(mp.make_mpf(v), 50), "recurrence",
                                     ExtReal(mp.make_mpf(b), 50))
            finite = all(man or not exp for _, man, exp, _ in (v, b))
            holds = finite and 0 < Fraction(*exact_ratio(v)) < Fraction(1, 24) and (
                Fraction(*exact_ratio(b)) * 10 ** 50 < Fraction(*exact_ratio(v)))
            entries = (good.entries[0], entry, good.entries[2])
            if holds:
                CoefficientTable(entries=entries, precision_digits=50)
            else:
                with pytest.raises(ValueError, match="coefficient 2"):
                    CoefficientTable(entries=entries, precision_digits=50)


# --- symbolic --------------------------------------------------------------

def test_symbolic_reduced_forms_match_display():
    syms = coeff_symbolic(5)
    assert [(s.numerator, s.denominator) for s in syms] == [
        ((1,), 1),
        ((1,), 1),
        ((12, -1), 6),
        ((10, -1), 2),
        ((1680, -180, 1), 120),
    ]
    assert [s.pi_power for s in syms] == [1, 3, 5, 7, 9]


def test_symbolic_strings():
    syms = coeff_symbolic(5)
    assert syms[0].as_string() == "1/pi"
    assert syms[1].as_string() == "1/pi^3"
    assert syms[2].as_string() == "(12 - pi^2)/(6*pi^5)"
    assert syms[3].as_string() == "(10 - pi^2)/(2*pi^7)"
    assert syms[4].as_string() == "(1680 - 180*pi^2 + pi^4)/(120*pi^9)"


def test_polynomials_in_u_sum_multiply_and_enclose_at_pi2():
    assert poly_sum((1, 2), (Fraction(1, 2), -2)) == (Fraction(3, 2),)
    assert poly_sum((1,), (-1,)) == ()
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_mul((), (1, 2)) == ()
    bits = fixed_bits(50)
    assert fixed_at_pi2((), bits) == (0, 0)
    assert fixed_at_pi2((7,), bits) == (7 << bits,) * 2  # a rational constant is exact
    lo, hi = fixed_at_pi2((Fraction(1, 3), 0, -2), bits)  # 1/3 - 2 pi^4
    with mp.workprec(3 * bits):
        value = mpf(1) / 3 - 2 * mp.pi ** 4
        assert lo <= value * 2 ** bits <= hi
    assert 0 < hi - lo < 2 ** 12


def test_symbolic_evaluation_agrees_with_numeric_routes():
    syms = coeff_symbolic(8)
    table = coeff_recurrence(8, 50)
    for s, entry in zip(syms, table):
        ev = s.evaluate(60)
        with working(70):
            assert rel_diff(entry.value.value, ev.value) < mpf(10) ** -49
            # the enclosure is tighter than the point evaluation's rounding,
            # so compare within the point value's own error budget
            enc = s.evaluate_interval(60)
            tol = abs(ev.value) * mpf(10) ** -75
            assert enc.lo - tol < ev.value < enc.hi + tol
            assert enc.width < abs(ev.value) * mpf(10) ** -60


def _frac(v) -> Fraction:
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _symbolic_oracle(s, digits: int) -> mpf:
    """N_j(pi^2)/(D_j pi^(2j-1)) by mpmath at 3x the digits plus those N_j's terms cancel by.

    t_j (2j)! lies in (1/2, 1), so the terms' magnitudes over D_j pi^(2j-1)/(2 (2j)!)
    bound the cancellation.
    """
    j = s.index
    with mp.workdps(30):
        size = sum(abs(c) * mp.pi ** (2 * i) for i, c in enumerate(s.numerator))
        least = s.denominator * mp.pi ** (2 * j - 1) / (2 * mp.factorial(2 * j))
        lost = int(mp.log10(size / least))
    with mp.workdps(3 * digits + max(0, lost) + 10):
        u, num = mp.pi ** 2, mpf(0)
        for c in reversed(s.numerator):
            num = num * u + c
        return num / (s.denominator * mp.pi ** (2 * j - 1))


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_symbolic_forms_keep_every_digit_up_to_j_200(digits):
    """N_j(pi^2)'s terms cancel by hundreds of digits for large j; none may be lost."""
    tol = Fraction(1, 10 ** digits)
    slack = Fraction(1, 10 ** (3 * digits))  # the oracle's own rounding, relative
    for s in coeff_symbolic(200):
        enc, ref = s.evaluate_interval(digits), _frac(_symbolic_oracle(s, digits))
        lo, hi = _frac(enc.lo), _frac(enc.hi)
        assert 0 < lo and hi - lo < lo * tol, s.index
        assert lo <= ref * (1 + slack) and ref * (1 - slack) <= hi, s.index
        value = _frac(s.evaluate(digits).value)
        assert ref * (1 - tol) <= value <= ref * (1 + tol), s.index


def test_y_coefficient_enclosures_hold_pi_times_the_weight():
    bits = fixed_bits(60)
    fixed = verify._fixed_coefficients(40, bits)
    for s in coeff_symbolic(40):
        c = s.y_coefficient_interval(60)
        assert c == c_enclosure(s.index, bits)
        t = s.evaluate_interval(60)
        with mp.workdps(200):
            pi_power = mp.pi ** (2 * s.index)
            assert c.lo <= t.hi * pi_power and t.lo * pi_power <= c.hi
        assert c.width < c.lo * mpf(10) ** -60
        lo, hi = fixed[s.index - 1]
        assert Fraction(lo, 1 << bits) <= _frac(c.lo) and _frac(c.hi) <= Fraction(hi, 1 << bits)
        assert hi - lo <= 4


# --- Bessel route ----------------------------------------------------------

def test_gamma_half_against_recursion_oracle():
    # oracle: Gamma(x+1) = x Gamma(x) seeded at Gamma(1/2) = sqrt(pi)
    with working(60):
        g = mp.sqrt(mp.pi)
        x = mpf(1) / 2
        for n in range(6):
            got = gamma_half(n, 50)
            assert rel_diff(got.value, g) < mpf(10) ** -49
            g *= x
            x += 1


def test_bessel_j1_equals_half_integer_closed_form():
    # oracle: J_{1/2}(z) = sqrt(2/(pi z)) sin(z); at z = pi/2 gives t_1 = 1/pi
    got = coeff_bessel(1, 50)
    with working(60):
        z = mp.pi / 2
        oracle = mp.sqrt(2 / (mp.pi * z)) * mp.sin(z) / 2
        assert rel_diff(got.value, oracle) < mpf(10) ** -49
        assert rel_diff(got.value, 1 / mp.pi) < mpf(10) ** -49


def test_bessel_j2_matches_symbolic_to_40_digits():
    got = coeff_bessel(2, 50)
    with working(60):
        assert rel_diff(got.value, 1 / mp.pi ** 3) < mpf(10) ** -40


def test_bessel_j10_matches_direct_to_40_digits():
    got = coeff_bessel(10, 50)
    direct, _ = coeff_direct(10, 50)
    assert rel_diff(got.value, direct.value) < mpf(10) ** -40


def test_bessel_j_half_integer_validates_argument():
    with pytest.raises(ValueError):
        bessel_j_half_integer(1, -1, 50)


@pytest.mark.parametrize("bad", ["inf", "nan", 10 ** 400, 10 ** 30, 10 ** 7])
def test_non_finite_arguments_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        bessel_j_half_integer(1, bad, 30)
    with pytest.raises(ValueError, match="finite"):
        general_series_direct(1, bad, 30)
    with pytest.raises(ValueError, match="finite"):
        general_series_recurrence(3, bad, 30)


def test_series_arguments_stop_at_z_one_million():
    # x^2, not x, is the Bessel series' z: x = 1000 is summed, x = 1001 refused
    assert bessel_j_half_integer(1, 1000, 30).value != 0
    assert general_series_direct(3, 10 ** 6, 30).value != 0
    with pytest.raises(ValueError, match=r"x\^2 <= 1000000"):
        bessel_j_half_integer(1, 1001, 30)
    for series in (general_series_direct, general_series_recurrence):
        with pytest.raises(ValueError, match="z <= 1000000"):
            series(3, 10 ** 6 + 1, 30)


# --- generalized series ----------------------------------------------------

def test_general_series_specializes_to_coefficients():
    with working(60):
        z = mp.pi ** 2 / 4
        got = general_series_direct(1, z, 50)
        assert rel_diff(got.value, 1 / mp.pi) < mpf(10) ** -49
        got3 = general_series_direct(3, z, 50)
        oracle = (12 - mp.pi ** 2) / (6 * mp.pi ** 5)
        assert rel_diff(got3.value, oracle) < mpf(10) ** -49


def test_general_series_j2_z1_against_brute_force():
    got = general_series_direct(2, 1, 50)
    with working(60):
        oracle = brute_series(2, mpf(1), 30)
        assert rel_diff(got.value, oracle) < mpf(10) ** -49
        assert rel_diff(got.value, mpf(T2_AT_1)) < mpf(10) ** -28


def test_general_series_rejects_nonpositive_z():
    with pytest.raises(ValueError):
        general_series_direct(2, 0, 50)
    with pytest.raises(ValueError):
        general_series_direct(2, -1, 50)
    with pytest.raises(ValueError):
        general_series_recurrence(3, 0, 50)


def test_general_recurrence_matches_direct_at_pi_case():
    with working(60):
        z = mp.pi ** 2 / 4
    vals = general_series_recurrence(5, z, 50)
    table = coeff_recurrence(5, 50)
    for j in range(1, 6):
        assert rel_diff(vals[j - 1].value, table.value(j).value) < mpf(10) ** -45


@pytest.mark.parametrize("z,j_max", [(Fraction(1, 2), 20), (1, 20), (2, 20)])
def test_general_recurrence_matches_direct_at_various_z(z, j_max):
    vals = general_series_recurrence(j_max, z, 50)
    for j in range(1, j_max + 1):
        direct = general_series_direct(j, z, 50)
        assert rel_diff(vals[j - 1].value, direct.value) < mpf(10) ** -40


@pytest.mark.parametrize("z", [Fraction(1, 2), 7, 10000])
def test_general_recurrence_values_are_the_downward_midpoints(z):
    # one recurrence: the values are the midpoints of the outward-rounded
    # pass's enclosures, z rounded to the working precision
    vals = general_series_recurrence(30, z, 50)
    with working(50):
        zv = to_mpf(z, mp.prec)._mpf_
        encs = [IntervalValue._of(*e) for e in coeffs._downward((zv, zv), 30, fixed_bits(50))]
        assert [v.value for v in vals] == [+e.mid for e in encs]


def test_general_recurrence_matches_direct_at_pi_squared_quarter():
    with working(60):
        z = +(mp.pi ** 2 / 4)
    vals = general_series_recurrence(20, z, 50)
    for j in range(1, 21):
        direct = general_series_direct(j, z, 50)
        assert rel_diff(vals[j - 1].value, direct.value) < mpf(10) ** -40


with working(300):
    PI2_QUARTER = +(mp.pi ** 2 / 4)


@pytest.mark.parametrize("digits", [30, 50, 100])
@pytest.mark.parametrize("z", [Fraction(1, 2), 2, PI2_QUARTER, 7, 30, 1000, 10000],
                         ids=["1/2", "2", "pi2/4", "7", "30", "1000", "10000"])
def test_general_recurrence_is_accurate_at_small_and_large_j(z, digits):
    # every value within 10^-(digits+19) relative of the direct series at
    # digits + 100, also for j_max <= 5, where the seeds carry few extra digits
    for j_max in (3, 5, 20, 60):
        vals = general_series_recurrence(j_max, z, digits)
        for j, got in enumerate(vals, start=1):
            ref = general_series_direct(j, z, digits + 100).value
            with working(digits + 100):
                assert rel_diff(got.value, ref) < mpf(10) ** -(digits + 19), (j_max, j)


def test_seed_series_at_zero_of_cosine():
    # T_0(z) = cos(sqrt(z)); at z = pi^2/4 the exact value is 0
    with working(60):
        z = +(mp.pi ** 2 / 4)
    got = general_series_direct(0, z, 50)
    assert abs(got.value) < mpf(10) ** -50


# --- cross-route and bound invariants ---------------------------------------

def test_cross_route_agreement_to_fifty():
    table = coeff_recurrence(50, 50)
    for j in range(1, 51):
        direct, _ = coeff_direct(j, 50)
        via_bessel = coeff_bessel(j, 50)
        assert rel_diff(table.value(j).value, direct.value) < mpf(10) ** -40
        assert rel_diff(via_bessel.value, direct.value) < mpf(10) ** -40


def test_bounds_and_bracket_small_range():
    table = coeff_recurrence(30, 50)
    with working(50):
        for entry in table:
            j = entry.j
            scaled = entry.value.value * mpf(math.factorial(2 * j))
            assert 0 < entry.value.value
            assert scaled < 1
            assert scaled > 1 - mp.pi ** 2 / (8 * (2 * j + 1))


def test_scaled_values_approach_one():
    table = coeff_recurrence(60, 50)
    with working(50):
        s20 = table.value(20).value * mpf(math.factorial(40))
        s60 = table.value(60).value * mpf(math.factorial(120))
        assert s20 < s60 < 1


def test_coefficient_table_routes():
    for route in ("recurrence", "direct", "bessel"):
        table = coefficient_table(4, 50, route=route)
        assert [e.route for e in table] == [route] * 4
        assert all(e.trunc_bound.value < mpf(10) ** -50 * e.value.value for e in table)


def test_table_value_refuses_an_index_outside_the_table():
    table = coefficient_table(5, 30)
    assert table.value(1) == table.entries[0].value and table.value(5) == table.entries[4].value
    for j in (0, -1, -5, 6):
        with pytest.raises(IndexError):
            table.value(j)


# --- the one enclosure and the one certificate rule ---------------------------

ROUTES = ("recurrence", "direct", "bessel")
SOUNDNESS_DIGITS = (30, 50, 100, 200)


@lru_cache(maxsize=None)
def besselj_reference(digits: int) -> tuple:
    """t_0..t_200 = pi^(1-j)/(2 j!) J_{j-1/2}(pi/2) by mpmath's besselj, at 3x the digits."""
    with mp.workdps(3 * digits):
        return (mpf(0),) + tuple(
            mp.pi ** (1 - j) / (2 * mp.factorial(j)) * mp.besselj(j - mpf(1) / 2, mp.pi / 2)
            for j in range(1, 201)
        )


@pytest.mark.parametrize("digits", SOUNDNESS_DIGITS)
def test_enclosures_contain_t_and_are_narrow(digits):
    ref = besselj_reference(digits)
    with mp.workdps(3 * digits):
        for j in range(1, 201):
            enc = t_enclosure(j, digits)
            assert enc.lo <= ref[j] <= enc.hi, j
            assert enc.width <= ref[j] * mpf(10) ** -(digits + 5), j


@lru_cache(maxsize=None)
def relative_series_reference() -> tuple:
    """t_0..t_200 by the direct series at 320 digits, stopped once a term is
    below 10^-330 of the running sum: an absolute stop (at 1e-700, say) would
    return about 0 for j >= 190, where t_j < 1e-700."""
    with mp.workdps(330):
        z, out = mp.pi ** 2 / 4, [mpf(0)]
        for j in range(1, 201):
            term = 1 / mp.factorial(2 * j)
            s, k = term, 0
            while abs(term) > abs(s) * mpf(10) ** -330:
                term *= -z * (j + k + 1) / ((k + 1) * (2 * j + 2 * k + 1) * (2 * j + 2 * k + 2))
                s += term
                k += 1
            out.append(s)
        return tuple(out)


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_table_enclosures_contain_t(digits):
    ref = relative_series_reference()
    encs = t_enclosures(200, digits)
    assert len(encs) == 200
    with mp.workdps(330):
        for j, enc in enumerate(encs, start=1):
            assert enc.lo <= ref[j] <= enc.hi, j
            assert enc.width <= ref[j] * mpf(10) ** -(digits + 5), j
        # short tables: seeds only (j_max <= 2), or one step
        for j_max in (1, 2, 3):
            assert all(e.lo <= ref[j] <= e.hi
                       for j, e in enumerate(t_enclosures(j_max, digits), start=1)), j_max


@pytest.mark.parametrize("digits", [30, 50, 100, 200])
def test_table_enclosures_are_no_wider_than_the_series(digits):
    for j_max in (1, 2, 3, 40, 200):
        for j, enc in enumerate(t_enclosures(j_max, digits), start=1):
            assert enc.width <= t_enclosure(j, digits).width, (j_max, j)


def test_table_enclosures_refuse_a_bad_index():
    with pytest.raises(IndexLimitError):
        t_enclosures(201, 30)
    with pytest.raises(ValueError):
        t_enclosures(0, 30)


@pytest.mark.parametrize("digits", SOUNDNESS_DIGITS)
def test_every_route_certificate_covers_t(digits):
    ref = besselj_reference(digits)
    for route in ROUTES:
        table = coefficient_table(200, digits, route=route)
        with mp.workdps(3 * digits):
            for entry in table:
                err = abs(entry.value.value - ref[entry.j])
                assert err <= entry.trunc_bound.value, (route, entry.j)


def test_kernel_encloses_at_low_bits():
    """At a few bits every rounding and the tail term are a large share of
    the enclosure, so one rounded the wrong way shows up as a miss."""
    ref = besselj_reference(30)
    with mp.workdps(90):
        for bits in range(4, 65):
            for j in range(1, 41):
                lo, hi = fixed_t_scaled(j, bits)
                assert lo <= ref[j] * math.factorial(2 * j) * 2 ** bits <= hi, (j, bits)
    with pytest.raises(ValueError):
        fixed_t_scaled(0, 64)


@pytest.mark.parametrize("route", ROUTES)
def test_nudged_route_value_is_refused(monkeypatch, route):
    # t_3 moved by 10^-(digits-3) relative: its certificate can no longer
    # stay below 10^-digits relative, and the table refuses it; every route
    # certifies its entries in order of j, so the third call is t_3's
    certified, calls = coeffs._certified, []

    def nudged(v, enc, digits):
        calls.append(v)
        if len(calls) == 3:
            with working(digits):
                v = v * (1 + mpf(10) ** -(digits - 3))
        return certified(v, enc, digits)

    monkeypatch.setattr(coeffs, "_certified", nudged)
    with pytest.raises(ValueError, match="coefficient 3 certificate"):
        coefficient_table(5, 50, route=route)


def test_table_refuses_a_bound_just_over_the_invariant():
    good = coeff_recurrence(3, 50)
    entry = good.entries[1]
    with working(50):
        over = entry.value.value * mpf(10) ** -50 * (1 + mpf(10) ** -10)
    bad = CoefficientEntry(entry.j, entry.value, entry.route, ExtReal(over, 50))
    with pytest.raises(ValueError, match="coefficient 2 certificate"):
        CoefficientTable(entries=(good.entries[0], bad, good.entries[2]), precision_digits=50)


# --- the Bessel ladder, the midpoint rule and the odd-part division ----------

@pytest.mark.parametrize("digits", [30, 50, 100, 151, 200])
def test_mid_is_the_midpoint_rounded_in_a_working_section(monkeypatch, digits):
    # every enclosure the direct and Bessel tables round, and the recurrence
    # table's enclosures: `_mid` rounds as `+enc.mid` under working(digits)
    mid, seen = coeffs._mid, []

    def recording(enc, d):
        seen.append(enc)
        return mid(enc, d)

    monkeypatch.setattr(coeffs, "_mid", recording)
    for route in ("direct", "bessel"):
        coefficient_table(120, digits, route=route)
    seen += [(e.lo._mpf_, e.hi._mpf_) for e in t_enclosures(120, digits)]
    assert len(seen) == 360
    for ends in seen:
        enc = IntervalValue._of(*ends)
        with working(digits):
            expected = +enc.mid
        assert mid(ends, digits).value._mpf_ == expected._mpf_


@pytest.mark.parametrize("digits", [30, 50, 100, 200])
def test_interval_from_fixed_divides_by_the_odd_part_bitwise(digits):
    # dividing by the odd part of den in integers and rounding once to bits bits,
    # then scaling by den's power of two, rounds each end exactly as one outward
    # mpf_div by den does
    def check(enc, bits, den):
        expected = [mpf_div(from_man_exp(v, -bits), from_int(den), bits, rnd)
                    for v, rnd in zip(enc, (round_floor, round_ceiling))]
        got = interval_from_fixed(enc, bits, den)
        assert [got.lo._mpf_, got.hi._mpf_] == expected, (enc, bits, den)

    bits = fixed_bits(digits)
    for j in range(1, 201):
        lo, hi = fixed_t_scaled(j, bits)
        for enc in ((lo, hi), (-hi, -lo), (0, hi)):
            check(enc, bits, math.factorial(2 * j))
    # seeded: numerators of 1 to bits + 40 bits of either sign, some exact
    # multiples of the odd part; odd parts of factorials, of up to 300 random
    # bits and small ones, times up to 2^40; bits from 53 to 1888
    rng = random.Random(f"odd-part/{digits}")
    for _ in range(2500):
        bits = rng.randint(53, 1888)
        odd = rng.choice((math.factorial(rng.randint(3, 400)), rng.randrange(3, 1000, 2),
                          rng.randrange(3, 1 << rng.randint(2, 300), 2)))
        odd >>= (odd & -odd).bit_length() - 1
        den = odd << rng.randint(0, 40)
        enc = []
        for _ in range(2):
            v = rng.getrandbits(rng.randint(1, bits + 40))
            if rng.random() < 0.2:
                v = odd * rng.getrandbits(rng.randint(1, bits))
            enc.append(-v if rng.random() < 0.5 else v)
        check(sorted(enc), bits, den)


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_bessel_ladder_encloses_t(digits):
    ref = besselj_reference(digits)
    encs = [IntervalValue._of(*e) for e in coeffs._bessel(range(1, 201), digits)]
    with mp.workdps(3 * digits):
        for j, enc in enumerate(encs, start=1):
            assert enc.lo <= ref[j] <= enc.hi, j
            assert enc.width <= ref[j] * mpf(10) ** -(digits + 5), j


def test_ladder_encloses_its_first_terms_at_low_precision():
    """At a few bits each rounding is a large share of the enclosure, so an
    end rounded the wrong way, or taken from the wrong end of pi, shows up."""
    with mp.workdps(60):
        for prec in range(4, 80):
            pi = mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)
            for n in (1, 3, 5, 7, 9, 11, 13):
                h = mpf_shift(from_int(n), -3)
                for j, ends in enumerate(coeffs._ladder((h, h), pi, 12, prec, False)):
                    enc = IntervalValue._of(*ends)
                    exact = (mpf(n) / 8) ** (j - mpf(1) / 2) / mp.gamma(j + mpf(1) / 2)
                    assert enc.lo <= exact <= enc.hi, (prec, n, j)
            # weighted, with the point 3 for pi: against the ladder's recurrences
            for n in (1, 3, 5, 7):
                h, a, b = mpf(n) / 8, 1 / mp.sqrt(3 * mpf(n) / 8), mpf(1) / 2
                three, h_end = from_int(3), mpf_shift(from_int(n), -3)
                encs = [IntervalValue._of(*e)
                        for e in coeffs._ladder((h_end, h_end), (three, three), 30, prec, True)]
                for j, enc in enumerate(encs[1:], start=1):
                    a = a * h / (j - mpf(1) / 2)
                    b = b / (3 * j) if j > 1 else b
                    assert enc.lo <= a * b <= enc.hi, (prec, n, j)


@pytest.mark.parametrize("digits", [30, 100])
def test_coeff_bessel_is_the_table_value(digits):
    table = coefficient_table(200, digits, route="bessel")
    for j in (*range(1, 41), 99, 200):
        assert coeff_bessel(j, digits).value._mpf_ == table.value(j).value._mpf_, j
