"""Outward-rounded enclosures: one fixed-point kernel on Python ints.

Every enclosure in the library is computed on plain Python ints or with
mpmath's directed-rounding primitives (`mpf_pi`, `mpf_mul`, `mpf_div`,
... with round_floor for a lower end and round_ceiling for an upper
one), so each result encloses the exact value; precision only affects
tightness, never containment.  `IntervalValue` is the public form of an
enclosure: two exact mpf ends, its midpoint, width and membership test.

The fixed-point kernel encloses pi, the weights t_j (2j)!, the y-map,
the partial sums sum c_j y^j, the Maclaurin partial sums of
sin/cos(pi x) and polynomials over dyadic tiles.  The weights, sin/cos,
T_j(z) and J_{j-1/2}(x) are one alternating series, each term the last
times z/((2k+a)(2k+b)), summed by the one loop `fixed_series`; its terms
may grow before they fall.  `fixed_t_scaled`, `fixed_maclaurin` and
`fixed_sin_cos_pi` only set up its arguments.  `fixed_sin_maclaurin` is
one pass that gives both the first Maclaurin partial sums of sin(pi x)
and the enclosure of the whole sum: it reads the whole sum's stop off
the terms already summed, or sums on from the last of them, the rest of
a series from term n being the same series with a and b raised by 2n.
`series_interval` scales its first term to one unit and multiplies the
sum by the first term's mpf enclosure, so a first term far below any
fixed-point unit keeps its relative precision.  `fixed_horner` is the
one Horner loop on enclosures.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import iv, mp, mpf
from mpmath.libmp import (dps_to_prec, from_float, from_int, from_man_exp, mpf_add, mpf_div,
                          mpf_mul, mpf_pi, mpf_shift, mpf_sub, round_ceiling, round_floor)

from .precision import DEFAULT_DIGITS, GUARD_DIGITS, PRECISION_LOCK


@contextmanager
def interval_dps(digits: int):
    """Temporarily set mpmath's interval context's decimal precision.

    Nothing in the library calls it: it stays only for the benchmark's
    tracer, which counts its calls, until ROADMAP item 6 replaces that.
    """
    with PRECISION_LOCK:
        old = iv.dps
        iv.dps = digits + GUARD_DIGITS
        try:
            yield iv
        finally:
            iv.dps = old


def _exact(x) -> mpf:
    """The mpf equal to an int, a float or an mpf, exactly."""
    if isinstance(x, mpf):
        return x
    if isinstance(x, (int, float)):
        return mp.make_mpf(from_float(x) if isinstance(x, float) else from_int(x))
    raise TypeError(f"cannot take {type(x).__name__} as an exact interval end; "
                    "enclose a rational p/q with interval_from_fixed(fixed_ratio(p, q, bits), bits)")


@dataclass(frozen=True)
class IntervalValue:
    """A closed enclosure [lo, hi]; lo and hi are exact mpf ends, never rounded."""

    lo: mpf
    hi: mpf = None  # None: the point lo

    def __post_init__(self):
        object.__setattr__(self, "lo", _exact(self.lo))
        object.__setattr__(self, "hi", self.lo if self.hi is None else _exact(self.hi))
        if self.hi < self.lo:
            raise ValueError(f"invalid interval endpoints [{self.lo}, {self.hi}]")

    @classmethod
    def _of(cls, lo: tuple, hi: tuple) -> "IntervalValue":
        """From raw mpf ends."""
        return cls(mp.make_mpf(lo), mp.make_mpf(hi))

    @property
    def mid(self) -> mpf:
        return mp.make_mpf(mpf_shift(mpf_add(self.lo._mpf_, self.hi._mpf_), -1))  # exact

    @property
    def width(self) -> mpf:
        return mp.make_mpf(mpf_sub(self.hi._mpf_, self.lo._mpf_, 64, round_ceiling))

    def contains(self, x) -> bool:
        """Whether the int, float, mpf or Fraction x lies in [lo, hi], compared exactly."""
        if isinstance(x, Fraction):
            return Fraction(*exact_ratio(self.lo)) <= x <= Fraction(*exact_ratio(self.hi))
        return self.lo <= _exact(x) <= self.hi


def pi_interval(digits: int = DEFAULT_DIGITS) -> IntervalValue:
    """pi enclosed by `mpf_pi` rounded down and up at `fixed_bits(digits)` bits."""
    bits = fixed_bits(digits)
    return IntervalValue._of(mpf_pi(bits, round_floor), mpf_pi(bits, round_ceiling))


# --- fixed-point enclosures -----------------------------------------------
#
# A fixed-point enclosure at `bits` fractional bits is a pair of ints
# (lo, hi) with lo / 2**bits <= value <= hi / 2**bits.  Every product is
# rounded down for lo and up for hi (floor and ceiling shifts), so a pair
# always encloses the exact value; sums are exact.  mpmath's libelefun
# sums its series over Python ints the same way.  Inputs x are exact
# rationals p/q, so the y-map and pi*x round once each.

def fixed_bits(digits: int) -> int:
    """Fractional bits matching `digits` decimal digits plus the guard digits."""
    return dps_to_prec(digits + GUARD_DIGITS)


def exact_ratio(x) -> tuple[int, int]:
    """(p, q) with q > 0 and x == p/q exactly, for a Fraction or mpf x."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if not isinstance(x, mpf):
        raise TypeError(f"cannot take an exact ratio of {type(x).__name__}")
    sign, man, exp, _ = x._mpf_  # not mpf(x): that would round to the context
    if man == 0 and exp != 0:
        raise ValueError("x must be finite")
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _scaled(v: tuple, bits: int, up: bool) -> int:
    # floor (or ceiling) of the raw mpf v times 2**bits, exactly
    sign, man, exp, _ = v
    man = -man if sign else man
    shift = exp + bits
    if shift >= 0:
        return man << shift
    return -((-man) >> -shift) if up else man >> -shift


def positive_double(v, up: bool = False) -> float:
    """The raw mpf v > 0 rounded once to a double: to nearest (ties to even), or up.

    Below the normal range the last bit kept is 2**-1074, so subnormal
    results are rounded once and exactly too (mpmath's `to_float` rounds
    to 53 bits first there).
    """
    _, man, exp, bc = v
    lsb = max(exp + bc - 53, -1074)
    r = lsb - exp
    if r <= 0:
        return math.ldexp(man, exp)
    n, rem = man >> r, man & ((1 << r) - 1)
    if up:
        n += rem > 0
    else:
        half = 1 << (r - 1)
        n += rem > half or (rem == half and n & 1)
    return math.ldexp(n, lsb)


def fixed_from_interval(enc: IntervalValue, bits: int) -> tuple[int, int]:
    """The fixed-point enclosure of an IntervalValue, rounded outward."""
    return _scaled(enc.lo._mpf_, bits, False), _scaled(enc.hi._mpf_, bits, True)


def interval_from_fixed(enc: tuple[int, int], bits: int, den: int = 1) -> IntervalValue:
    """The IntervalValue of enc / den (den > 0): each end divided once by den's odd part,
    rounded outward at `bits` bits, and scaled exactly by den's power of two, which
    rounds as one division by den does (exact when den is a power of two)."""
    twos = (den & -den).bit_length() - 1
    lo, hi = from_man_exp(enc[0], -bits - twos), from_man_exp(enc[1], -bits - twos)
    den >>= twos
    if den != 1:
        d = from_int(den)
        lo, hi = mpf_div(lo, d, bits, round_floor), mpf_div(hi, d, bits, round_ceiling)
    return IntervalValue._of(lo, hi)


@lru_cache(maxsize=16)
def fixed_pi(bits: int) -> tuple[int, int]:
    """floor and ceiling of pi * 2**bits, from `mpf_pi` rounded down and up at bits + 2 bits."""
    return (_scaled(mpf_pi(bits + 2, round_floor), bits, False),
            _scaled(mpf_pi(bits + 2, round_ceiling), bits, True))


def fixed_ratio(num: int, den: int, bits: int) -> tuple[int, int]:
    """The enclosure of the rational num/den (den > 0), rounded once."""
    return (num << bits) // den, -((-num << bits) // den)


def fixed_mul(a, b, bits: int) -> tuple[int, int]:
    """The enclosure of the product of two enclosures of any sign, rounded outward."""
    if b[0] >= 0:  # then each end of the product is one product of ends
        lo = a[0] * (b[0] if a[0] >= 0 else b[1])
        hi = a[1] * (b[1] if a[1] >= 0 else b[0])
    else:
        prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
        lo, hi = min(prods), max(prods)
    return lo >> bits, -(-hi >> bits)


def fixed_horner(coeffs, x, bits: int) -> tuple[int, int]:
    """sum_n coeffs[n] x^n by Horner's rule, for enclosures coeffs (constant term first) and x.

    Each step is `fixed_mul` of the sum so far by x, then the coefficient
    added; for x >= 0 the product's ends are written out in the loop.
    """
    lo = hi = 0
    x_lo, x_hi = x
    if x_lo < 0:
        for c_lo, c_hi in reversed(coeffs):
            lo, hi = fixed_mul((lo, hi), x, bits)
            lo, hi = lo + c_lo, hi + c_hi
        return lo, hi
    # fixed_mul's branch for b >= 0: each end is one product of ends
    for c_lo, c_hi in reversed(coeffs):
        lo = (lo * (x_lo if lo >= 0 else x_hi) >> bits) + c_lo
        hi = c_hi - (-(hi * (x_hi if hi >= 0 else x_lo)) >> bits)
    return lo, hi


def poly_eval_centered(coeffs, deriv_coeffs, lo: float, hi: float, bits: int) -> tuple[int, int]:
    """Enclosure of p over the tile [lo, hi]: plain Horner intersected with the centered form.

    p and p' are given as enclosures at `bits` fractional bits; the ends
    of a dyadic tile are exact there.  The centered form p(mid) + p'(X) *
    (X - mid) is much tighter on narrow tiles near extrema, where plain
    Horner's dependency blow-up dominates.
    """
    x = fixed_ratio(*lo.as_integer_ratio(), bits)[0], fixed_ratio(*hi.as_integer_ratio(), bits)[1]
    mid = (x[0] + x[1]) >> 1  # any point of X serves; this is its midpoint when exact
    plain = fixed_horner(coeffs, x, bits)
    at_mid = fixed_horner(coeffs, (mid, mid), bits)
    slope = fixed_mul(fixed_horner(deriv_coeffs, x, bits), (x[0] - mid, x[1] - mid), bits)
    return max(plain[0], at_mid[0] + slope[0]), min(plain[1], at_mid[1] + slope[1])


def y_ratio(p: int, q: int, cos: bool) -> tuple[int, int]:
    """The shifted variable at x = p/q as an exact ratio (num, den), den > 0.

    y = 1/4 - x^2 = (q^2 - 4p^2)/(4q^2) (cos) or x(1 - x) = p(q - p)/q^2
    (sin); den is a power of two whenever q is.
    """
    if cos:
        return q * q - 4 * p * p, 4 * q * q
    return p * (q - p), q * q


def fixed_y(p: int, q: int, bits: int, cos: bool) -> tuple[int, int]:
    """The shifted variable at x = p/q, formed exactly and rounded once."""
    return fixed_ratio(*y_ratio(p, q, cos), bits)


def fixed_partial_sums(coeffs, y, bits: int):
    """Enclosures of the terms c_j y^j and of the partial sums sum_{i<=j} c_i y^i.

    `coeffs` holds fixed-point enclosures of c_1, c_2, ...; they and `y`
    must be non-negative, as the expansion's are.  Returns (sums, terms),
    both indexed from j = 1.
    """
    y_lo, y_hi = y
    if y_lo < 0 or any(c_lo < 0 for c_lo, _ in coeffs):
        raise ValueError("y and the coefficients must be non-negative")
    pow_lo = pow_hi = 1 << bits
    s_lo = s_hi = 0
    sums, terms = [], []
    for c_lo, c_hi in coeffs:
        pow_lo = pow_lo * y_lo >> bits
        pow_hi = -(-(pow_hi * y_hi) >> bits)
        t_lo = c_lo * pow_lo >> bits
        t_hi = -(-(c_hi * pow_hi) >> bits)
        s_lo += t_lo
        s_hi += t_hi
        terms.append((t_lo, t_hi))
        sums.append((s_lo, s_hi))
    return sums, terms


def fixed_series(first, z, a: int, b: int, bits: int, n: int | None = None):
    """The alternating series sum_k (-1)^k u_k, u_0 = first, u_{k+1} = u_k z/((2k+a)(2k+b)).

    `first` and `z` are non-negative fixed-point enclosures.  Each step
    rounds as (u z >> bits) // d, floor for the lower end and ceiling for
    the upper, so every term's enclosure holds the exact term.

    With n, returns (sums, mags): sums[k] encloses the sum of the terms
    0..k, for k < n, and mags[k] the magnitude u_k, for k <= n.  Without
    n, returns the enclosure of the whole sum: the terms may grow while
    the ratio z/((2k+a)(2k+b)) is 1 or more, and it stops at the first
    term below one unit whose ratio is below 1, that is, whose integer
    d = (2k+a)(2k+b) exceeds z's upper end in whole units (z_hi >> bits).
    The ratios decrease in k, so the terms decrease from there on, and the
    alternating tail lies between 0 and that term.  The loop takes an even
    and an odd term per pass.
    """
    u_lo, u_hi = first
    z_lo, z_hi = z
    s_lo = s_hi = 0
    if n is not None:
        sums, mags = [], [(u_lo, u_hi)]
        for k in range(n):
            if k % 2:
                s_lo, s_hi = s_lo - u_hi, s_hi - u_lo
            else:
                s_lo, s_hi = s_lo + u_lo, s_hi + u_hi
            d = (2 * k + a) * (2 * k + b)
            u_lo, u_hi = (u_lo * z_lo >> bits) // d, -((-(u_hi * z_hi) >> bits) // d)
            sums.append((s_lo, s_hi))
            mags.append((u_lo, u_hi))
        return sums, mags
    units = z_hi >> bits  # z_hi < d << bits exactly when units < d, d an integer
    k, d = 0, a * b
    while u_hi > 1 or units >= d:  # term k, even, is added
        s_lo, s_hi = s_lo + u_lo, s_hi + u_hi
        u_lo, u_hi = (u_lo * z_lo >> bits) // d, -((-(u_hi * z_hi) >> bits) // d)
        d = (2 * k + 2 + a) * (2 * k + 2 + b)
        if u_hi <= 1 and units < d:
            return s_lo - u_hi, s_hi  # the tail from the odd term k + 1 is negative
        s_lo, s_hi = s_lo - u_hi, s_hi - u_lo
        u_lo, u_hi = (u_lo * z_lo >> bits) // d, -((-(u_hi * z_hi) >> bits) // d)
        k += 2
        d = (2 * k + a) * (2 * k + b)
    return s_lo, s_hi + u_hi  # the tail from the even term k is positive


def series_interval(first: IntervalValue, z: IntervalValue, a: int, b: int, prec: int,
                    n: int | None = None) -> IntervalValue:
    """Enclosure of first * sum_k (-1)^k v_k, v_0 = 1, v_{k+1} = v_k z/((2k+a)(2k+b)).

    `first` and `z` are non-negative.  The scaled sum runs on `fixed_series`
    from one unit, so a tiny first term loses nothing, at `prec` fractional
    bits plus the bits its terms grow by before they fall; it is then
    multiplied by `first`, each end rounded outward at `prec` bits.  With n,
    the sum of the terms 0..n-1 only.
    """
    zf, growth, k = float(z.hi), 0.0, 0
    while (ratio := zf / ((2 * k + a) * (2 * k + b))) > 1:
        growth += math.log2(ratio)
        k += 1
    bits = prec + math.ceil(growth)
    scaled = fixed_series((1 << bits, 1 << bits), fixed_from_interval(z, bits), a, b, bits, n)
    s_lo, s_hi = scaled if n is None else scaled[0][n - 1]
    f_lo, f_hi = first.lo._mpf_, first.hi._mpf_
    # the product's ends: the lower end of the sum times the factor that
    # makes it least, the upper end times the one that makes it most
    lo = mpf_mul(f_hi if s_lo < 0 else f_lo, from_man_exp(s_lo, -bits), prec, round_floor)
    hi = mpf_mul(f_hi if s_hi > 0 else f_lo, from_man_exp(s_hi, -bits), prec, round_ceiling)
    return IntervalValue._of(lo, hi)


def _fixed_sin_cos_args(p: int, q: int, bits: int, odd: bool):
    # (first term, t^2, a, b) of the Maclaurin series of sin t (odd) or cos t, t = pi p/q >= 0
    pi_lo, pi_hi = fixed_pi(bits)
    t_lo, t_hi = pi_lo * p // q, -(-pi_hi * p // q)
    t2 = t_lo * t_lo >> bits, -(-(t_hi * t_hi) >> bits)
    return ((t_lo, t_hi), t2, 2, 3) if odd else ((1 << bits, 1 << bits), t2, 1, 2)


def fixed_maclaurin(p: int, q: int, n: int, bits: int, odd: bool = True):
    """Maclaurin partial sums of sin(pi x) (odd) or cos(pi x) at x = p/q >= 0.

    Returns (sums, mags): sums[k] encloses S_{k+1}, the sum of the terms
    0..k, for k < n, and mags[k] the magnitude of term k (its sign is
    (-1)^k), for k <= n.
    """
    if p < 0:
        raise ValueError("the series are summed for x >= 0")
    return fixed_series(*_fixed_sin_cos_args(p, q, bits, odd), bits, n)


def fixed_sin_maclaurin(p: int, q: int, n: int, bits: int):
    """One pass down sin(pi x)'s Maclaurin series at x = p/q >= 0: (sums, mags, sine).

    sums and mags are `fixed_maclaurin(p, q, n, bits)`'s.  sine encloses
    sin(pi x): the series stopped, and its tail bounded, by `fixed_series`'s
    rule for the whole sum, read off the n terms already summed when it
    stops among them, and otherwise summed on from term n by `fixed_series`
    (the terms from n are its series with a + 2n and b + 2n).  Either way
    it is bit for bit `fixed_series`'s whole sum, so for x <= 1/4, where
    `fixed_sin_cos_pi` reduces nothing, it is that function's enclosure.
    """
    if p < 0:
        raise ValueError("the series are summed for x >= 0")
    first, z, a, b = _fixed_sin_cos_args(p, q, bits, True)
    sums, mags = fixed_series(first, z, a, b, bits, n)
    units = z[1] >> bits
    for k, (_, u_hi) in enumerate(mags):
        if u_hi <= 1 and units < (2 * k + a) * (2 * k + b):  # fixed_series' stop at term k
            s_lo, s_hi = sums[k - 1] if k else (0, 0)
            return sums, mags, (s_lo, s_hi + u_hi) if k % 2 == 0 else (s_lo - u_hi, s_hi)
    s_lo, s_hi = sums[n - 1] if n else (0, 0)
    t_lo, t_hi = fixed_series(mags[n], z, a + 2 * n, b + 2 * n, bits)
    return sums, mags, (s_lo + t_lo, s_hi + t_hi) if n % 2 == 0 else (s_lo - t_hi, s_hi - t_lo)


def fixed_t_scaled(j: int, bits: int) -> tuple[int, int]:
    """Enclosure of s_j = t_j (2j)! = sum_k (-z)^k binom(j+k, j) (2j)!/(2j+2k)!, z = pi^2/4.

    The term ratio z/((2k+2)(2k+2j+1)) is below 1 from k = 0, so
    `fixed_series` encloses the sum, tail included.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    z = _fixed_sin_cos_args(1, 2, bits, True)[1]  # (pi/2)^2
    return fixed_series((1 << bits, 1 << bits), z, 2, 2 * j + 1, bits)


def fixed_sin_cos_pi(p: int, q: int, bits: int, cos: bool = False) -> tuple[int, int]:
    """Enclosure of sin(pi x) for 0 <= x <= 1, or of cos(pi x) for |x| <= 1/2, at x = p/q.

    The argument is reduced exactly to u in [0, 1/4], using
    sin(pi x) = sin(pi (1 - x)) and sin/cos(pi x) = cos/sin(pi (1/2 - x)).
    Then t = pi u < 1, so the series' terms decrease from the first and
    `fixed_series` encloses the Maclaurin sum, tail included.
    """
    if cos:
        p = abs(p)
        if 2 * p > q:
            raise ValueError("cos(pi x) is enclosed for |x| <= 1/2")
    else:
        if not 0 <= p <= q:
            raise ValueError("sin(pi x) is enclosed for 0 <= x <= 1")
        p = min(p, q - p)
    odd = not cos
    if 4 * p > q:
        p, q, odd = q - 2 * p, 2 * q, not odd
    return fixed_series(*_fixed_sin_cos_args(p, q, bits, odd), bits)
