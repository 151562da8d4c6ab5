"""Outward-rounded enclosures: one fixed-point kernel on Python ints.

Every enclosure in the library is computed on plain Python ints or with
mpmath's directed-rounding primitives (`mpf_mul`, `mpf_div`, ..., with
round_floor for a lower end and round_ceiling for an upper one), so each
result encloses the exact value; precision only affects tightness, never
containment.  `IntervalValue` is the public form of an enclosure: two
exact, finite mpf ends, its midpoint, width and membership test.  Inside
a computation an enclosure travels as its raw ends, a pair of libmp
tuples (`ends_from_fixed`, `series_ends`), and becomes an `IntervalValue`
only where a public function returns one.

Every directed rounding of an exact value is one integer step, `_rounded`.
Its result is unique, so `ends_from_fixed` gives an end bit for bit as one
outward `mpf_div` does, and `approx.error_bound` its bound as `mpf_mul`.
An exact value reaches a double by one rule, `to_double`: num/den rounded
once, to nearest by int / int, or down or up by `_rounded`, saturating or
overflowing past the doubles as IEEE 754 directs; `nearest_double` is the
double that a whole enclosure rounds to by that int / int, if there is one.

The fixed-point kernel encloses pi (`fixed_pi`, by Machin's formula),
the weights t_j (2j)!, sin and cos of pi x, and polynomials over dyadic
tiles.  The weights, sin/cos, T_j(z) and J_{j-1/2}(x) are one
alternating series, each term the last times z/((2k+a)(2k+b)), summed by
the one loop `fixed_series`, which gives the first partial sums or the
enclosure of the whole sum; its terms may grow before they fall.
`fixed_t_scaled` and `fixed_sin_cos_pi` only set up its arguments
(`_fixed_sin_cos_args`).  `series_ends` scales its first term to one
unit and multiplies the sum by the first term's mpf enclosure, so a
first term far below any fixed-point unit keeps its relative precision.
`fixed_horner` is the one Horner loop on enclosures.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp, mpf
from mpmath.libmp import (dps_to_prec, from_float, from_int, from_man_exp, fzero, mpf_add, mpf_lt,
                          mpf_mul, mpf_shift, mpf_sub, round_ceiling, round_floor,
                          round_nearest, to_float)

from .precision import DEFAULT_DIGITS, GUARD_DIGITS, PRECISION_LOCK


@contextmanager
def interval_dps(digits: int):
    """Temporarily set mpmath's interval context's decimal precision.

    Nothing in the library calls it: it stays only for the benchmark's
    tracer, which counts its calls, until ROADMAP item 8 replaces that.
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


def _check_ends(lo: tuple, hi: tuple) -> None:
    # ValueError unless the raw mpf ends are finite and lo <= hi
    for _, man, exp, _ in (lo, hi):
        if man == 0 and exp != 0:  # mpmath's inf, -inf and nan
            raise ValueError("interval endpoints must be finite, "
                             f"got [{mp.make_mpf(lo)}, {mp.make_mpf(hi)}]")
    if mpf_lt(hi, lo):
        raise ValueError(f"invalid interval endpoints [{mp.make_mpf(lo)}, {mp.make_mpf(hi)}]")


@dataclass(frozen=True)
class IntervalValue:
    """A closed enclosure [lo, hi]; lo and hi are exact, finite mpf ends, never rounded."""

    lo: mpf
    hi: mpf = None  # None: the point lo

    def __post_init__(self):
        lo = _exact(self.lo)
        hi = lo if self.hi is None else _exact(self.hi)
        _check_ends(lo._mpf_, hi._mpf_)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _of(cls, lo: tuple, hi: tuple) -> "IntervalValue":
        """From raw mpf ends, checked as `__post_init__` checks them."""
        _check_ends(lo, hi)
        enc = object.__new__(cls)
        object.__setattr__(enc, "lo", mp.make_mpf(lo))
        object.__setattr__(enc, "hi", mp.make_mpf(hi))
        return enc

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
    """pi rounded down and up to `fixed_bits(digits)` significant bits: `fixed_pi`'s ends."""
    bits = fixed_bits(digits) - 2  # pi < 4: two integer bits
    return IntervalValue._of(*ends_from_fixed(fixed_pi(bits), bits))


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
    """(p, q) with q > 0 and x == p/q exactly, for a Fraction, an mpf or a raw mpf tuple x."""
    if type(x) is not tuple:
        if isinstance(x, Fraction):
            return x.numerator, x.denominator
        if not isinstance(x, mpf):
            raise TypeError(f"cannot take an exact ratio of {type(x).__name__}")
        x = x._mpf_  # not mpf(x): that would round to the context
    sign, man, exp, _ = x
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


def to_double(num: int, den: int, toward: int = 0) -> float:
    """The rational num/den (den > 0) rounded once to a double: to nearest, ties to even
    (toward=0), down (toward=-1) or up (toward=1).

    To nearest, CPython's int / int, correctly rounded; OverflowError past the
    doubles.  Down or up, `_rounded` to 53 bits on the grid of 2**-1074, then
    `math.ldexp`; past the largest double, rounded toward zero it saturates at
    +-sys.float_info.max, away from zero it is +-inf, as IEEE 754 directs.  A
    negative value rounded up to zero is -0.0.
    """
    if not toward:
        return num / den
    _, man, exp, bc = _rounded(num, den, 0, 53, toward > 0, -1074)
    if bc + exp > 1024:  # man * 2**exp >= 2**1024
        x = math.inf if (num > 0) == (toward > 0) else sys.float_info.max
    else:
        x = math.ldexp(man, exp)
    return -x if num < 0 else x


def nearest_double(lo: tuple[int, int], hi: tuple[int, int]) -> float | None:
    """The double nearest to every value in [lo, hi], given as ratios (num, den), or None
    if the ends round to different doubles; -0.0, from a negative end, differs from 0.0."""
    a = lo[0] / lo[1]
    return a if a == hi[0] / hi[1] and (lo[0] < 0) == (hi[0] < 0) else None


def fixed_from_ends(ends: tuple[tuple, tuple], bits: int) -> tuple[int, int]:
    """The fixed-point enclosure of raw mpf ends (lo, hi), rounded outward."""
    return _scaled(ends[0], bits, False), _scaled(ends[1], bits, True)


def fixed_from_interval(enc: IntervalValue, bits: int) -> tuple[int, int]:
    """The fixed-point enclosure of an IntervalValue, rounded outward."""
    return fixed_from_ends((enc.lo._mpf_, enc.hi._mpf_), bits)


def _rounded(num: int, den: int, exp: int, bits: int, up: bool, low: int | None = None) -> tuple:
    """The raw mpf, normalized as libmp's are, of num/den * 2**exp (den > 0) rounded once,
    down or up (`up`), to at most `bits` significant bits and, given `low`, to a multiple
    of 2**low.  A power-of-two den only moves the exponent.  Any other den's odd part
    divides num, floor (or ceiling), at a scale where the quotient has more than `bits`
    bits; rounding that the same way composes with the division.
    """
    if not den & (den - 1):
        exp -= den.bit_length() - 1
    else:
        twos = (den & -den).bit_length() - 1
        odd = den >> twos
        shift = max(0, bits + 1 + odd.bit_length() - num.bit_length())  # |quotient| > 2**bits
        num = -((-num << shift) // odd) if up else (num << shift) // odd
        exp -= twos + shift
    cut = num.bit_length() - bits
    if low is not None and low - exp > cut:
        cut = low - exp
    if cut > 0:
        num, exp = -(-num >> cut) if up else num >> cut, exp + cut
    if not num:
        return fzero
    zeros = (num & -num).bit_length() - 1
    sign = 1 if num < 0 else 0
    man = (-num if sign else num) >> zeros
    return sign, man, exp + zeros, man.bit_length()


def ends_from_fixed(enc: tuple[int, int], bits: int, den: int = 1) -> tuple[tuple, tuple]:
    """Raw mpf ends of enc / den (den > 0), each rounded outward to `bits` bits by one
    `_rounded` step, bit for bit as one `mpf_div` by den rounds it, since a directed
    rounding has one correct result (exact when den is a power of two)."""
    if not den & (den - 1):
        exp = -bits - den.bit_length() + 1
        return from_man_exp(enc[0], exp), from_man_exp(enc[1], exp)
    return _rounded(enc[0], den, -bits, bits, False), _rounded(enc[1], den, -bits, bits, True)


def interval_from_fixed(enc: tuple[int, int], bits: int, den: int = 1) -> IntervalValue:
    """The IntervalValue of enc / den (den > 0): `ends_from_fixed`'s ends."""
    return IntervalValue._of(*ends_from_fixed(enc, bits, den))


_pi_floor = 0, 3  # (bits, floor(pi * 2**bits)) at the most bits asked for so far


def fixed_pi(bits: int) -> tuple[int, int]:
    """floor and ceiling of pi * 2**bits (bits >= 0), by Machin's formula in ints.

    pi = 16 arctan(1/5) - 4 arctan(1/239) at bits + guard bits, each term floored: k terms
    of each and their tails are within 16(k_5+1) + 4(k_239+1) units, and the guard doubles
    until that range shifts to one floor (pi is irrational: the ceiling is one more).  The
    floor at the most bits asked for so far is kept, read in one load, shifted right.
    """
    global _pi_floor
    top, floor = _pi_floor
    guard = bits.bit_length() + 8
    while top < bits:
        s = err = 0
        for w, n in ((16, 5), (-4, 239)):
            power, k = (1 << bits + guard) // n, 0
            while power:
                s += w * (power // (2 * k + 1))
                power, w, k = power // (n * n), -w, k + 1
            err += abs(w) * (k + 1)
        if (s - err) >> guard == (s + err) >> guard:
            top, floor = _pi_floor = bits, (s - err) >> guard
        guard *= 2
    floor >>= top - bits
    return floor, floor + 1


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


def series_ends(first: tuple[tuple, tuple], z: tuple[tuple, tuple], a: int, b: int, prec: int,
                n: int | None = None) -> tuple[tuple, tuple]:
    """Raw mpf ends of first * sum_k (-1)^k v_k, v_0 = 1, v_{k+1} = v_k z/((2k+a)(2k+b)).

    `first` and `z` are non-negative raw ends (lo, hi).  The scaled sum runs
    on `fixed_series` from one unit, so a tiny first term loses nothing, at
    `prec` fractional bits plus the bits its terms grow by before they fall,
    or, with n, by term n; it is then multiplied by `first`, each end
    rounded outward at `prec` bits.  With n, the sum of the terms 0..n-1 only.
    """
    zf, growth, k = to_float(z[1], rnd=round_nearest), 0.0, 0
    while k != n and (ratio := zf / (d := (2 * k + a) * (2 * k + b))) > 1:
        # past the doubles, log2 z is read off the raw mantissa and exponent
        growth += (math.log2(ratio) if ratio < math.inf
                   else math.log2(z[1][1]) + z[1][2] - math.log2(d))
        k += 1
    bits = prec + math.ceil(growth)
    scaled = fixed_series((1 << bits, 1 << bits), fixed_from_ends(z, bits), a, b, bits, n)
    s_lo, s_hi = scaled if n is None else scaled[0][n - 1]
    f_lo, f_hi = first
    # the product's ends: the lower end of the sum times the factor that
    # makes it least, the upper end times the one that makes it most
    lo = mpf_mul(f_hi if s_lo < 0 else f_lo, from_man_exp(s_lo, -bits), prec, round_floor)
    hi = mpf_mul(f_hi if s_hi > 0 else f_lo, from_man_exp(s_hi, -bits), prec, round_ceiling)
    return lo, hi


def _fixed_sin_cos_args(p: int, q: int, bits: int, odd: bool):
    # (first term, t^2, a, b) of the Maclaurin series of sin t (odd) or cos t, t = pi p/q >= 0
    pi_lo, pi_hi = fixed_pi(bits)
    t_lo, t_hi = pi_lo * p // q, -(-pi_hi * p // q)
    t2 = t_lo * t_lo >> bits, -(-(t_hi * t_hi) >> bits)
    return ((t_lo, t_hi), t2, 2, 3) if odd else ((1 << bits, 1 << bits), t2, 1, 2)


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
