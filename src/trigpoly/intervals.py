"""Rigorous interval arithmetic and enclosure-polynomial helpers.

IntervalValue wraps mpmath's interval type, which rounds outward at the
interval context's working precision, so every operation returns an
enclosure of the exact result.  Precision only affects tightness, never
containment.

The fixed-point kernel at the end serves the coefficient tables and the
grid checks: it encloses the weights t_j (2j)!, the y-map, the partial
sums sum c_j y^j and the Maclaurin partial sums of sin/cos(pi x) with
plain Python ints, which is much cheaper than mpf objects at the same
precision.  The weights and sin/cos are one alternating series, each
term the last times z/((2k+a)(2k+b)), summed by the one loop
`fixed_series`; `fixed_t_scaled`, `fixed_maclaurin` and
`fixed_sin_cos_pi` only set up its arguments.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from mpmath import iv, mp, mpf
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, mpf_add, mpf_div, mpf_shift,
                          mpf_sub, prec_to_dps, round_ceiling, round_floor)

from .precision import DEFAULT_DIGITS, GUARD_DIGITS, PRECISION_LOCK


@contextmanager
def interval_dps(digits: int):
    """Temporarily set the interval context's decimal precision."""
    with PRECISION_LOCK:
        old = iv.dps
        iv.dps = digits + GUARD_DIGITS
        try:
            yield iv
        finally:
            iv.dps = old


def _coerce(x):
    if isinstance(x, IntervalValue):
        return x._iv
    if isinstance(x, Fraction):
        # exact integer endpoints, one outward-rounded division
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    if isinstance(x, (int, float, mpf, str)):
        return iv.mpf(x)
    raise TypeError(f"cannot build an interval from {type(x).__name__}")


class IntervalValue:
    """A closed enclosure [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("_iv",)

    def __init__(self, lo, hi=None):
        if hi is None:
            self._iv = _coerce(lo)
        else:
            lo_iv, hi_iv = _coerce(lo), _coerce(hi)
            if mp.make_mpf(lo_iv._mpi_[0]) > mp.make_mpf(hi_iv._mpi_[1]):
                raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
            self._iv = iv.mpf([lo_iv.a, hi_iv.b])

    @classmethod
    def _wrap(cls, ivmpf) -> "IntervalValue":
        out = cls.__new__(cls)
        out._iv = ivmpf
        return out

    # endpoints are returned exactly (no rounding at the ambient precision)
    @property
    def lo(self) -> mpf:
        return mp.make_mpf(self._iv._mpi_[0])

    @property
    def hi(self) -> mpf:
        return mp.make_mpf(self._iv._mpi_[1])

    @property
    def mid(self) -> mpf:
        a, b = self._iv._mpi_
        return mp.make_mpf(mpf_shift(mpf_add(a, b), -1))  # exact: no rounding

    @property
    def width(self) -> mpf:
        a, b = self._iv._mpi_
        return mp.make_mpf(mpf_sub(b, a, 64, round_ceiling))

    def contains(self, x) -> bool:
        return _coerce(x) in self._iv

    def __add__(self, other):
        return IntervalValue._wrap(self._iv + _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return IntervalValue._wrap(self._iv - _coerce(other))

    def __rsub__(self, other):
        return IntervalValue._wrap(_coerce(other) - self._iv)

    def __mul__(self, other):
        return IntervalValue._wrap(self._iv * _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return IntervalValue._wrap(self._iv / _coerce(other))

    def __rtruediv__(self, other):
        return IntervalValue._wrap(_coerce(other) / self._iv)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise TypeError("interval powers must be non-negative integers")
        return IntervalValue._wrap(self._iv ** n)

    def __neg__(self):
        return IntervalValue._wrap(-self._iv)

    def __repr__(self):
        return f"IntervalValue({self._iv.a!s}, {self._iv.b!s})"


def pi_interval(digits: int = DEFAULT_DIGITS) -> IntervalValue:
    """An enclosure of pi with width at most 10**-digits."""
    with interval_dps(digits):
        enc = IntervalValue._wrap(+iv.pi)
    if not enc.width <= mpf(10) ** (-digits):
        raise ArithmeticError("pi enclosure wider than requested")  # pragma: no cover
    return enc


# --- polynomials with interval coefficients (dense, ascending powers) ---

def poly_eval(coeffs, x: IntervalValue) -> IntervalValue:
    """Horner evaluation of sum coeffs[n] * x**n over an interval."""
    acc = IntervalValue(0)
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def poly_eval_centered(coeffs, deriv_coeffs, lo, hi) -> IntervalValue:
    """Enclosure over [lo, hi]: plain Horner intersected with the centered form.

    The centered form p(mid) + p'(X) * (X - mid) is much tighter on
    narrow intervals near extrema, where plain Horner's dependency
    blow-up dominates.
    """
    x = IntervalValue(lo, hi)
    plain = poly_eval(coeffs, x)
    mid = IntervalValue(x.mid)
    centered = poly_eval(coeffs, mid) + poly_eval(deriv_coeffs, x) * (x - mid)
    lo_best = max(plain.lo, centered.lo)
    hi_best = min(plain.hi, centered.hi)
    return IntervalValue(lo_best, hi_best)


def poly_mul(a, b):
    out = [IntervalValue(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def poly_deriv(coeffs):
    return [coeffs[n] * n for n in range(1, len(coeffs))]


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


def _scaled(v: mpf, bits: int, up: bool) -> int:
    # floor (or ceiling) of v * 2**bits, exactly
    sign, man, exp, _ = v._mpf_
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
    return _scaled(enc.lo, bits, False), _scaled(enc.hi, bits, True)


def interval_from_fixed(enc: tuple[int, int], bits: int, den: int = 1) -> IntervalValue:
    """The IntervalValue of enc / den (den > 0), each end divided once and rounded outward."""
    d = from_int(den)
    lo = mpf_div(from_man_exp(enc[0], -bits), d, bits, round_floor)
    hi = mpf_div(from_man_exp(enc[1], -bits), d, bits, round_ceiling)
    return IntervalValue._wrap(iv.make_mpf((lo, hi)))


def fixed_digits(bits: int) -> int:
    """Decimal digits whose interval enclosures are tighter than one unit at `bits`."""
    return prec_to_dps(bits) + 2


@lru_cache(maxsize=16)
def fixed_pi(bits: int) -> tuple[int, int]:
    """pi at `bits` fractional bits, from `pi_interval`."""
    return fixed_from_interval(pi_interval(fixed_digits(bits)), bits)


def fixed_ratio(num: int, den: int, bits: int) -> tuple[int, int]:
    """The enclosure of the rational num/den (den > 0), rounded once."""
    return (num << bits) // den, -((-num << bits) // den)


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
    n, returns the enclosure of the whole sum: it stops at a term below
    one unit, and the alternating tail from there lies between 0 and that
    term.  That needs terms that decrease from the first; the ratios
    decrease in k, so the first, z/(ab), must be below 1 (else ValueError).
    """
    u_lo, u_hi = first
    z_lo, z_hi = z
    converge = n is None
    if converge:
        if z_hi >= (a * b) << bits:
            raise ValueError("the terms must decrease from the first: need z < a*b")
    else:
        sums, mags = [], [(u_lo, u_hi)]
    s_lo = s_hi = k = 0
    while u_hi > 1 if converge else k < n:
        if k % 2:
            s_lo, s_hi = s_lo - u_hi, s_hi - u_lo
        else:
            s_lo, s_hi = s_lo + u_lo, s_hi + u_hi
        d = (2 * k + a) * (2 * k + b)
        u_lo, u_hi = (u_lo * z_lo >> bits) // d, -((-(u_hi * z_hi) >> bits) // d)
        k += 1
        if not converge:
            sums.append((s_lo, s_hi))
            mags.append((u_lo, u_hi))
    if not converge:
        return sums, mags
    # the tail from term k has term k's sign, (-1)^k
    return (s_lo - u_hi, s_hi) if k % 2 else (s_lo, s_hi + u_hi)


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
