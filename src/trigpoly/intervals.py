"""Rigorous interval arithmetic and enclosure-polynomial helpers.

IntervalValue wraps mpmath's interval type, which rounds outward at the
interval context's working precision, so every operation returns an
enclosure of the exact result.  Precision only affects tightness, never
containment.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv, mp, mpf
from mpmath.libmp import mpf_sub, round_ceiling

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
        with PRECISION_LOCK, mp.workdps(iv.dps + 10):
            return (self.lo + self.hi) / 2

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

    def sqrt(self):
        return IntervalValue._wrap(iv.sqrt(self._iv))

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
