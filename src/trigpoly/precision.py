"""Extended-precision value carrier and working-precision control.

Every mpf value in this package is computed at a working precision of
``requested digits + GUARD_DIGITS``.  The guard
digits keep values accurate (the three-term recurrences add their own
cancellation allowance on top); no certificate rests on them, since
certificates come from the outward-rounded enclosures of `intervals`.
The two mpf loops live here: `horner` for polynomials and
`alternating_series` for the series of T_j(z), J_{j-1/2} and the
sine's Maclaurin sums; callers hold the `working` section.

mpmath's context precision is process-global, so precision-sensitive
sections are serialized with a reentrant lock; results are pure
functions of their inputs and immutable outputs are safe to share
across threads.  Machine-precision evaluation paths never enter these
sections and run fully concurrently.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

# one reentrant lock for mpmath's process-global precisions: working() and
# interval_dps() sections nest without deadlock
PRECISION_LOCK = threading.RLock()

GUARD_DIGITS = 20
MIN_DIGITS = 30
DEFAULT_DIGITS = 50

# Coefficients beyond this index underflow any practical use; the exact
# factorials involved also grow without bound.
DEFAULT_INDEX_LIMIT = 200


class PrecisionError(ValueError):
    """Requested decimal precision is below the supported floor."""


class IndexLimitError(ValueError):
    """Coefficient index exceeds the factorial-growth cap DEFAULT_INDEX_LIMIT."""


def require_digits(digits: int) -> None:
    if digits < MIN_DIGITS:
        raise PrecisionError(
            f"precision too low: need >= {MIN_DIGITS} significant digits, got {digits}"
        )


def require_index(j: int) -> None:
    if j > DEFAULT_INDEX_LIMIT:
        raise IndexLimitError(f"coefficient index {j} exceeds the limit {DEFAULT_INDEX_LIMIT}")


@contextmanager
def working(digits: int, extra: int = 0):
    """Context with mp precision set to digits + guard (+ extra) decimals."""
    with PRECISION_LOCK:
        with mp.workdps(digits + GUARD_DIGITS + extra):
            yield mp


def horner(coeffs, u) -> mpf:
    """sum_k coeffs[k] * u**k by Horner's rule (constant term first).

    The one mpf Horner loop: each step rounds once for the product and
    once for the sum, at the current working precision.
    """
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def alternating_series(first, z, a: int, b: int, digits: int, n: int | None = None) -> mpf:
    """sum_k (-1)^k u_k, u_0 = first, u_{k+1} = u_k * (z/((2k+a)(2k+b))), at the working precision.

    The one mpf alternating-series loop; its callers hold the `working`
    section.  With n, the sum of the terms 0..n-1, each running sum
    rounded once as it is formed.  Without n, terms may grow while the
    ratio is >= 1 (the ratios decrease in k); the sum stops once the ratio
    is below 1 and the next term is below 10**-(digits+5) relative to the
    running sum.  A tiny absolute floor keeps this terminating when the
    exact sum is zero (e.g. T_0 at z = pi^2/4, which sums to cos(pi/2)).
    """
    if n is None:
        thresh = mpf(10) ** (-(digits + 5))
        floor = first * thresh
    s = mpf(0)
    u = first
    k = 0
    while True:
        s = s - u if k % 2 else s + u
        if k + 1 == n:
            return s
        ratio = z / ((2 * k + a) * (2 * k + b))
        nxt = u * ratio
        if n is None and ratio < 1 and nxt <= thresh * max(abs(s), floor):
            return s
        u = nxt
        k += 1
        if n is None and k > 100000:  # pragma: no cover
            raise ArithmeticError("alternating series failed to terminate")


def to_mpf(x) -> mpf:
    """Coerce ints, fractions, floats, strings and ExtReal to mpf.

    Conversion happens at the *current* working precision; ints and
    floats are exact, fractions round once.
    """
    if isinstance(x, ExtReal):
        return x.value
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


@dataclass(frozen=True)
class ExtReal:
    """An extended-precision real tagged with its requested decimal precision.

    A frozen carrier: computation happens on `value` (an mpf) inside a
    `working` section, and the result is wrapped again with its digits.
    Equality compares both fields.
    """

    value: mpf
    precision_digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        if self.precision_digits < MIN_DIGITS:
            raise PrecisionError(
                f"ExtReal requires >= {MIN_DIGITS} digits, got {self.precision_digits}"
            )

    def __float__(self) -> float:
        return float(self.value)

    def to_str(self, digits: int | None = None) -> str:
        return mp.nstr(self.value, digits or self.precision_digits)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"ExtReal({self.to_str(min(self.precision_digits, 20))}, digits={self.precision_digits})"

