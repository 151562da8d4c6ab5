"""Extended-precision value carrier and working-precision control.

Every mpf value in this package is computed at a working precision of
``requested digits + GUARD_DIGITS``.  The guard
digits keep values accurate (the backward three-term recurrence carries
`coeffs.MILLER_EXTRA` more); no certificate rests on them, since
certificates come from the outward-rounded enclosures of `intervals`.
The one mpf loop left lives here, `horner` for polynomials; its callers
hold the `working` section.  The series of T_j(z), J_{j-1/2} and the
sine's Maclaurin sums run on the fixed-point kernel of `intervals`.

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

