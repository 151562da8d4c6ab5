"""Extended-precision value carrier and the front ends' precision section.

Every mpf value in this package is computed at a working precision of
``requested digits + GUARD_DIGITS``, in bits ``intervals.fixed_bits``,
and every extended-precision step names those bits: inputs round once to
nearest by `to_mpf(x, prec)`, and each operation is a libmp call at an
explicit precision.  The guard digits keep values accurate; no
certificate rests on them, since certificates come from the
outward-rounded enclosures of `intervals`.  No library section reads or
sets mpmath's context, so a result does not depend on the caller's
``mp.prec`` and the library has no serialization point.

mpmath's context precision is process-global, so `working` serializes
its sections with a reentrant lock.  Only the front ends enter it, `cli`
and `bench`, for mpmath's own reference values; the lock also serves
`intervals.interval_dps`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

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
def working(digits: int):
    """Context with mp precision set to digits + guard decimals, for the front ends."""
    with PRECISION_LOCK:
        with mp.workdps(digits + GUARD_DIGITS):
            yield mp


def to_mpf(x, prec: int) -> mpf:
    """Ints, fractions, floats, strings and mpfs as an mpf rounded once to nearest at `prec` bits.

    A Fraction's p/q rounds once, by `from_rational`; an ExtReal's value
    passes through as it is.
    """
    if isinstance(x, ExtReal):
        return x.value
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, prec, round_nearest))
    return mpf(x, prec=prec, rounding=round_nearest)


@dataclass(frozen=True)
class ExtReal:
    """An extended-precision real tagged with its requested decimal precision.

    A frozen carrier: computation happens on `value` (an mpf) by libmp
    calls at `fixed_bits(precision_digits)` bits, and the result is
    wrapped again with its digits.  Equality compares both fields.
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

