"""Polynomial approximants for cos(pi*x) and sin(pi*x) with certified bounds.

The degree-m approximant is the m-th partial sum of the expansion in the
shifted variable y:

    cos(pi*x) ~ sum_{j=1}^m c_j y^j,  y = 1/4 - x^2,
    sin(pi*x) ~ sum_{j=1}^m c_j y^j,  y = x(1-x),

with identical coefficients c_j = t_j pi^(2j) in both cases (the sine
form is the cosine form shifted by 1/2).  Because every c_j is positive
and the dropped tail is a positive series in y, the partial sums
increase monotonically to the target function on the canonical domains,
and the truncation error obeys the closed-form bound implemented by
`error_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal

from mpmath import mp, mpf
from mpmath.libmp import mpf_mul, mpf_shift, round_ceiling, round_floor

from .coeffs import coefficient_table
from .intervals import exact_ratio, fixed_bits, interval_dps, pi_interval, positive_double, y_ratio
from .precision import (
    DEFAULT_DIGITS,
    DEFAULT_INDEX_LIMIT,
    IndexLimitError,
    alternating_series,
    horner,
    require_digits,
    to_mpf,
    working,
)

__all__ = [
    "COS_PI_X",
    "SIN_PI_X",
    "DOMAINS",
    "ApproxPolynomial",
    "DomainError",
    "ErrorCertificate",
    "build_poly",
    "bound_sup",
    "error_bound",
    "maclaurin_eval",
    "maclaurin_eval_hp",
    "select_degree",
    "sin_taylor_coefficient",
    "sine_monomials",
    "taylor_coeffs_at_zero",
]

COS_PI_X = "cos_pi_x"
SIN_PI_X = "sin_pi_x"
FuncTag = Literal["cos_pi_x", "sin_pi_x"]

# certified-bound domains, open intervals
DOMAINS = {COS_PI_X: (-0.5, 0.5), SIN_PI_X: (0.0, 1.0)}


class DomainError(ValueError):
    """The certified error bound is only asserted on the canonical domain."""


def _check_func(func: str) -> None:
    if func not in DOMAINS:
        raise ValueError(f"func must be {COS_PI_X!r} or {SIN_PI_X!r}, got {func!r}")


@dataclass(frozen=True)
class ApproxPolynomial:
    """Degree-m approximant in the shifted basis (powers of y).

    y_coeffs are the machine-precision coefficients used for fast
    evaluation (rounded once from extended precision); hp_coeffs retain
    the extended-precision values for verification work.
    """

    func: FuncTag
    degree_m: int
    y_coeffs: tuple[float, ...]
    hp_coeffs: tuple[mpf, ...]
    precision_digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        # eval's set-up, done once: the Horner order and the y-map
        object.__setattr__(self, "_horner", self.y_coeffs[::-1])
        object.__setattr__(self, "_cos", self.func == COS_PI_X)

    def y_of_hp(self, x) -> mpf:
        """The shifted variable y at the current working precision."""
        xv = to_mpf(x)
        return mpf(1) / 4 - xv * xv if self._cos else xv * (1 - xv)

    def eval(self, x: float) -> float:
        """Machine-precision Horner evaluation in y."""
        y = 0.25 - x * x if self._cos else x * (1.0 - x)
        acc = 0.0
        for c in self._horner:
            acc = acc * y + c
        return acc * y

    __call__ = eval

    def eval_hp(self, x) -> mpf:
        """Extended-precision Horner evaluation, for verification."""
        with working(self.precision_digits):
            y = self.y_of_hp(x)
            return horner(self.hp_coeffs, y) * y


def build_poly(func: FuncTag, m: int, digits: int = DEFAULT_DIGITS) -> ApproxPolynomial:
    """The degree-m approximant; c_j = t_j pi^(2j), t_j the midpoint of its enclosure."""
    _check_func(func)
    require_digits(digits)
    if m < 1:
        raise ValueError("m must be >= 1")
    table = coefficient_table(m, digits, route="direct")
    with working(digits):
        pi2 = mp.pi ** 2
        hp = []
        p = mpf(1)
        for j in range(1, m + 1):
            p *= pi2
            hp.append(+(table.value(j).value * p))
    return ApproxPolynomial(
        func=func,
        degree_m=m,
        y_coeffs=tuple(float(c) for c in hp),
        hp_coeffs=tuple(hp),
        precision_digits=digits,
    )


@dataclass(frozen=True)
class ErrorCertificate:
    """One-sided truncation-error bound for the degree-m approximant.

    bound = leading_term / (1 - q_m) with
    leading_term = pi^(2m+2) y^(m+1) / (2m+2)! and
    q_m = (pi^2/4) / ((2m+4)(2m+3)); valid for x inside `domain`, where
    0 < reference - approximant < bound.  bound_hp is an upper bound on
    the exact value, within 10^-digits of it, and bound is the least
    double >= bound_hp; leading_term, q_m and tail_factor are the doubles
    nearest to their exact values.
    """

    func: FuncTag
    m: int
    leading_term: float
    q_m: float
    tail_factor: float
    bound: float
    domain: tuple[float, float]
    bound_hp: mpf = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class _TailConstants:
    """The parts of the bound that do not depend on x, at degree m and `digits`.

    `lead` and `k` are outward-rounded enclosures, as raw mpf (lo, hi)
    pairs, of L_m = pi^(2m+2)/(2m+2)! and K_m = L_m/(1 - q_m); `prec` is
    their working precision in bits.  q_m and tail_factor = 1/(1 - q_m)
    are the doubles nearest to the exact values.
    """

    prec: int
    lead: tuple
    k: tuple
    q_m: float
    tail_factor: float


def _nearest(lo, hi) -> float | None:
    """The double nearest to every value in [lo, hi], or None if the ends round apart."""
    a = positive_double(lo)
    return a if a == positive_double(hi) else None


@lru_cache(maxsize=1024)
def _tail_constants(m: int, digits: int) -> _TailConstants:
    """One enclosure of L_m and K_m per (m, digits), from `pi_interval`.

    Where the enclosure of q_m or 1/(1 - q_m) straddles a rounding
    boundary of the doubles, its double comes from twice the digits.
    """
    with interval_dps(digits):
        pi2 = pi_interval(digits) ** 2
        q = pi2 / (4 * (2 * m + 4) * (2 * m + 3))
        lead = pi2 ** (m + 1) / math.factorial(2 * m + 2)
        k = lead / (1 - q)
        tail = 1 / (1 - q)
    lead, k, q, tail = ((v.lo._mpf_, v.hi._mpf_) for v in (lead, k, q, tail))
    floats = _nearest(*q), _nearest(*tail)
    if None in floats:
        finer = _tail_constants(m, 2 * digits)
        floats = finer.q_m, finer.tail_factor
    return _TailConstants(fixed_bits(digits), lead, k, *floats)


def _y_power(func: str, x, n: int) -> tuple:
    """y(x)^n exactly, as a raw mpf: a binary x makes y a dyadic rational a/2^e."""
    p, q = x.as_integer_ratio() if isinstance(x, (int, float)) else exact_ratio(x)
    num, den = y_ratio(p, q, func == COS_PI_X)
    if den & (den - 1):
        raise TypeError(f"x must be a binary floating-point number, got {x!r}")
    tz = (num & -num).bit_length() - 1  # an odd mantissa keeps the raw mpf normalized
    man = (num >> tz) ** n
    return 0, man, (tz - den.bit_length() + 1) * n, man.bit_length()


def _leading_term(m: int, digits: int, ypow: tuple) -> float:
    """The double nearest to L_m y^(m+1), from the enclosure of L_m (refined if it straddles)."""
    while True:
        c = _tail_constants(m, digits)
        lo, hi = c.lead
        out = _nearest(mpf_mul(lo, ypow, c.prec, round_floor),
                       mpf_mul(hi, ypow, c.prec, round_ceiling))
        if out is not None:
            return out
        digits *= 2


def error_bound(
    func: FuncTag, m: int, x: float, digits: int = DEFAULT_DIGITS
) -> ErrorCertificate:
    """Certified truncation bound at x; x must lie in the open canonical domain.

    y^(m+1) is exact in integers, so the one rounding in `bound_hp` is
    the product with the upper end of K_m, rounded up at the working
    precision; `bound` is the least double >= bound_hp.
    """
    _check_func(func)
    require_digits(digits)
    if m < 1:
        raise ValueError("m must be >= 1")
    lo, hi = DOMAINS[func]
    if not (lo < x < hi):
        raise DomainError(f"{func} bound only asserted on ({lo}, {hi}); got x={x}")
    c = _tail_constants(m, digits)
    ypow = _y_power(func, x, m + 1)
    bound = mpf_mul(c.k[1], ypow, c.prec, round_ceiling)
    return ErrorCertificate(
        func=func,
        m=m,
        leading_term=_leading_term(m, digits, ypow),
        q_m=c.q_m,
        tail_factor=c.tail_factor,
        bound=positive_double(bound, up=True),
        domain=(lo, hi),
        bound_hp=mp.make_mpf(bound),
    )


def bound_sup(m: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """Supremum of the certified bound over the domain: the upper end of K_m times (1/4)^(m+1).

    It is attained at y = 1/4, where it equals `error_bound`'s bound_hp.
    """
    return mp.make_mpf(mpf_shift(_tail_constants(m, digits).k[1], -2 * (m + 1)))


def select_degree(func: FuncTag, tol, digits: int = DEFAULT_DIGITS) -> int:
    """Minimal m whose certified bound is <= tol everywhere on the domain.

    The sup of the bound sits at y = 1/4 (x = 0 for cosine, x = 1/2 for
    sine), since y^(m+1) is increasing in y and y <= 1/4; the answer is
    therefore identical for both function tags.  No m <= DEFAULT_INDEX_LIMIT
    meeting tol raises IndexLimitError.
    """
    _check_func(func)
    require_digits(digits)
    with working(digits):
        tol_v = to_mpf(tol)
        if not tol_v > 0:
            raise ValueError("tol must be positive")
        for m in range(1, DEFAULT_INDEX_LIMIT + 1):
            if bound_sup(m, digits) <= tol_v:
                return m
    raise IndexLimitError(f"no degree <= {DEFAULT_INDEX_LIMIT} meets tol={tol}")


def maclaurin_eval(m: int, x: float, func: FuncTag = SIN_PI_X) -> float:
    """m-term Maclaurin partial sum of sin(pi*x) (odd) or cos(pi*x) (even), in floats."""
    _check_func(func)
    if m < 1:
        raise ValueError("m must be >= 1")
    odd = 1 if func == SIN_PI_X else 0
    t = math.pi * x
    term = t if odd else 1.0
    acc = term
    for j in range(1, m):
        term *= -t * t / ((2 * j - 1 + odd) * (2 * j + odd))
        acc += term
    return acc


def maclaurin_eval_hp(m: int, x, digits: int = DEFAULT_DIGITS) -> mpf:
    """S_m(x), the m-term Maclaurin partial sum of sin(pi*x), in extended precision."""
    if m < 1:
        raise ValueError("m must be >= 1")
    with working(digits):
        t = mp.pi * to_mpf(x)
        return alternating_series(t, t * t, 2, 3, digits, n=m)


def taylor_coeffs_at_zero(poly: ApproxPolynomial) -> list[mpf]:
    """Monomial coefficients of the sine approximant, orders 0..2m, in extended precision."""
    if poly.func != SIN_PI_X:
        raise ValueError("monomial expansion is defined for the sine form")
    with working(poly.precision_digits):
        return [+v for v in sine_monomials(poly.hp_coeffs, mpf(0))]


def sine_monomials(y_coeffs, zero) -> list:
    """Monomial coefficients, orders 0..2m, of sum_j y_coeffs[j-1] (x(1-x))^j.

    The x^n coefficient is sum_j c_j (-1)^(n-j) binom(j, n-j); the
    binomials are exact integers, so the coefficient type (mpf or
    IntervalValue, given by `zero`) sets the arithmetic.
    """
    m = len(y_coeffs)
    out = [zero] * (2 * m + 1)
    for j in range(1, m + 1):
        c = y_coeffs[j - 1]
        for i in range(0, j + 1):
            out[j + i] = out[j + i] + c * ((-1) ** i * math.comb(j, i))
    return out


def sin_taylor_coefficient(n: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """Coefficient of x^n in the Maclaurin series of sin(pi*x)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 0:
        return mpf(0)
    with working(digits):
        return +((-1) ** ((n - 1) // 2) * mp.pi ** n / mpf(math.factorial(n)))
