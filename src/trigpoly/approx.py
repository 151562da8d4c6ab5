"""Polynomial approximants for cos(pi*x) and sin(pi*x) with certified bounds.

The degree-m approximant is the m-th partial sum of the expansion in the
shifted variable y:

    cos(pi*x) ~ sum_{j=1}^m c_j y^j,  y = 1/4 - x^2,
    sin(pi*x) ~ sum_{j=1}^m c_j y^j,  y = x(1-x),

with identical coefficients c_j = t_j pi^(2j) in both cases (the sine
form is the cosine form shifted by 1/2), each read from its one
enclosure, `coeffs.c_enclosure`.  Because every c_j is positive and the
dropped tail is a positive series in y, the partial sums increase
monotonically to the target function on the canonical domains, and the
truncation error obeys the closed-form bound implemented by `error_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Literal

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_mul, mpf_neg,
                          mpf_pow_int, mpf_shift, mpf_sub, round_ceiling, round_floor,
                          round_nearest)

from .coeffs import _c_ends, _mid, coeff_symbolic, poly_sum
from .intervals import (_check_ends, _rounded, ends_from_fixed, exact_ratio, fixed_bits, fixed_pi,
                        nearest_double, pi_interval, series_ends, to_double, y_ratio)
from .precision import (
    DEFAULT_DIGITS,
    DEFAULT_INDEX_LIMIT,
    IndexLimitError,
    require_digits,
    require_index,
    to_mpf,
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
    "sine_monomials",
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


def _compile_horner(func: str, coeffs) -> Callable[[float], float]:
    """The float Horner recurrence in y for `coeffs`, as one straight-line function.

    Nested expressions, highest coefficient first, `((0.0 * y + c_m) * y + c_{m-1}) * y + ...`,
    50 coefficients to a statement, far below the parser's cap of 200 nested parentheses: the
    operations and their order are those of the loop `acc = acc * y + c` from 0.0.  The only
    text compiled is the fixed y-map and the `repr`s of finite doubles, which round-trip exactly.
    """
    y = "0.25 - x * x" if func == COS_PI_X else "x * (1.0 - x)"
    cs = [float(c) for c in reversed(coeffs)]
    if bad := [c for c in cs if not math.isfinite(c)]:
        raise ValueError(f"y_coeffs must be finite, got {bad[0]!r}")
    lines, acc = ["def horner(x):", f"    y = {y}"], "0.0"
    for i in range(0, len(cs), 50):
        chunk = cs[i:i + 50]
        nested = ") * y + ".join(map(repr, chunk))
        lines.append(f"    acc = {'(' * len(chunk)}{acc} * y + {nested})")
        acc = "acc"
    lines.append(f"    return {acc} * y")
    namespace = {}
    exec(compile("\n".join(lines), f"<{func} Horner, m={len(coeffs)}>", "exec"), namespace)
    return namespace["horner"]


class _Kernel(property):
    """The class attribute `eval`: read on an instance, its compiled kernel.

    A property, so reading `poly.eval` runs no Python frame; called on the
    class, `ApproxPolynomial.eval(poly, x)` runs the kernel of `poly`.
    """

    def __call__(self, poly, x):
        return poly._kernel(x)


@dataclass(frozen=True)
class ApproxPolynomial:
    """Degree-m approximant in the shifted basis (powers of y).

    y_coeffs are the machine-precision coefficients used for fast
    evaluation (rounded once from extended precision); hp_coeffs retain
    the extended-precision values for verification work.

    `eval(x)` (also `poly(x)`) is float Horner in y, compiled once per
    instance into straight-line code: y is formed, then the nested
    `(... * y + c_j)` from 0.0 and c_m down to c_1, then that times y is
    returned.  A pickle or copy compiles its own kernel.
    """

    func: FuncTag
    degree_m: int
    y_coeffs: tuple[float, ...]
    hp_coeffs: tuple[mpf, ...]
    precision_digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        object.__setattr__(self, "_kernel", _compile_horner(self.func, self.y_coeffs))
        object.__setattr__(self, "_cos", self.func == COS_PI_X)

    def __reduce__(self):
        return ApproxPolynomial, (self.func, self.degree_m, self.y_coeffs, self.hp_coeffs,
                                  self.precision_digits)

    def y_of_hp(self, x) -> mpf:
        """The shifted variable y, x and each step rounded to nearest at the approximant's
        precision, `fixed_bits(precision_digits)` bits."""
        prec, rnd = fixed_bits(self.precision_digits), round_nearest
        xv = to_mpf(x, prec)._mpf_
        return mp.make_mpf(mpf_sub(mpf_shift(fone, -2), mpf_mul(xv, xv, prec, rnd), prec, rnd)
                           if self._cos else mpf_mul(xv, mpf_sub(fone, xv, prec, rnd), prec, rnd))

    eval = _Kernel(attrgetter("_kernel"), doc="Machine-precision Horner evaluation in y.")
    __call__ = eval

    def eval_hp(self, x) -> mpf:
        """Extended-precision Horner evaluation in y, for verification: acc * y + c from 0 for
        c_m down to c_1, then acc * y, each step rounded as `y_of_hp` rounds."""
        prec, rnd = fixed_bits(self.precision_digits), round_nearest
        y, acc = self.y_of_hp(x)._mpf_, fzero
        for c in reversed(self.hp_coeffs):
            acc = mpf_add(mpf_mul(acc, y, prec, rnd), c._mpf_, prec, rnd)
        return mp.make_mpf(mpf_mul(acc, y, prec, rnd))


def build_poly(func: FuncTag, m: int, digits: int = DEFAULT_DIGITS) -> ApproxPolynomial:
    """The degree-m approximant.

    hp_coeffs[j - 1] is the midpoint of `c_enclosure(j, fixed_bits(digits))`
    rounded to nearest at those bits, and y_coeffs[j - 1] that value rounded
    to the nearest double by `to_double`.
    """
    _check_func(func)
    require_digits(digits)
    if m < 1:
        raise ValueError("m must be >= 1")
    bits = fixed_bits(digits)
    hp = tuple(_mid(_c_ends(j, bits), digits).value for j in range(1, m + 1))
    return ApproxPolynomial(
        func=func,
        degree_m=m,
        y_coeffs=tuple(to_double(*exact_ratio(c)) for c in hp),
        hp_coeffs=hp,
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


def _certificate(**fields) -> ErrorCertificate:
    """An ErrorCertificate made as pickle restores one: without the frozen `__init__`, each field
    put in the instance's dict in turn, which keeps that dict's keys shared with every other."""
    cert = object.__new__(ErrorCertificate)
    cert.__dict__.update(fields.items())
    return cert


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


@lru_cache(maxsize=1024)
def _tail_constants(m: int, digits: int) -> _TailConstants:
    """One enclosure of L_m and K_m per (m, digits), from `pi_interval`.

    Each end rounds down (lower) or up (upper) at `fixed_bits(digits)`
    bits; (2m+2)! is exact, so dividing by it rounds once.  Where q_m or
    1/(1 - q_m) straddles a rounding boundary of the doubles, its double
    comes from twice the digits.
    """
    prec = fixed_bits(digits)
    pi = pi_interval(digits)
    ends = (round_floor, round_ceiling)
    pi2 = [mpf_mul(p, p, prec, r) for p, r in zip((pi.lo._mpf_, pi.hi._mpf_), ends)]
    q = [mpf_div(v, from_int(4 * (2 * m + 4) * (2 * m + 3)), prec, r) for v, r in zip(pi2, ends)]
    fact = from_int(math.factorial(2 * m + 2))
    lead = [mpf_div(mpf_pow_int(v, m + 1, prec, r), fact, prec, r) for v, r in zip(pi2, ends)]
    # the divisors 1 - q: its upper end for a lower end, its lower end for an upper end
    den = mpf_sub(fone, q[0], prec, round_ceiling), mpf_sub(fone, q[1], prec, round_floor)
    k, tail = ([mpf_div(v, d, prec, r) for v, d, r in zip(num, den, ends)]
               for num in (lead, (fone, fone)))
    floats = nearest_double(*map(exact_ratio, q)), nearest_double(*map(exact_ratio, tail))
    if None in floats:
        finer = _tail_constants(m, 2 * digits)
        floats = finer.q_m, finer.tail_factor
    return _TailConstants(prec, tuple(lead), tuple(k), *floats)


def _y_power(func: str, x, n: int) -> tuple[int, int]:
    """y(x)^n exactly, as (man, exp) with man odd: a binary x makes y a dyadic rational a/2^e."""
    p, q = x.as_integer_ratio() if isinstance(x, (int, float)) else exact_ratio(x)
    num, den = y_ratio(p, q, func == COS_PI_X)
    if den & (den - 1):
        raise TypeError(f"x must be a binary floating-point number, got {x!r}")
    tz = (num & -num).bit_length() - 1
    return (num >> tz) ** n, (tz - den.bit_length() + 1) * n


def _leading_term(m: int, digits: int, lead: tuple, y_man: int, y_exp: int) -> float:
    """The double nearest to L_m y^(m+1), each end of `lead`, L_m's enclosure at `digits`, times
    y^(m+1) = y_man 2^y_exp formed exactly (below 1, so at a negative exponent); refined at
    twice the digits where the ends round to different doubles."""
    (_, lo, lo_exp, _), (_, hi, hi_exp, _) = lead
    out = nearest_double((lo * y_man, 1 << -(lo_exp + y_exp)), (hi * y_man, 1 << -(hi_exp + y_exp)))
    if out is None:
        return _leading_term(m, 2 * digits, _tail_constants(m, 2 * digits).lead, y_man, y_exp)
    return out


def error_bound(
    func: FuncTag, m: int, x: float, digits: int = DEFAULT_DIGITS
) -> ErrorCertificate:
    """Certified truncation bound at x; x must lie in the open canonical domain.

    y^(m+1) is exact in integers, so the one rounding in `bound_hp` is
    the product of the raw mantissas of it and of the upper end of K_m,
    rounded up to the working precision by the kernel's one directed
    rounding, `intervals._rounded`; `bound` is the least double >= bound_hp.
    """
    _check_func(func)
    require_digits(digits)
    if m < 1:
        raise ValueError("m must be >= 1")
    require_index(m)
    lo, hi = domain = DOMAINS[func]
    if not (lo < x < hi):
        raise DomainError(f"{func} bound only asserted on ({lo}, {hi}); got x={x}")
    c = _tail_constants(m, digits)
    y_man, y_exp = _y_power(func, x, m + 1)
    _, k_man, k_exp, _ = c.k[1]
    bound_hp = _rounded(k_man * y_man, 1, k_exp + y_exp, c.prec, True)
    _, man, exp, _ = bound_hp  # below 1, so exp < 0
    return _certificate(
        func=func, m=m, leading_term=_leading_term(m, digits, c.lead, y_man, y_exp),
        q_m=c.q_m, tail_factor=c.tail_factor, bound=to_double(man, 1 << -exp, 1),
        domain=domain, bound_hp=mp.make_mpf(bound_hp))


def bound_sup(m: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """Supremum of the certified bound over the domain: the upper end of K_m times (1/4)^(m+1).

    It is attained at y = 1/4, where it equals `error_bound`'s bound_hp.
    """
    require_index(m)
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
    tol_v = to_mpf(tol, fixed_bits(digits))
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
    """S_m(x), the m-term Maclaurin partial sum of sin(pi*x), in extended precision.

    S_m(x) = t sum_{k<m} (-t^2)^k/(2k+1)! with t = pi |x|, negated for x < 0:
    the midpoint (`_mid`) of the enclosure `series_ends` gives for x rounded
    to nearest at `fixed_bits(digits)` bits, t rounded outward.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    prec = fixed_bits(digits)
    xv = to_mpf(x, prec)
    pi = ends_from_fixed(fixed_pi(prec - 2), prec - 2)
    t = tuple(mpf_mul(p, mpf_abs(xv._mpf_), prec, rnd)
              for p, rnd in zip(pi, (round_floor, round_ceiling)))
    _check_ends(*t)  # an infinite x would never end the series
    s = _mid(series_ends(t, tuple(mpf_mul(v, v) for v in t), 2, 3, prec, n=m), digits).value
    return mp.make_mpf(mpf_neg(s._mpf_)) if xv < 0 else s


def sine_monomials(m: int) -> list[tuple[Fraction, ...]]:
    """Monomial coefficients, orders 0..2m, of Q_m(x)/pi, exactly.

    Q_m/pi = sum_{j<=m} (N_j(u)/D_j) (x(1-x))^j with u = pi^2
    (`coeff_symbolic`), so the x^n coefficient is the polynomial
    sum_j (-1)^(n-j) binom(j, n-j) N_j(u)/D_j in u: Fraction coefficients,
    constant term first, trailing zeros dropped (the zero polynomial is ()).
    The sums run in ints over one denominator, L = lcm(D_1..D_m), and each
    coefficient becomes a Fraction once.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    forms = coeff_symbolic(m)
    den = math.lcm(*(form.denominator for form in forms))
    width = max(len(form.numerator) for form in forms)
    sums = [[0] * width for _ in range(2 * m + 1)]
    for j, form in enumerate(forms, start=1):
        for i in range(j + 1):
            scale, row = (-1) ** i * math.comb(j, i) * (den // form.denominator), sums[j + i]
            for k, c in enumerate(form.numerator):
                row[k] += scale * c
    return [tuple(Fraction(c, den) for c in poly_sum(row)) for row in sums]
