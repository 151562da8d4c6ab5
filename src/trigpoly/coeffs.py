"""Expansion coefficients for cos(pi*x) in powers of (1/4 - x^2).

The target identity is

    cos(pi*x) = sum_{j>=1} c_j * (1/4 - x^2)^j,      c_j = t_j * pi^(2j),

where each weight t_j is given by the alternating series

    t_j = sum_{k>=0} (-pi^2/4)^k * binom(j+k, j) / (2j+2k)!

and satisfies 0 < t_j < 1/(2j)!.  The series' terms decrease from the
first, so `t_enclosure` encloses t_j with outward rounding (the
fixed-point kernel `intervals.fixed_t_scaled`, then one outward division
by (2j)!).  This module computes t_j by three routes -- the series
itself (the enclosure's midpoint), a three-term recurrence, and a
half-integer Bessel-function identity -- plus an exact symbolic form and
its helpers in Q[u], u = pi^2: `poly_sum`, `poly_mul`, `fixed_at_pi2`.
The recurrence, shared with T_j(z) below, runs backward in mpf in one
loop, `_backward` (Miller's algorithm: t_j is its minimal solution, so
the backward direction is the stable one and needs no digits beyond the
working precision's); the symbolic form runs it forward over Fractions,
where it is exact.
Every route's certificate comes from that one enclosure by one rule:
trunc_bound = max(hi - v, v - lo), rounded up, for the route's value v.

The generalized series T_j(z) = sum_k (-z)^k binom(j+k,j)/(2j+2k)!
recovers t_j at z = pi^2/4 and is exposed for cross-checks.  It and
J_{j-1/2} are the same alternating series, each term the last times
z/((2k+2)(2k+2j+1)) (z = x^2 for the Bessel function); both are summed
by `precision.alternating_series`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Literal

from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_div, mpf_mul, mpf_pow_int, mpf_sub,
                          round_ceiling, round_floor)

from .intervals import (
    IntervalValue,
    exact_ratio,
    fixed_bits,
    fixed_horner,
    fixed_mul,
    fixed_pi,
    fixed_ratio,
    fixed_t_scaled,
    interval_from_fixed,
)
from .precision import (
    DEFAULT_DIGITS,
    ExtReal,
    alternating_series,
    require_digits,
    require_index,
    to_mpf,
    working,
)

__all__ = [
    "CoefficientEntry",
    "CoefficientTable",
    "SymbolicCoefficient",
    "coeff_bessel",
    "coeff_direct",
    "coeff_recurrence",
    "coeff_symbolic",
    "coefficient_table",
    "bessel_j_half_integer",
    "fixed_at_pi2",
    "gamma_half",
    "general_series_direct",
    "general_series_recurrence",
    "poly_mul",
    "poly_sum",
    "t_enclosure",
]

Route = Literal["recurrence", "direct", "bessel"]


@dataclass(frozen=True)
class CoefficientEntry:
    j: int
    value: ExtReal
    route: Route
    trunc_bound: ExtReal


@dataclass(frozen=True)
class CoefficientTable:
    """Immutable table of weights t_1..t_J with per-entry certificates.

    trunc_bound is an upper bound on |stored - exact| for each entry and
    is kept below 10**-precision_digits relative to the value; a table
    that misses this raises ValueError.
    """

    entries: tuple[CoefficientEntry, ...]
    precision_digits: int

    def __post_init__(self):
        digits = self.precision_digits
        for pos, entry in enumerate(self.entries, start=1):
            if entry.j != pos:
                raise ValueError("entries must be contiguous in j starting at 1")
            # exact integer comparisons of v = v_num/v_den and bound = b_num/b_den
            v_num, v_den = exact_ratio(entry.value.value)
            b_num, b_den = exact_ratio(entry.trunc_bound.value)
            if not 0 < v_num * math.factorial(2 * pos) < v_den:
                raise ValueError(f"coefficient {pos} outside (0, 1/(2j)!)")
            if not b_num * v_den * 10 ** digits < v_num * b_den:
                raise ValueError(f"coefficient {pos} certificate not below 10^-{digits} relative")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def value(self, j: int) -> ExtReal:
        return self.entries[j - 1].value


def t_enclosure(j: int, digits: int = DEFAULT_DIGITS) -> IntervalValue:
    """Enclosure of t_j: `fixed_t_scaled` at `fixed_bits(digits)` bits, divided outward by (2j)!."""
    bits = fixed_bits(digits)
    return interval_from_fixed(fixed_t_scaled(j, bits), bits, math.factorial(2 * j))


def _certified(j: int, v: mpf, enc: IntervalValue, digits: int) -> tuple[ExtReal, ExtReal]:
    """(v, trunc_bound) by the one rule: trunc_bound = max(hi - v, v - lo), rounded up.

    [lo, hi] = enc = t_enclosure(j, digits), so the bound covers |v - t_j| wherever v lies.
    """
    bound = max(mp.make_mpf(mpf_sub(enc.hi._mpf_, v._mpf_, 64, round_ceiling)),
                mp.make_mpf(mpf_sub(v._mpf_, enc.lo._mpf_, 64, round_ceiling)))
    return ExtReal(v, digits), ExtReal(bound, digits)


def _table(route: Route, pairs, digits: int) -> CoefficientTable:
    entries = (CoefficientEntry(j, v, route, b) for j, (v, b) in enumerate(pairs, start=1))
    return CoefficientTable(entries=tuple(entries), precision_digits=digits)


def coeff_direct(j: int, digits: int = DEFAULT_DIGITS) -> tuple[ExtReal, ExtReal]:
    """(value, trunc_bound) of t_j from its direct series: the rounded midpoint of `t_enclosure`."""
    require_digits(digits)
    require_index(j)
    if j < 1:
        raise ValueError("j must be >= 1")
    enc = t_enclosure(j, digits)
    with working(digits):
        return _certified(j, (enc.lo + enc.hi) / 2, enc, digits)


# decimal digits the backward recurrence carries beyond the working
# precision, so that its values still round to the working precision's
# nearest after the start error and the steps' roundings
MILLER_EXTRA = 10


def _backward(z: mpf, j_max: int) -> list[mpf]:
    """T_0..T_{j_max}(z) up to one common factor, by Miller's backward recurrence.

        T_{j-2} = (j-1) (2(2j-3) T_{j-1} - w j T_j),   w = 4z,

    from (T_{J+N}, T_{J+N-1}) = (0, 1), J = j_max.  T_j(z) is the minimal
    (factorially decaying) solution, so this direction is stable; the
    start error reaches T_j, j <= J, damped by about
    z^N (2J)!/(2J+2N)!, and N is the least count that puts this below
    10^-mp.dps, one unit of the working precision.  The one mpf
    recurrence loop; the caller holds `working(digits, extra=MILLER_EXTRA)`
    and normalizes by a known value.
    """
    zf, n, lost = float(z), 0, 0.0
    while lost <= mp.dps:
        n += 1
        lost += math.log10((2 * j_max + 2 * n - 1) * (2 * j_max + 2 * n) / zf)
    w = 4 * z
    hi, lo = mpf(0), mpf(1)  # T_j, T_{j-1}
    vals = []
    for j in range(j_max + n, 1, -1):
        hi, lo = lo, 2 * (j - 1) * (2 * j - 3) * lo - w * (j * (j - 1)) * hi
        if j - 1 <= j_max:
            vals.append(hi)
    vals.append(lo)
    return vals[::-1]


def coeff_recurrence(j_max: int, digits: int = DEFAULT_DIGITS) -> CoefficientTable:
    """Weights t_1..t_{j_max} by `_backward` at z = pi^2/4 (w = pi^2),

        t_{j-2} = (j-1) (2(2j-3) t_{j-1} - pi^2 j t_j),

    normalized by t_1 = 1/pi (t_0 = 0 cannot normalize).  The
    recurrence's wanted solution is its minimal one, which the backward
    direction keeps at the working precision plus MILLER_EXTRA digits.
    Each entry's certificate is the one rule's, from `t_enclosure`, so
    no certificate rests on the recurrence's start index.
    """
    require_digits(digits)
    require_index(j_max)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    with working(digits, extra=MILLER_EXTRA):
        vals = _backward(mp.pi ** 2 / 4, j_max)
        scale = 1 / (mp.pi * vals[1])
        vals = [v * scale for v in vals]
    with working(digits):
        pairs = [_certified(j, +vals[j], t_enclosure(j, digits), digits)
                 for j in range(1, j_max + 1)]
    return _table("recurrence", pairs, digits)


# --- exact symbolic forms ------------------------------------------------

@dataclass(frozen=True)
class SymbolicCoefficient:
    """Exact form t_j = N_j(pi^2) / (D_j * pi^(2j-1)).

    numerator holds the integer coefficients of N_j as a polynomial in
    pi^2 (constant term first); denominator is the positive integer D_j,
    reduced against the numerator's content.
    """

    index: int
    numerator: tuple[int, ...]
    denominator: int

    @property
    def pi_power(self) -> int:
        return 2 * self.index - 1

    def _numerator(self, bits: int, rel: int):
        """(N, pi, bits): N_j(pi^2) and pi enclosed at `bits` fractional bits, the
        bits doubled from the start until N is positive with relative width below
        1/rel (N_j's terms cancel heavily for large j)."""
        while True:
            n_lo, n_hi = fixed_at_pi2(self.numerator, bits)
            if (n_hi - n_lo) * rel < n_lo:
                return (n_lo, n_hi), fixed_pi(bits), bits
            bits *= 2

    def _enclosure(self, digits: int, up: int, down: int) -> IntervalValue:
        """pi^up N_j(pi^2) / (D_j pi^down), N_j within half of 10^-digits relative.

        The numerator is exact and pi^down rounded away from each end; each
        end is divided once, at `fixed_bits(digits)` bits whatever bits N_j
        needed, so an enclosure is never tighter than its precision.
        """
        prec = fixed_bits(digits)
        n, pi, bits = self._numerator(prec, 2 * 10 ** digits)
        ends = []
        for v, p, q, rnd, away in ((n[0], pi[0], pi[1], round_floor, round_ceiling),
                                   (n[1], pi[1], pi[0], round_ceiling, round_floor)):
            power = mpf_pow_int(from_man_exp(q, -bits), down, prec, away)
            den = mpf_mul(from_int(self.denominator), power)  # exact
            ends.append(mpf_div(from_man_exp(v * p ** up, -bits * (up + 1)), den, prec, rnd))
        return IntervalValue._of(*ends)

    def evaluate(self, digits: int = DEFAULT_DIGITS) -> ExtReal:
        """t_j: the midpoint of `evaluate_interval`, at the working precision."""
        require_digits(digits)
        enc = self.evaluate_interval(digits)
        with working(digits):
            return ExtReal(+enc.mid, digits)

    def evaluate_interval(self, digits: int = DEFAULT_DIGITS) -> IntervalValue:
        """Enclosure of t_j = N_j(pi^2)/(D_j pi^(2j-1)), within 10^-digits relative."""
        return self._enclosure(digits, 0, self.pi_power)

    def y_coefficient_interval(self, digits: int = DEFAULT_DIGITS) -> IntervalValue:
        """Enclosure of the y-basis coefficient c_j = t_j pi^(2j) = pi N_j(pi^2)/D_j."""
        return self._enclosure(digits, 1, 0)

    def fixed_y_coefficient(self, bits: int) -> tuple[int, int]:
        """c_j at `bits` fractional bits: N_j within 2^-bits relative, one rounding outward."""
        (n_lo, n_hi), (pi_lo, pi_hi), b = self._numerator(2 * bits, 1 << bits)
        den = self.denominator << (2 * b - bits)
        return pi_lo * n_lo // den, -(-(pi_hi * n_hi) // den)

    def as_string(self) -> str:
        terms = []
        for power, c in enumerate(self.numerator):
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                pi_part = "pi^2" if power == 1 else f"pi^{2 * power}"
                body = pi_part if mag == 1 else f"{mag}*{pi_part}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"{'+' if c > 0 else '-'} {body}")
        num = " ".join(terms) if terms else "0"
        if len(terms) > 1:
            num = f"({num})"
        pi_den = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        den = pi_den if self.denominator == 1 else f"({self.denominator}*{pi_den})"
        return f"{num}/{den}"


@lru_cache(maxsize=None)
def coeff_symbolic(j_max: int) -> tuple[SymbolicCoefficient, ...]:
    """Exact closed forms of t_1..t_{j_max} via the recurrence over rationals.

    Writing t_j = R_j(u)/pi^(2j-1) with u = pi^2 turns the recurrence into

        R_j(u) = 2(2j-3)/j * R_{j-1}(u) - u/(j(j-1)) * R_{j-2}(u),

    with R_0 = 0 and R_1 = 1, which is exact in Fraction arithmetic.
    """
    require_index(j_max)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    polys = [(), (Fraction(1),)]
    for j in range(2, j_max + 1):
        a, b = Fraction(2 * (2 * j - 3), j), Fraction(-1, j * (j - 1))
        polys.append(poly_sum([a * c for c in polys[j - 1]],
                              [0] + [b * c for c in polys[j - 2]]))  # times u
    return tuple(_normalize_symbolic(j, polys[j]) for j in range(1, j_max + 1))


def _normalize_symbolic(j: int, coeffs) -> SymbolicCoefficient:
    denom = math.lcm(*(c.denominator for c in coeffs))
    nums = [int(c * denom) for c in coeffs]
    content = math.gcd(denom, *(abs(n) for n in nums))
    return SymbolicCoefficient(
        index=j,
        numerator=tuple(n // content for n in nums),
        denominator=denom // content,
    )


def poly_sum(*polys) -> tuple:
    """The sum of polynomials in u, constant term first, trailing zeros dropped."""
    out = [sum(rest, first) for first, *rest in zip_longest(*polys, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(a, b) -> tuple:
    """The product of two polynomials in u, trailing zeros dropped."""
    return poly_sum(*([0] * i + [x * y for y in b] for i, x in enumerate(a)))


def fixed_at_pi2(poly, bits: int) -> tuple[int, int]:
    """poly(pi^2) by `fixed_horner` on `fixed_pi` squared, each coefficient rounded once."""
    pi = fixed_pi(bits)
    return fixed_horner([fixed_ratio(c.numerator, c.denominator, bits) for c in poly],
                        fixed_mul(pi, pi, bits), bits)


# --- Bessel route ---------------------------------------------------------

def gamma_half(n: int, digits: int = DEFAULT_DIGITS) -> ExtReal:
    """Gamma(n + 1/2) = sqrt(pi) (2n)! / (4^n n!) for integer n >= 0."""
    require_digits(digits)
    if n < 0:
        raise ValueError("n must be >= 0")
    with working(digits):
        val = mp.sqrt(mp.pi) * mpf(math.factorial(2 * n)) / mpf(4 ** n * math.factorial(n))
        return ExtReal(+val, digits)


def bessel_j_half_integer(j: int, x, digits: int = DEFAULT_DIGITS) -> ExtReal:
    """J_{j-1/2}(x) for finite x > 0 by the defining power series.

    J_nu(x) = sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)); at
    nu = j - 1/2 the Gamma values are Gamma((j+k) + 1/2), supplied by
    gamma_half.  Terms are summed as given until their ratio drops
    below 1 and the next term is negligible.  The result is a value
    only; as t_j it is certified against `t_enclosure`.
    """
    require_digits(digits)
    if j < 0:
        raise ValueError("j must be >= 0")
    with working(digits, extra=5):
        xv = to_mpf(x)
        if not 0 < xv < mp.inf:
            raise ValueError("x must be positive and finite")
        first = mp.power(xv / 2, j - mpf(1) / 2) / gamma_half(j, digits + 5).value
        return ExtReal(+alternating_series(first, xv * xv, 2, 2 * j + 1, digits), digits)


def coeff_bessel(j: int, digits: int = DEFAULT_DIGITS) -> ExtReal:
    """Weight t_j via the identity t_j = pi^(1-j)/(2 j!) * J_{j-1/2}(pi/2).

    The identity's value, unchanged; `coefficient_table` certifies it
    by the one rule against `t_enclosure`.
    """
    require_digits(digits)
    require_index(j)
    if j < 1:
        raise ValueError("j must be >= 1")
    with working(digits, extra=5):
        arg = mp.pi / 2
        jval = bessel_j_half_integer(j, arg, digits + 5).value
        pref = mp.power(mp.pi, 1 - j) / (2 * mpf(math.factorial(j)))
        return ExtReal(+(pref * jval), digits)


# --- generalized series T_j(z) -------------------------------------------

def general_series_direct(j: int, z, digits: int = DEFAULT_DIGITS) -> ExtReal:
    """T_j(z) = sum_k (-z)^k binom(j+k,j)/(2j+2k)! for finite z > 0.

    j = 0 is permitted (T_0(z) = cos(sqrt(z))); it seeds the recurrence
    route.  Successive term magnitudes have ratio z/(2(k+1)(2j+2k+1)),
    so the sum proceeds term by term until the ratio is below 1 and the
    alternating tail bound takes over.
    """
    require_digits(digits)
    require_index(j)
    if j < 0:
        raise ValueError("j must be >= 0")
    with working(digits, extra=5):
        zv = to_mpf(z)
        if not 0 < zv < mp.inf:
            raise ValueError("z must be positive and finite")
        first = mpf(1) / mpf(math.factorial(2 * j))
        return ExtReal(+alternating_series(first, zv, 2, 2 * j + 1, digits), digits)


def general_series_recurrence(j_max: int, z, digits: int = DEFAULT_DIGITS) -> list[ExtReal]:
    """T_1(z)..T_{j_max}(z) by `_backward` with w = 4z,

        T_{j-2}(z) = (j-1) (2(2j-3) T_{j-1}(z) - 4jz T_j(z)),

    normalized by whichever of T_0 = cos(sqrt(z)) and T_1 = sin(sqrt(z))/(2 sqrt(z))
    is larger in magnitude (they never vanish together), each from the
    direct series at digits + 30.  Restricted to finite z > 0, where the
    direct series and the Bessel form both converge.
    """
    require_digits(digits)
    require_index(j_max)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    zf = float(to_mpf(z))
    if not 0 < zf < math.inf:
        raise ValueError("z must be positive and finite")
    seeds = [general_series_direct(j, z, digits + 30).value for j in (0, 1)]
    with working(digits, extra=MILLER_EXTRA):
        vals = _backward(to_mpf(z), j_max)
        k = 0 if abs(seeds[0]) >= abs(seeds[1]) else 1
        scale = seeds[k] / vals[k]
        vals = [v * scale for v in vals[1:]]
    with working(digits):
        return [ExtReal(+v, digits) for v in vals]


def coefficient_table(
    j_max: int, digits: int = DEFAULT_DIGITS, route: Route = "recurrence"
) -> CoefficientTable:
    """Build the t_1..t_{j_max} table by the requested route."""
    require_index(j_max)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if route == "recurrence":
        return coeff_recurrence(j_max, digits)
    if route == "direct":
        return _table(route, [coeff_direct(j, digits) for j in range(1, j_max + 1)], digits)
    if route == "bessel":
        pairs = [_certified(j, coeff_bessel(j, digits).value, t_enclosure(j, digits), digits)
                 for j in range(1, j_max + 1)]
        return _table(route, pairs, digits)
    raise ValueError(f"unknown route {route!r}")
