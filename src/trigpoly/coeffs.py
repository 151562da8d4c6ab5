"""Expansion coefficients for cos(pi*x) in powers of (1/4 - x^2).

The target identity is

    cos(pi*x) = sum_{j>=1} c_j * (1/4 - x^2)^j,      c_j = t_j * pi^(2j),

where each weight t_j is given by the alternating series

    t_j = sum_{k>=0} (-pi^2/4)^k * binom(j+k, j) / (2j+2k)!

and satisfies 0 < t_j < 1/(2j)!.  The series' terms decrease from the
first, so `t_enclosure` encloses t_j with outward rounding (the
fixed-point kernel `intervals.fixed_t_scaled`, then one outward division
by (2j)!), and `c_enclosure` encloses c_j the same way at a few more
bits, times pi^(2j) rounded outward: the one source of c_j for the
approximants' coefficients, the verify checks and the symbolic forms'
values.  t_j is computed by three routes -- the series (the enclosure's
midpoint), a three-term recurrence and a half-integer Bessel identity --
plus an exact symbolic form, with its helpers in Q[u], u = pi^2:
`poly_sum`, `poly_mul`, `fixed_at_pi2`.  The recurrence, shared with
T_j(z) below, runs in one loop, `_downward`: one outward-rounded pass
down it in fixed point, seeded by the series at J and J - 1 (t_j is its
minimal solution, so down is the stable direction).  `t_enclosures`,
that pass at z = pi^2/4, encloses a whole table t_1..t_J in O(J) steps,
and the recurrence route's values are its midpoints; the symbolic form
runs the recurrence forward over Fractions.
Every route's certificate comes from an enclosure by one rule:
trunc_bound = max(hi - v, v - lo), rounded up, for the route's value v;
the direct route's from its own `t_enclosure`, the recurrence and Bessel
tables' from `t_enclosures`.  A value rounded from an enclosure is its
exact midpoint rounded to nearest at `fixed_bits(digits)` bits (`_mid`),
and an argument z or x is rounded once to those bits by `to_mpf`: no
function here reads or sets mpmath's context.  Inside the module an
enclosure travels as its raw ends, a pair of libmp tuples (lo, hi), from
the recurrence, the series and the Bessel ladder to `_mid` and
`_certified`; it becomes an `IntervalValue` only where a public function
returns one (`t_enclosure`, `t_enclosures`, `c_enclosure`,
`SymbolicCoefficient.evaluate_interval`).

The generalized series T_j(z) = sum_k (-z)^k binom(j+k,j)/(2j+2k)!
recovers t_j at z = pi^2/4 and is exposed for cross-checks.  It and
J_{j-1/2} are the same alternating series, each term the last times
z/((2k+2)(2k+2j+1)) (z = x^2 for the Bessel function), summed by
`intervals.series_ends`; each value is its enclosure's midpoint.
Their terms grow for about sqrt(z)/2 steps before they fall, so an
argument with z above MAX_SERIES_Z = 10^6 is refused.  The Bessel
series' first terms, h^(j-1/2)/Gamma(j+1/2) (times pi^(1-j)/(2 j!) at
h = pi/4 for t_j), come from one outward-rounded ladder in j, `_ladder`:
a Bessel table of J takes O(J) directed operations plus one series per
j.  At x = pi/2 the Bessel series is the direct one term for term, so
the two routes differ only in how the first term is rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Literal

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, mpf_add, mpf_cmp, mpf_div, mpf_le, mpf_mul, mpf_pi,
                          mpf_pow_int, mpf_shift, mpf_sign, mpf_sqrt, mpf_sub, round_ceiling,
                          round_floor, round_nearest, to_float)

from .intervals import (
    IntervalValue,
    ends_from_fixed,
    fixed_bits,
    fixed_from_ends,
    fixed_horner,
    fixed_mul,
    fixed_pi,
    fixed_ratio,
    fixed_t_scaled,
    series_ends,
)
from .precision import (
    DEFAULT_DIGITS,
    ExtReal,
    require_digits,
    require_index,
    to_mpf,
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
    "c_enclosure",
    "fixed_at_pi2",
    "gamma_half",
    "general_series_direct",
    "general_series_recurrence",
    "poly_mul",
    "poly_sum",
    "t_enclosure",
    "t_enclosures",
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
        digits, fact, scale = self.precision_digits, 1, 10 ** self.precision_digits
        for pos, entry in enumerate(self.entries, start=1):
            fact *= (2 * pos - 1) * 2 * pos  # (2 pos)!
            if entry.j != pos:
                raise ValueError("entries must be contiguous in j starting at 1")
            # exact integer comparisons on the raw mpfs v = v_man 2^v_exp and
            # bound = b_man 2^b_exp (mpmath's inf and nan have a zero mantissa)
            v_sign, v_man, v_exp, _ = entry.value.value._mpf_
            b_sign, b_man, b_exp, _ = entry.trunc_bound.value._mpf_
            if v_sign or not v_man or v_exp >= 0 or (v_man * fact) >> -v_exp:
                raise ValueError(f"coefficient {pos} outside (0, 1/(2j)!)")
            b, shift = (-b_man if b_sign else b_man) * scale, b_exp - v_exp  # bound 10^digits
            if (not b_man and b_exp) or not (b << shift < v_man if shift >= 0
                                             else b < v_man << -shift):
                raise ValueError(f"coefficient {pos} certificate not below 10^-{digits} relative")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def value(self, j: int) -> ExtReal:
        """t_j for 1 <= j <= len(self); IndexError for any other j."""
        if not 1 <= j <= len(self.entries):
            raise IndexError(f"j = {j} outside 1..{len(self.entries)}")
        return self.entries[j - 1].value


def _mid(enc: tuple, digits: int) -> ExtReal:
    """The one midpoint rule: the exact midpoint of the raw ends enc = (lo, hi) rounded to
    nearest at `fixed_bits(digits)` bits."""
    mid = mpf_add(enc[0], enc[1], fixed_bits(digits), round_nearest)
    return ExtReal(mp.make_mpf(mpf_shift(mid, -1)), digits)


def _t_ends(j: int, bits: int) -> tuple:
    # raw ends of t_j: `fixed_t_scaled` at `bits` bits, divided outward by (2j)!
    return ends_from_fixed(fixed_t_scaled(j, bits), bits, math.factorial(2 * j))


def t_enclosure(j: int, digits: int = DEFAULT_DIGITS) -> IntervalValue:
    """Enclosure of t_j: `fixed_t_scaled` at `fixed_bits(digits)` bits, divided outward by (2j)!."""
    return IntervalValue._of(*_t_ends(j, fixed_bits(digits)))


# fractional bits `_downward` and `c_enclosure` carry beyond their precision, so
# that the roundings of up to 200 recurrence steps, or of a series' terms times
# pi^(2j), stay below those of one `t_enclosure`
T_GUARD_BITS = 8


def _c_ends(j: int, bits: int) -> tuple:
    # raw ends of c_enclosure(j, bits)
    require_index(j)
    prec = bits + T_GUARD_BITS
    return tuple(mpf_mul(v, mpf_pow_int(mpf_pi(prec, rnd), 2 * j, prec, rnd), prec, rnd)
                 for v, rnd in zip(_t_ends(j, prec), (round_floor, round_ceiling)))


def c_enclosure(j: int, bits: int) -> IntervalValue:
    """Enclosure of c_j = t_j pi^(2j), no wider than 4 units at `bits` fractional bits.

    `t_enclosure`'s series at bits + T_GUARD_BITS, times pi^(2j), each end
    rounded outward by libmp at that precision.  Per j, so c_j does not
    depend on how many coefficients a caller asks for.
    """
    return IntervalValue._of(*_c_ends(j, bits))


def _downward(z: tuple, j_max: int, prec: int) -> list[tuple]:
    """Raw ends of T_1(z)..T_{j_max}(z) (item j - 1 holds T_j) by one pass down the recurrence

        s_{j-2} = s_{j-1} - z s_j / ((2j-1)(2j-3)),   s_j = T_j(z) (2j)!,

    for non-negative raw ends z: fixed point at prec + T_GUARD_BITS bits
    plus the bits the widths can grow by, log2 prod_j (1 + z/((2j-1)(2j-3))),
    seeded by `series_ends` (which adds its terms' growth) at j_max and
    j_max - 1.  Each step subtracts the product rounded up from the lower
    end and rounded down from the upper one, its ends picked by the sign of
    s_j (T_1 < 0 for some z > pi^2), so the pair still encloses s_{j-2};
    each s_j is then divided outward by (2j)!.  The one recurrence loop.
    """
    zf = to_float(z[1], rnd=round_nearest)
    growth = sum(math.log2(1 + zf / ((2 * j - 1) * (2 * j - 3))) for j in range(3, j_max + 1))
    bits = prec + T_GUARD_BITS + math.ceil(growth)
    z_lo, z_hi = fixed_from_ends(z, bits)
    s = [None] * (j_max + 1)
    for j in range(max(1, j_max - 1), j_max + 1):
        s[j] = fixed_from_ends(series_ends((fone, fone), z, 2, 2 * j + 1, bits), bits)
    for j in range(j_max, 2, -1):
        (lo1, hi1), (lo, hi) = s[j - 1], s[j]
        d = ((2 * j - 1) * (2 * j - 3)) << bits
        # z s_j / d rounded up off the lower end, rounded down off the upper
        p_lo, p_hi = lo * (z_hi if lo < 0 else z_lo), hi * (z_lo if hi < 0 else z_hi)
        s[j - 2] = lo1 + -p_hi // d, hi1 - p_lo // d
    out, fact = [], 1
    for j in range(1, j_max + 1):
        fact *= (2 * j - 1) * 2 * j
        out.append(ends_from_fixed(s[j], bits, fact))
    return out


def _t_table_ends(j_max: int, digits: int) -> list[tuple]:
    # raw ends of t_enclosures(j_max, digits)
    require_index(j_max)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    bits = 2 * fixed_bits(digits)
    z = ends_from_fixed(fixed_mul(fixed_pi(bits), fixed_pi(bits), bits), bits + 2)
    return _downward(z, j_max, fixed_bits(digits))


def t_enclosures(j_max: int, digits: int = DEFAULT_DIGITS) -> list[IntervalValue]:
    """Enclosures of t_1..t_{j_max} (item j - 1 holds t_j): `_downward` at z = pi^2/4.

    O(j_max) steps at `fixed_bits(digits)` bits and its guard, where
    `t_enclosure` sums a series for each j; z is enclosed at twice those
    bits, so its width adds nothing the pass can see.
    """
    return [IntervalValue._of(*enc) for enc in _t_table_ends(j_max, digits)]


def _certified(v: mpf, enc: tuple, digits: int) -> tuple[ExtReal, ExtReal]:
    """(v, trunc_bound) by the one rule: trunc_bound = max(hi - v, v - lo), rounded up.

    The raw ends enc = (lo, hi) enclose t_j (`t_enclosure(j, digits)`'s on
    the direct route, the `t_enclosures` entry's on the recurrence and
    Bessel routes), so the bound covers |v - t_j| wherever v lies.
    """
    above = mpf_sub(enc[1], v._mpf_, 64, round_ceiling)
    below = mpf_sub(v._mpf_, enc[0], 64, round_ceiling)
    bound = above if mpf_cmp(above, below) >= 0 else below
    return ExtReal(v, digits), ExtReal(mp.make_mpf(bound), digits)


def _table(route: Route, pairs, digits: int) -> CoefficientTable:
    entries = (CoefficientEntry(j, v, route, b) for j, (v, b) in enumerate(pairs, start=1))
    return CoefficientTable(entries=tuple(entries), precision_digits=digits)


def coeff_direct(j: int, digits: int = DEFAULT_DIGITS) -> tuple[ExtReal, ExtReal]:
    """(value, trunc_bound) of t_j from its direct series: the rounded midpoint of `t_enclosure`."""
    require_digits(digits)
    require_index(j)
    if j < 1:
        raise ValueError("j must be >= 1")
    enc = _t_ends(j, fixed_bits(digits))
    return _certified(_mid(enc, digits).value, enc, digits)


def coeff_recurrence(j_max: int, digits: int = DEFAULT_DIGITS) -> CoefficientTable:
    """Weights t_1..t_{j_max} from one pass down the three-term recurrence

        t_{j-2} = (j-1) (2(2j-3) t_{j-1} - pi^2 j t_j):

    each value is the exact midpoint of its `t_enclosures` entry, so it lies
    inside it, and its certificate the one rule's against that entry.
    """
    require_digits(digits)
    pairs = [_certified(mp.make_mpf(mpf_shift(mpf_add(lo, hi), -1)), (lo, hi), digits)
             for lo, hi in _t_table_ends(j_max, digits)]
    return _table("recurrence", pairs, digits)


# --- exact symbolic forms ------------------------------------------------

@dataclass(frozen=True)
class SymbolicCoefficient:
    """Exact form t_j = N_j(pi^2) / (D_j * pi^(2j-1)).

    numerator holds the integer coefficients of N_j as a polynomial in
    pi^2 (constant term first); denominator is the positive integer D_j,
    reduced against the numerator's content.  N_j's terms cancel by
    hundreds of digits for large j, so the form's values are read from
    the direct series instead: `t_enclosure` and `c_enclosure`.
    """

    index: int
    numerator: tuple[int, ...]
    denominator: int

    @property
    def pi_power(self) -> int:
        return 2 * self.index - 1

    def evaluate(self, digits: int = DEFAULT_DIGITS) -> ExtReal:
        """t_j: the midpoint of `evaluate_interval`, rounded to nearest at `fixed_bits(digits)`."""
        require_digits(digits)
        return _mid(_t_ends(self.index, fixed_bits(digits)), digits)

    def evaluate_interval(self, digits: int = DEFAULT_DIGITS) -> IntervalValue:
        """Enclosure of t_j: `t_enclosure(j, digits)`, within 10^-digits relative."""
        return t_enclosure(self.index, digits)

    def y_coefficient_interval(self, digits: int = DEFAULT_DIGITS) -> IntervalValue:
        """Enclosure of c_j = t_j pi^(2j): `c_enclosure(j, fixed_bits(digits))`."""
        return c_enclosure(self.index, fixed_bits(digits))

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
    prec = fixed_bits(digits)
    num, den = from_int(math.factorial(2 * n)), from_int(4 ** n * math.factorial(n))
    return _mid(tuple(
        mpf_div(mpf_mul(mpf_sqrt(mpf_pi(prec, rnd), prec, rnd), num, prec, rnd), den, prec, rnd)
        for rnd in (round_floor, round_ceiling)), digits)


def _ladder(h: tuple, pi: tuple, j_max: int, prec: int, weighted: bool) -> list[tuple]:
    """Raw ends of A_j = h^(j-1/2)/Gamma(j+1/2), j = 0..j_max, in one pass at `prec` bits:
    A_0 = 1/sqrt(pi h), A_j = A_{j-1} h/(j - 1/2); if `weighted`, item j >= 1 is A_j B_j,
    B_j = pi^(1-j)/(2 j!) (B_1 = 1/2, B_j = B_{j-1}/(pi j)).  h and pi are raw ends, 0 < h_lo;
    all factors are positive, so a lower end is rounded down from the factors' lower ends
    and the divisors' upper ones, an upper end the reverse."""
    sides = []
    for rnd, away, h_mul, h_div, p in ((round_floor, round_ceiling, h[0], h[1], pi[1]),
                                       (round_ceiling, round_floor, h[1], h[0], pi[0])):
        a = mpf_div(fone, mpf_sqrt(mpf_mul(p, h_div, prec, away), prec, away), prec, rnd)
        col, two_h = [a], mpf_shift(h_mul, 1)
        for j in range(1, j_max + 1):
            # h/(j - 1/2) = 2h/(2j - 1); B_j = B_{j-1}/(pi j) divides by j here, by pi below
            d = from_int((2 * j - 1) * (j if weighted else 1))
            a = mpf_div(mpf_mul(a, two_h, prec, rnd), d, prec, rnd)
            if weighted:
                a = mpf_div(a, p, prec, rnd) if j > 1 else mpf_shift(a, -1)
            col.append(a)
        sides.append(col)
    return list(zip(*sides))


def _bessel(js: range, digits: int, h: tuple | None = None) -> list[tuple]:
    """Raw ends of J_{j-1/2}(2h) for j in js, h in raw ends with 0 < h_lo, or with no h of
    t_j = pi^(1-j)/(2 j!) J_{j-1/2}(pi/2): `_ladder`'s first terms (to max(js), weighted at
    h = pi/4) times `series_ends` at z = (2h)^2, each term the last times
    -z/((2k+2)(2k+2j+1)), at `fixed_bits(digits) + T_GUARD_BITS` bits."""
    require_digits(digits)
    prec = fixed_bits(digits) + T_GUARD_BITS
    pi = mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)
    weighted, h = h is None, h or tuple(mpf_shift(v, -2) for v in pi)
    firsts = _ladder(h, pi, js[-1], prec, weighted)
    z = tuple(mpf_shift(mpf_mul(v, v), 2) for v in h)  # x^2 = (2h)^2, exact
    return [series_ends(firsts[j], z, 2, 2 * j + 1, prec) for j in js]


# the largest z (x^2 for the Bessel function) the series are summed at: their terms
# grow for about sqrt(z)/2 steps before they fall, so z = 10^8 takes over a second
MAX_SERIES_Z = 10 ** 6


def _positive_finite(x, name: str, prec: int, squared: bool = False) -> tuple:
    """x rounded to nearest at `prec` bits, as a raw mpf, refused unless 0 < z <= MAX_SERIES_Z
    for z = x (or x^2 if `squared`), compared exactly."""
    v = to_mpf(x, prec)._mpf_
    if not (mpf_sign(v) > 0 and mpf_le(mpf_mul(v, v) if squared else v, from_int(MAX_SERIES_Z))):
        bound = f"{name}^2" if squared else name
        raise ValueError(f"{name} must be positive and finite, with {bound} <= {MAX_SERIES_Z}")
    return v


def bessel_j_half_integer(j: int, x, digits: int = DEFAULT_DIGITS) -> ExtReal:
    """J_{j-1/2}(x) for 0 < x <= 1000 (x^2 <= MAX_SERIES_Z) by the defining power series
    J_nu(x) = sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)): the midpoint of `_bessel`'s
    enclosure for x rounded to nearest at `fixed_bits(digits)` bits."""
    if j < 0:
        raise ValueError("j must be >= 0")
    h = mpf_shift(_positive_finite(x, "x", fixed_bits(digits), squared=True), -1)
    return _mid(_bessel(range(j, j + 1), digits, (h, h))[0], digits)


def coeff_bessel(j: int, digits: int = DEFAULT_DIGITS) -> ExtReal:
    """Weight t_j via the identity t_j = pi^(1-j)/(2 j!) * J_{j-1/2}(pi/2): the midpoint
    of `_bessel`'s enclosure, the j-th value of `coefficient_table(route="bessel")`."""
    require_index(j)
    if j < 1:
        raise ValueError("j must be >= 1")
    return _mid(_bessel(range(j, j + 1), digits)[0], digits)


# --- generalized series T_j(z) -------------------------------------------

def general_series_direct(j: int, z, digits: int = DEFAULT_DIGITS) -> ExtReal:
    """T_j(z) = sum_k (-z)^k binom(j+k,j)/(2j+2k)! for 0 < z <= MAX_SERIES_Z.

    j = 0 is permitted (T_0(z) = cos(sqrt(z))); it seeds the recurrence
    route.  Each term is the last times z/((2k+2)(2k+2j+1)); the value is
    the midpoint of the enclosure `series_ends` gives for z rounded to
    nearest at `fixed_bits(digits)` bits, the first term 1/(2j)! rounded
    outward.
    """
    require_digits(digits)
    require_index(j)
    if j < 0:
        raise ValueError("j must be >= 0")
    prec = fixed_bits(digits)
    zv = _positive_finite(z, "z", prec)
    fact = from_int(math.factorial(2 * j))
    first = mpf_div(fone, fact, prec, round_floor), mpf_div(fone, fact, prec, round_ceiling)
    return _mid(series_ends(first, (zv, zv), 2, 2 * j + 1, prec), digits)


def general_series_recurrence(j_max: int, z, digits: int = DEFAULT_DIGITS) -> list[ExtReal]:
    """T_1(z)..T_{j_max}(z) for 0 < z <= MAX_SERIES_Z from one pass down the recurrence

        T_{j-2}(z) = (j-1) (2(2j-3) T_{j-1}(z) - 4jz T_j(z)):

    each value is the midpoint of its `_downward` enclosure, for z rounded
    to nearest at `fixed_bits(digits)` bits.
    """
    require_digits(digits)
    require_index(j_max)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    prec = fixed_bits(digits)
    zv = _positive_finite(z, "z", prec)
    return [_mid(enc, digits) for enc in _downward((zv, zv), j_max, prec)]


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
        bessel = _bessel(range(1, j_max + 1), digits)
        pairs = [_certified(_mid(b, digits).value, enc, digits)
                 for b, enc in zip(bessel, _t_table_ends(j_max, digits))]
        return _table(route, pairs, digits)
    raise ValueError(f"unknown route {route!r}")
