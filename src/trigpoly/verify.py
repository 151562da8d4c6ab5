"""Executable checks for the expansion's inequalities and identities.

No report rests on sampled points or on a tolerance: each is exact
arithmetic, or a proof whose hypotheses are checked exactly, or reads
outward-rounded enclosures from the fixed-point kernel of `intervals`,
at `fixed_bits(digits)` fractional bits.  A margin is exact or the
lower end of such an enclosure, rounded down.

One lemma covers t_j for every j (`_t_lemma`).  In s_j = t_j (2j)!,
successive terms shrink by z/((2k+2)(2k+2j+1)) <= pi^2/24, z = pi^2/4;
so once pi^2 < 24, checked in integers from `fixed_pi`'s upper end, the
series alternates with decreasing terms, 1 - pi^2/(8(2j+1)) < s_j < 1
for every j >= 1, and every c_j = t_j pi^(2j) is positive.  The
coefficient check reports the lemma and, as a test of the kernel, the
enclosures of s_j (`fixed_t_scaled`) for j <= j_max.  The bracketing
and Maclaurin reports are proofs for every x in the domain that cite
the lemma: with the expansion identity, target = sum_j c_j y^j,
positive c_j make P_m < P_{m+1} < target for every m; and the remainder
of sin's n-term Maclaurin sum has the sign of (-1)^n for every t > 0.
They check their hypotheses exactly, the bracketing report the lower
ends of c_1..c_{m_max+2}'s enclosures too, and the Maclaurin report
keeps one certified number, its margins at x = 1.

The Bessel and Taylor checks are exact: their identities are
compared in Fraction arithmetic, the Taylor one as polynomials in
u = pi^2 over Q, and each margin is an outward-rounded lower end (the
Bessel route's certificates, the Taylor contact coefficient c_{m+1}),
rounded down.  The positivity
prover bisects dyadic tiles on the same kernel: it accepts a tile whose
enclosure is positive and stops at one whose enclosure is negative.  It
can return "inconclusive" or a refutation, never a false positive.  The
worked example's polynomial f4 is exact in Q[pi^2] (`sine_monomials(4)`)
and enclosed once per bits; `example_curve` reads the same Q, as Q/pi by
exact integer Horner in y's numerator, and one sine per abscissa, as
2 sin^2(pi x) + sin^2(2 pi x) = 6S - 4S^2 with S = sin^2(pi x); its values
are correctly rounded floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_sqrt, round_nearest, to_float

from .approx import COS_PI_X, SIN_PI_X, _check_func, sine_monomials
from .coeffs import _c_ends, coeff_symbolic, coefficient_table, fixed_at_pi2, poly_mul, poly_sum
from .intervals import (IntervalValue, _fixed_sin_cos_args, exact_ratio, fixed_bits,
                        fixed_from_ends, fixed_from_interval, fixed_pi, fixed_ratio,
                        fixed_series, fixed_sin_cos_pi, fixed_t_scaled, interval_from_fixed,
                        nearest_double, poly_eval_centered, to_double)
from .precision import DEFAULT_DIGITS, require_digits, require_index

__all__ = [
    "PositivityProof",
    "PropertyReport",
    "check_bessel_identity",
    "check_bracketing",
    "check_coefficient_bounds",
    "check_maclaurin_interleaving",
    "check_taylor_exactness",
    "example_curve",
    "example_inequality_polynomial",
    "prove_example_inequality",
    "prove_polynomial_positive",
    "report_line",
    "reports_to_json",
]

_EVIDENCE = "outward-rounded fixed-point enclosure"
_LEMMA = "lemma pi^2 < 24"


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one check or proof; failures carry a counterexample."""

    property_id: str
    status: str  # "pass" or "fail"
    worst_case: tuple[str, float]  # (input description, margin)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def report_line(report: PropertyReport) -> str:
    where, margin = report.worst_case
    return f"{report.property_id},{report.status},{margin!r},{where}"


def reports_to_json(reports) -> str:
    docs = [
        {
            "property_id": r.property_id,
            "status": r.status,
            "worst_case": {"input": r.worst_case[0], "margin": r.worst_case[1]},
            "metadata": r.metadata,
        }
        for r in reports
    ]
    return json.dumps(docs, indent=2, default=str)


class _Worst:
    """Track the minimum margin and where it happened; the first of equal margins wins."""

    def __init__(self):
        self.margin = None
        self.where = ""

    def update(self, margin, fmt: str, *parts) -> None:
        if self.margin is None or margin < self.margin:
            self.margin = margin
            self.where = fmt.format(*parts)

    def report(self, property_id: str, metadata: dict) -> PropertyReport:
        ok = self.margin is not None and self.margin > 0
        return PropertyReport(
            property_id=property_id,
            status="pass" if ok else "fail",
            worst_case=(self.where, float(self.margin)),
            metadata=metadata,
        )


def _t_lemma(bits: int) -> dict:
    """The lemma on t_j for every j >= 1, its hypothesis pi^2 < 24 checked exactly.

    s_j = t_j (2j)! = sum_k (-z)^k binom(j+k, j) (2j)!/(2j+2k)!, z = pi^2/4,
    and term k+1 is term k times z/((2k+2)(2k+2j+1)) <= z/6 = pi^2/24.  So
    if pi^2 < 24 the terms decrease from the first for every j, and the
    alternating sum lies strictly between 1 - pi^2/(8(2j+1)) and 1: t_j > 0,
    and c_j = t_j pi^(2j) > 0.  The check is pi_hi^2 < 24 * 4^bits in
    integers, pi_hi the ceiling of pi 2^bits (`fixed_pi`); the margin,
    (24 - pi_hi^2/4^bits)/24 rounded down, is a lower bound of 1 - pi^2/24.
    """
    pi_hi = fixed_pi(bits)[1]
    den = 24 << 2 * bits
    return {
        "statement": "pi^2 < 24, so 1 - pi^2/(8(2j+1)) < t_j (2j)! < 1 and c_j > 0 "
                     "for every j >= 1",
        "holds": pi_hi * pi_hi < den,
        "margin": to_double(den - pi_hi * pi_hi, den, -1),
        "evidence": "exact integer comparison pi_hi^2 < 24 * 4^bits, pi_hi = ceil(pi 2^bits)",
        "bits": bits,
    }


def check_coefficient_bounds(j_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """0 < t_j < 1/(2j)! and the two-term bracket 1 - pi^2/(8(2j+1)) < t_j (2j)! < 1.

    For every j, by the lemma (`_t_lemma`), whose margin the report
    includes and whose record is the metadata's `lemma`.  As a test of the
    kernel, the margins for j <= j_max are the lower ends, rounded down, of
    outward enclosures of s_j = t_j (2j)!, 1 - s_j and
    s_j - (1 - pi^2/(8(2j+1))); a pass needs every margin positive.
    """
    require_digits(digits)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    bits = fixed_bits(digits)
    one = 1 << bits
    pi2_lo = fixed_pi(bits)[0] ** 2  # at 2 * bits fractional bits
    lemma = _t_lemma(bits)
    worst = _Worst()
    worst.update(lemma["margin"], _LEMMA)
    for j in range(1, j_max + 1):
        s_lo, s_hi = fixed_t_scaled(j, bits)
        bracket_hi = one - pi2_lo // (8 * (2 * j + 1) << bits)
        for margin, what in ((s_lo, "positivity"), (one - s_hi, "upper"),
                             (s_lo - bracket_hi, "bracket")):
            # rounding the nearest quotient down one step gives a lower bound
            worst.update(math.nextafter(margin / one, -math.inf), "j={} " + what, j)
    return worst.report(
        "coeff_bounds",
        {"j_max": j_max, "digits": digits, "evidence": _EVIDENCE, "base_bits": bits,
         "lemma": lemma},
    )


@lru_cache(maxsize=32)
def _fixed_coefficients(n: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Enclosures of c_1..c_n at `bits` fractional bits: each `c_enclosure`, rounded outward."""
    return tuple(fixed_from_ends(_c_ends(j, bits), bits) for j in range(1, n + 1))


_DOMAIN = {COS_PI_X: "-1/2 < x < 1/2, where y = 1/4 - x^2 is in (0, 1/4]",
           SIN_PI_X: "0 < x < 1, where y = x(1 - x) is in (0, 1/4]"}


def check_bracketing(func: str, m_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """Monotone bracketing, proved for every m >= 1 and every x in the open domain.

    There 0 < y <= 1/4, the expansion identity gives target = sum_j c_j y^j,
    and the lemma (`_t_lemma`) gives every c_j > 0.  So P_{m+1} - P_m =
    c_{m+1} y^{m+1} > 0, a chain margin (over c_{m+1} y^{m+1}) of exactly 1,
    and target - P_{m+1} = sum_{j>m+1} c_j y^j > c_{m+2} y^{m+2}, a delta
    margin (over c_{m+2} y^{m+2}) above 1, with infimum 1 as y -> 0.  The
    hypotheses are checked exactly: the lemma, and the lower ends of the
    enclosures of c_1..c_{m_max+2} (`_fixed_coefficients`), which must be
    positive, a cross-check of the kernel against the lemma.  When they
    hold the margin is 1.0; otherwise the report fails, its worst case the
    failing hypothesis with the least margin, <= 0.
    """
    require_digits(digits)
    _check_func(func)
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    bits = fixed_bits(digits)
    lemma = _t_lemma(bits)
    worst = _Worst()
    if not lemma["holds"]:
        worst.update(lemma["margin"], _LEMMA)
    for j, (c_lo, _) in enumerate(_fixed_coefficients(m_max + 2, bits), start=1):
        if c_lo <= 0:
            worst.update(to_double(c_lo, 1 << bits, -1), "j={} c_j lower end", j)
    if worst.margin is None:
        worst.update(1.0, "m>=1 every x chain")
    return worst.report(
        f"bracketing_{'cos' if func == COS_PI_X else 'sin'}",
        {
            "m_max": m_max,
            "digits": digits,
            "scope": "all x in the domain, every m",
            "domain": _DOMAIN[func],
            "evidence": "proof from target = sum_j c_j y^j and the lemma: P_{m+1} - P_m = "
                        "c_{m+1} y^{m+1}, target - P_{m+1} = sum_{j>m+1} c_j y^j",
            "margin": "chain exactly 1; delta above 1, infimum 1 as y -> 0",
            "lemma": lemma,
            "checked": f"lower ends of c_1..c_{m_max + 2} positive at base_bits",
            "base_bits": bits,
        },
    )


def check_bessel_identity(j_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """T_j(z) = sqrt(pi)/(j! 2^(j+1/2)) z^(1/4-j/2) J_{j-1/2}(sqrt(z)), term by term.

    With J_nu(x) = sum_k (-1)^k (x/2)^(nu+2k)/(k! Gamma(nu+k+1)) and
    Gamma(n+1/2) = sqrt(pi) (2n)!/(4^n n!), sqrt(pi) cancels and the
    powers of z meet at z^k.  Checked in Fraction for each j <= j_max: the
    Bessel form's first term is 1/(2j)!, as the series', and its term ratio
    z/(4(k+1)(k+nu+1)) equals the series' z/((2k+2)(2k+2j+1)) as
    polynomials in k; so the two agree for every k and every z > 0.

    The route part reads the outward-rounded certificates of
    coefficient_table(j_max, digits, route="bessel"); its margin is
    t_j/(10^digits trunc_bound) - 1, the factor by which the certificate
    beats the 10^-digits relative tolerance it must stay below, less one:
    positive exactly when it does, exact, least over j and rounded down,
    so that it stays a normal double at any digits.  A table that refuses
    a certificate fails the report.
    """
    require_digits(digits)
    require_index(j_max)  # an IndexLimitError is the caller's, not a refused route
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    worst = _Worst()
    for j in range(1, j_max + 1):
        nu = Fraction(2 * j - 1, 2)
        # Gamma(j + 1/2)/sqrt(pi)
        gamma = Fraction(math.factorial(2 * j), 4 ** j * math.factorial(j))
        first = 1 / (math.factorial(j) * 2 ** (2 * j) * gamma)
        # the ratios' denominators are quadratics in k: equal at 3 points, equal
        same_ratio = all(4 * (k + 1) * (k + nu + 1) == (2 * k + 2) * (2 * k + 2 * j + 1)
                         for k in range(3))
        if first != Fraction(1, math.factorial(2 * j)) or not same_ratio:
            worst.update(-math.inf, "j={} term", j)
    try:
        table = coefficient_table(j_max, digits, route="bessel")
    except ValueError as exc:
        worst.update(-math.inf, "route refused: {}", str(exc))
    else:
        # the least margin, 1/r - 1, is at the largest r = 10^digits trunc_bound/t_j,
        # the first such j; only it is rounded, since margins that differ only
        # past a double's precision round alike
        scale = 10 ** digits
        r, j = max((scale * Fraction(*exact_ratio(e.trunc_bound.value))
                    / Fraction(*exact_ratio(e.value.value)), -e.j) for e in table)
        worst.update(to_double(r.denominator - r.numerator, r.numerator, -1), "j={} route", -j)
    return worst.report(
        "bessel_identity",
        {"j_max": j_max, "digits": digits,
         "evidence": "exact term identity over Q; route certified by the enclosure",
         "margin": "t_j/(10^digits trunc_bound) - 1, rounded down"},
    )


_SUB_CHAINS = ("even-step", "even-below", "odd-above", "prev-odd-above")


def check_maclaurin_interleaving(j_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """Alternating Maclaurin brackets for sin(pi x), proved for every x in (0, 1].

    With S_n the n-term Maclaurin sum of sin t, the remainder sin t - S_n
    has the sign of (-1)^n for every t > 0: integrate cos t - 1 <= 0 from
    0, then repeat.  So sin(pi x) < S_{2j+1}, sin(pi x) < S_{2j-1} and
    S_{2j+2} < sin(pi x), for every j and every x > 0; and S_{2j+2} - S_{2j}
    = t^(4j+1)/(4j+1)! (1 - t^2/((4j+2)(4j+3))) > 0 for t = pi x <= pi,
    as pi^2 < 24 < (4j+2)(4j+3) by the lemma (`_t_lemma`), checked
    exactly.  One certified number is kept: each sub-chain's margin at
    x = 1, its difference over the first term its lower side drops,
    enclosed by the fixed-point kernel at that one point (`fixed_series`
    summing n terms and the whole series), the least lower end reported.
    The five-way chain with S_{2j-1} < S_{2j+1} needs (pi x)^2 > 4j(4j+1),
    so it holds for no x in (0, 1]; its threshold sqrt(4j(4j+1))/pi is
    reported in the metadata instead of being asserted.
    """
    require_digits(digits)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    bits = fixed_bits(digits)
    lemma = _t_lemma(bits)
    worst = _Worst()
    if not lemma["holds"]:
        worst.update(lemma["margin"], _LEMMA)
    # at x = 1: sums[k] encloses S_{k+1} and mags[k] the magnitude of term k; the sine is last
    args = _fixed_sin_cos_args(1, 1, bits, True)
    sums, mags = fixed_series(*args, bits, 2 * j_max + 2)
    vals = sums + [fixed_series(*args, bits)]
    for j in range(1, j_max + 1):
        # (a, b, s): vals[a] - vals[b] over mags[s], one row per sub-chain
        rows = ((2 * j + 1, 2 * j - 1, 2 * j), (-1, 2 * j + 1, 2 * j + 2),
                (2 * j, -1, 2 * j + 1), (2 * j - 2, -1, 2 * j - 1))
        for (a, b, s), kind in zip(rows, _SUB_CHAINS):
            d_lo = vals[a][0] - vals[b][1]
            den = mags[s][1] if d_lo > 0 else mags[s][0]
            # the nearest quotient, rounded down one step: a lower bound
            margin = math.nextafter(d_lo / den, -math.inf) if den > 0 else -math.inf
            worst.update(margin, "j={} x=1.0 " + kind, j)
    pi_nearest = from_man_exp((fixed_pi(bits - 1)[0] + 1) >> 1, 2 - bits)  # to `bits` bits
    return worst.report(
        "maclaurin_interleaving",
        {
            "j_max": j_max,
            "digits": digits,
            "asserted": "sub-chains on (0,1]",
            "scope": "all x in (0, 1], every j",
            "five_way_chain_valid_for": {
                f"j={j}": {"theoretical_x": to_float(mpf_div(
                    mpf_sqrt(from_int(4 * j * (4 * j + 1)), bits, round_nearest),
                    pi_nearest, bits, round_nearest), rnd=round_nearest)}
                for j in range(1, j_max + 1)
            },
            "evidence": "proof: sin t - S_n has the sign of (-1)^n for t > 0, and the lemma; "
                        f"margins at x = 1 from an {_EVIDENCE}",
            "margin": "at x = 1: lower end of difference / leading term",
            "lemma": lemma,
            "base_bits": bits,
        },
    )


def _sin_monomial(n: int) -> tuple:
    """The x^n coefficient of sin(pi x)/pi in u = pi^2: (-1)^h u^h/n! for n = 2h+1, else 0."""
    h = n // 2
    return (0,) * h + (Fraction((-1) ** h, math.factorial(n)),) if n % 2 else ()


def check_taylor_exactness(m_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """sin(pi x) - Q_m(x) = c_{m+1} x^(m+1) + O(x^(m+2)) exactly, for every m <= m_max.

    The monomial coefficients of Q_m/pi (`sine_monomials`) and of
    sin(pi x)/pi are polynomials in u = pi^2 over Q; pi is transcendental,
    so the coefficients agree if and only if those polynomials are equal.
    The check compares them in Fraction: equal at every order n <= m, and
    at order m+1 the difference is N_{m+1}/D_{m+1} = c_{m+1}/pi, which is
    not zero.  As y(1-x) = y(x), the contact at x = 1 has the same order.
    The margin is the lower end, rounded down, of c_{m+1}'s enclosure: the
    leading coefficient of sin(pi x) - Q_m, positive as Q_m lies below.
    """
    require_digits(digits)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    bits = fixed_bits(digits)
    forms = coeff_symbolic(m_max + 1)
    worst = _Worst()
    for m in range(1, m_max + 1):
        q, nxt = sine_monomials(m), forms[m]
        for n in range(m + 2):
            want = _sin_monomial(n)
            if n == m + 1:  # less N_{m+1}(u)/D_{m+1} = c_{m+1}/pi
                want = poly_sum(want, [Fraction(-c, nxt.denominator) for c in nxt.numerator])
            if q[n] != want:
                worst.update(-math.inf, "m={} order={}", m, n)
                break
        else:
            c_lo = _fixed_coefficients(m_max + 1, bits)[m][0]
            worst.update(to_double(c_lo, 1 << bits, -1), "m={} order={}", m, m + 1)
    return worst.report(
        "taylor_exactness",
        {"m_max": m_max, "digits": digits,
         "evidence": "exact polynomial identity in Q[pi^2]",
         "margin": "lower end of c_{m+1}, the leading coefficient of sin(pi x) - Q_m",
         "base_bits": bits},
    )


# --- positivity prover -----------------------------------------------------

_MAX_BISECTION_DEPTH = 40  # keeps dyadic endpoints exact in binary floats


@dataclass(frozen=True)
class PositivityProof:
    """Certificate that a polynomial is positive on a closed interval.

    Accepted subintervals tile the domain exactly (dyadic endpoints), each
    with the lower end of its enclosure rounded down to a double.  When
    `proved` is False the unresolved subintervals are listed, or
    `refutation` is a subinterval whose enclosure lies below 0, as (lo,
    hi, upper end rounded up); there is never a false positive.
    """

    target_coefficients: tuple[IntervalValue, ...]
    domain: tuple[float, float]
    subintervals: tuple[tuple[float, float, float], ...]
    max_depth_used: int
    proved: bool
    unresolved: tuple[tuple[float, float], ...] = ()
    preconditions: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    refutation: tuple[float, float, float] | None = None

    @property
    def min_lower_bound(self) -> float:
        return min((s[2] for s in self.subintervals), default=math.nan)

    @property
    def status(self) -> str:
        """"proved", "refuted" (a tile's enclosure lies below 0) or "inconclusive"."""
        if self.proved:
            return "proved"
        return "inconclusive" if self.refutation is None else "refuted"


def prove_polynomial_positive(
    coeffs,
    domain: tuple[float, float],
    max_depth: int = 24,
    digits: int = DEFAULT_DIGITS,
) -> PositivityProof:
    """Adaptive bisection over dyadic tiles on the fixed-point kernel.

    The coefficients (IntervalValues) are enclosed at `fixed_bits(digits)`
    fractional bits.  A tile is accepted as soon as `poly_eval_centered`
    gives it a positive lower end.  A tile whose upper end is negative
    refutes positivity and stops the search.  A tile enclosed by exactly
    [0, 0] is recorded as unresolved, since no split can move it off 0.
    Any other tile is split, up to max_depth; exhaustion yields
    proved=False with the stuck tiles recorded, never a false claim.
    metadata["tiles"] counts the tiles evaluated.  The domain must have
    finite ends with lo < hi.
    """
    if not 1 <= max_depth <= _MAX_BISECTION_DEPTH:
        raise ValueError(f"max_depth must be in 1..{_MAX_BISECTION_DEPTH}")
    domain = tuple(map(float, domain))
    if not (all(map(math.isfinite, domain)) and domain[0] < domain[1]):
        raise ValueError(f"domain must be finite with lo < hi, got {domain!r}")
    bits = fixed_bits(digits)
    fixed = [fixed_from_interval(c, bits) for c in coeffs]
    deriv = [(n * lo, n * hi) for n, (lo, hi) in enumerate(fixed)][1:]
    accepted, unresolved, refutation = [], [], None
    deepest = tiles = 0
    stack = [(*domain, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        enc_lo, enc_hi = poly_eval_centered(fixed, deriv, lo, hi, bits)
        tiles += 1
        deepest = max(deepest, depth)
        if enc_lo > 0:
            accepted.append((lo, hi, to_double(enc_lo, 1 << bits, -1)))
        elif enc_hi < 0:
            refutation = (lo, hi, to_double(enc_hi, 1 << bits, 1))
            break
        elif depth >= max_depth or enc_lo == enc_hi == 0:
            unresolved.append((lo, hi))
        else:
            mid = (lo + hi) / 2
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    return PositivityProof(
        target_coefficients=tuple(coeffs),
        domain=domain,
        subintervals=tuple(sorted(accepted)),
        max_depth_used=deepest,
        proved=not unresolved and refutation is None,
        unresolved=tuple(sorted(unresolved)),
        metadata={"tiles": tiles},
        refutation=refutation,
    )


@lru_cache(maxsize=16)
def _quadratic_part(bits: int) -> tuple[tuple[int, int], ...]:
    """Enclosures of the x^k coefficients, k = 0..16, of (4/pi^2)(2 Q(x)^2 + Q(2x)^2).

    With Q/pi = sum_n s_n(u) x^n (`sine_monomials(4)`), 4/pi^2 cancels the pi^2
    of Q^2: each is 4 (2 + 2^k) sum_{i+j=k} s_i s_j in Q[u], enclosed at u = pi^2.
    """
    s = sine_monomials(4)
    sq = [poly_sum(*(poly_mul(s[i], s[k - i]) for i in range(max(0, k - 8), min(k, 8) + 1)))
          for k in range(17)]  # (Q/pi)^2
    return tuple(fixed_at_pi2([4 * (2 + 2 ** k) * c for c in p], bits) for k, p in enumerate(sq))


def example_inequality_polynomial(digits: int = DEFAULT_DIGITS):
    """Enclosures of the coefficients of the worked positivity example.

    Builds f4(x) = 4/9 - 8x + 15x^2 + (4/pi^2)(2 Q(x)^2 + Q(2x)^2),
    where Q is the degree-4 sine approximant; f4 underestimates the
    transcendental target because 0 <= Q(u) <= sin(pi u) on [0, 1].
    Each x^k coefficient is exact in Q[pi^2] (`_quadratic_part`) and
    enclosed once, so the rational ones (k = 1, 2, 3, 5) are points.
    Returns (coefficients, q_y_coefficient_intervals), IntervalValues
    whose ends are exact at `fixed_bits(digits)` fractional bits.
    """
    require_digits(digits)
    bits = fixed_bits(digits)
    base = [fixed_ratio(4, 9, bits), (-8 << bits,) * 2, (15 << bits,) * 2] + [(0, 0)] * 14
    coeffs = [interval_from_fixed((b[0] + f[0], b[1] + f[1]), bits)
              for b, f in zip(base, _quadratic_part(bits))]
    return coeffs, [interval_from_fixed(c, bits) for c in _fixed_coefficients(4, bits)]


def prove_example_inequality(
    max_depth: int = 24, digits: int = DEFAULT_DIGITS
) -> PositivityProof:
    """Prove the worked example: f4 > 0 on [0, 1/2], hence f > 0 there.

    Preconditions (machine-checked): the approximant's y-coefficients are
    positive, so Q(u) = sum c_j (u(1-u))^j >= 0 whenever u(1-u) >= 0,
    i.e. on [0, 1]; and the lemma on t_j (`_t_lemma`), which gives every
    c_j > 0 and so Q <= sin(pi u) there, as `check_bracketing` proves.
    Then squares satisfy Q(u)^2 <= sin(pi u)^2, so f >= f4 and a positive
    lower bound for f4 transfers to f.  Should the lemma's check fail, the
    transfer is not established and the proof is not "proved".
    """
    if max_depth < 8:
        raise ValueError("max_depth must be >= 8")
    coeffs, c_intervals = example_inequality_polynomial(digits)
    q_positive = all(ci.lo > 0 for ci in c_intervals)
    if not q_positive:  # pragma: no cover
        raise ArithmeticError("approximant coefficient enclosure not positive")
    lemma = _t_lemma(fixed_bits(digits))
    proof = prove_polynomial_positive(coeffs, (0.0, 0.5), max_depth, digits)
    return dataclasses.replace(
        proof,
        proved=proof.proved and lemma["holds"],
        preconditions={
            "positive_y_coefficients": q_positive,
            "lemma": lemma,
            "envelope": "0 <= Q <= sin(pi u) on [0,1] gives Q^2 <= sin^2",
        },
        metadata={**proof.metadata, "digits": digits, "max_depth": max_depth},
    )


_CURVE_BITS, _CURVE_MAX_BITS = 2 * 53, 2 * 53 << 5  # the curve's first and last bits


def _curve_rows(grid_size: int, bits: int, rows):
    """Yield the enclosures of f and f - f4 at x = i/q, q = 2 grid_size, for each i in rows.

    Each row reads one sine: with i = a + b, a a multiple of B = 2^floor(log2(n)/2)
    for n rows and 0 <= b < B, sin(pi i/q) = sin(pi a/q) cos(pi b/q) + cos(pi a/q)
    sin(pi b/q), from two tables of `fixed_sin_cos_pi` holding only the angles the rows
    read.  With S = sin^2(pi x), 2 sin^2(pi x) + sin^2(2 pi x) = 6S - 4S^2 = 2S(3 - 2S).
    f4's quadratic part is 4(2A(x)^2 + A(2x)^2), A = Q/pi = sum_{j<=4} b_j y^j, each
    b_j = N_j(pi^2)/D_j (`coeff_symbolic(4)`) enclosed once.  At x = k/q, y = Y/q^2
    with Y = k(q - k), so q^8 A is exact integer Horner in Y on the enclosures of
    b_j q^(8-2j), divided once by q^8; A(2x) at row i is A at k = min(2i, q - 2i), as
    y(2x) = y(1 - 2x).  The ends are at `bits` fractional bits.
    """
    q = 2 * grid_size
    step = 1 << (len(rows).bit_length() - 1) // 2
    # sin and cos(pi k/q) here, and every b_j by the lemma, are >= 0: ends may be raised to 0
    tables = [{k: [max(0, e) for cos in (False, True) for e in fixed_sin_cos_pi(k, q, bits, cos)]
               for k in keys} for keys in ({i - i % step for i in rows}, {i % step for i in rows})]
    (b1_lo, b1_hi), (b2_lo, b2_hi), (b3_lo, b3_hi), (b4_lo, b4_hi) = (
        [max(0, e) * q ** (8 - 2 * f.index) for e in fixed_at_pi2(
            [Fraction(n, f.denominator) for n in f.numerator], bits)] for f in coeff_symbolic(4))
    pi_lo, pi_hi = fixed_pi(bits)
    k_lo, k_hi = (8 << 3 * bits) // (pi_hi * pi_hi), -((-8 << 3 * bits) // (pi_lo * pi_lo))
    q8, squares = q ** 8, {}  # k -> the ends of A(k/q)^2, at 2 bits fractional bits
    for k in {*rows, *(min(2 * i, q - 2 * i) for i in rows)}:
        y = k * (q - k)
        lo = (((b4_lo * y + b3_lo) * y + b2_lo) * y + b1_lo) * y // q8
        hi = -(-(((b4_hi * y + b3_hi) * y + b2_hi) * y + b1_hi) * y // q8)
        squares[k] = lo * lo, hi * hi
    three, base_den = 3 << bits, 9 * q * q
    for i in rows:
        sa_lo, sa_hi, ca_lo, ca_hi = tables[0][i - i % step]
        sb_lo, sb_hi, cb_lo, cb_hi = tables[1][i % step]
        s_lo, s_hi = sa_lo * cb_lo + ca_lo * sb_lo, sa_hi * cb_hi + ca_hi * sb_hi  # at 2 bits
        s_lo, s_hi = s_lo * s_lo >> 3 * bits, -(-(s_hi * s_hi) >> 3 * bits)  # S, at bits
        # (4/pi^2)(6S - 4S^2) = (8/pi^2) S (3 - 2S), and 3 - 2S > 0
        t_lo = k_lo * s_lo * (three - 2 * s_hi) >> 2 * bits
        t_hi = -(-k_hi * s_hi * (three - 2 * s_lo) >> 2 * bits)
        (a_lo, a_hi), (d_lo, d_hi) = squares[i], squares[min(2 * i, q - 2 * i)]
        # 4/9 - 8x + 15x^2 = (4q^2 - 72iq + 135i^2) / (9q^2), floored: base + 1 is above it
        base = ((4 * q * q - 72 * i * q + 135 * i * i) << bits) // base_den
        # f - f4 = (4/pi^2)(6S - 4S^2) less 4(2a + d), a and d at 2 bits
        quad_lo, quad_hi = 2 * a_lo + d_lo >> bits - 2, -(-(2 * a_hi + d_hi) >> bits - 2)
        yield (base + t_lo, base + 1 + t_hi), (t_lo - quad_hi, t_hi - quad_lo)


def example_curve(grid_size: int = 2048):
    """Rows (x, f(x), f(x) - f4(x)) at x = i/(2 grid_size), i = 0..grid_size.

    f and f - f4 are enclosed with the fixed-point kernel (`_curve_rows`), so
    every value is the correctly rounded double.  The first pass encloses every
    row at twice a double's 53-bit significand, 106 fractional bits
    (`_CURVE_BITS`): a value near 1 then has 53 bits past the ones a double
    keeps, so only a value within about 2^-53 of a rounding boundary, relative,
    or far below 1 (f - f4 near x = 0) has ends that round to different
    doubles.  Each further pass doubles the bits for those rows only, up to
    3,392 (`_CURVE_MAX_BITS`); on the default grid 11 of the 2049 rows take a
    second pass, at 212 bits, and none a third.  Each row reads one sine,
    sin^2(2 pi x) = 4S(1 - S) with S = sin^2(pi x), and f4's quadratic part
    from Q/pi by exact integer Horner in y's numerator.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    values, rows, bits = [None] * (grid_size + 1), range(grid_size + 1), _CURVE_BITS
    while rows:
        if bits > _CURVE_MAX_BITS:  # pragma: no cover
            raise ArithmeticError(f"curve value at i={rows[0]} not settled at {bits // 2} bits")
        one, pending = 1 << bits, []
        for i, ((f_lo, f_hi), (g_lo, g_hi)) in zip(rows, _curve_rows(grid_size, bits, rows)):
            f_val = nearest_double((f_lo, one), (f_hi, one))
            gap = nearest_double((g_lo, one), (g_hi, one))
            if f_val is None or gap is None:
                pending.append(i)
            else:
                values[i] = (i / (2 * grid_size), f_val, gap)
        rows, bits = pending, 2 * bits
    return values
