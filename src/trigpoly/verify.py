"""Executable checks for the expansion's inequalities and identities.

The grid checks (monotone bracketing, Maclaurin interleaving) enclose
every quantity with the outward-rounded fixed-point kernel of
`intervals`, at `fixed_bits(digits)` fractional bits; the coefficients
c_j are `coeffs.c_enclosure`'s, as `build_poly`'s are.  Each margin is an
enclosure of a difference divided by its leading term (the first
dropped c_{m+1} y^{m+1}, or the next Maclaurin term), and a report
prints the smallest lower end over the grid, rounded down.  A point
whose enclosures leave a sign open is recomputed with twice the bits,
up to eight times the base; points still open there are counted as
unresolved.  A grid report passes only if every margin's enclosure is
positive, so no pass rests on rounding noise.

The coefficient check reads the same kernel's enclosures of
t_j (2j)! (`fixed_t_scaled`) and reports their lower ends, with no
slack.  The Bessel and Taylor checks are exact: their identities are
compared in Fraction arithmetic, the Taylor one as polynomials in
u = pi^2 over Q, and each margin is an outward-rounded lower end (the
Bessel route's certificates, the Taylor contact coefficient c_{m+1}),
rounded down; no report rests on a tolerance.  The positivity
prover bisects dyadic tiles on the same kernel: it accepts a tile whose
enclosure is positive and stops at one whose enclosure is negative.  It
can return "inconclusive" or a refutation, never a false positive.  The
worked example's polynomial f4 is exact in Q[pi^2] (`sine_monomials(4)`)
and enclosed once per bits; `example_curve` computes f - f4 from that
same polynomial, and its values are correctly rounded floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import repr_dps

from .approx import COS_PI_X, DOMAINS, _check_func, sine_monomials
from .coeffs import (c_enclosure, coeff_symbolic, coefficient_table, fixed_at_pi2, poly_mul,
                     poly_sum)
from .intervals import (
    IntervalValue,
    exact_ratio,
    fixed_bits,
    fixed_from_interval,
    fixed_horner,
    fixed_maclaurin,
    fixed_mul,
    fixed_partial_sums,
    fixed_pi,
    fixed_ratio,
    fixed_sin_cos_pi,
    fixed_t_scaled,
    fixed_y,
    interval_from_fixed,
    poly_eval_centered,
)
from .precision import DEFAULT_DIGITS, require_digits, require_index, to_mpf, working

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

# endpoint-clustered sample count per side, on top of the uniform grid
_CLUSTER = 32
_EVIDENCE = "outward-rounded fixed-point enclosure"


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one grid/sweep check; failures carry a counterexample."""

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


def _grid(lo, hi, n: int, include_hi: bool = False) -> list[mpf]:
    """n uniform interior points plus 32 points within 1e-6 of each end.

    The clustered points probe the high-order zeros at the endpoints,
    where every quantity under test degenerates.
    """
    lo_v, hi_v = to_mpf(lo), to_mpf(hi)
    span = hi_v - lo_v
    pts = [lo_v + span * i / (n + 1) for i in range(1, n + 1)]
    tiny = mpf("1e-6")
    for k in range(_CLUSTER):
        off = span * tiny / mpf(2) ** k
        pts.append(lo_v + off)
        pts.append(hi_v - off)
    if include_hi:
        pts.append(hi_v)
    return sorted(pts)


class _Worst:
    """Track the minimum margin and where it happened.

    The first point with the smallest margin wins.  Its label is kept as
    a format string and its parts, and formatted once, by `where`: a
    sweep makes thousands of comparisons but reports one label.  mpf
    parts print with `digits` significant digits (10 by default).
    """

    def __init__(self, digits: int = 10):
        self.margin = None
        self.digits = digits
        self._label = ("", ())

    def update(self, margin, fmt: str, *parts) -> None:
        if self.margin is None or margin < self.margin:
            self.margin = margin
            self._label = (fmt, parts)

    @property
    def where(self) -> str:
        fmt, parts = self._label
        return fmt.format(*(mp.nstr(p, self.digits) if isinstance(p, mpf) else p
                            for p in parts))

    def report(self, property_id: str, metadata: dict) -> PropertyReport:
        ok = self.margin is not None and self.margin > 0
        return PropertyReport(
            property_id=property_id,
            status="pass" if ok else "fail",
            worst_case=(self.where, float(self.margin)),
            metadata=metadata,
        )


def check_coefficient_bounds(j_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """0 < t_j < 1/(2j)! and the two-term bracket 1 - pi^2/(8(2j+1)) < t_j (2j)! < 1.

    The margins are the lower ends, rounded down, of outward enclosures of
    s_j = t_j (2j)!, 1 - s_j and s_j - (1 - pi^2/(8(2j+1))); a pass needs
    every one positive, so it holds for the exact coefficients.
    """
    require_digits(digits)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    bits = fixed_bits(digits)
    one = 1 << bits
    pi2_lo = fixed_pi(bits)[0] ** 2  # at 2 * bits fractional bits
    worst = _Worst()
    for j in range(1, j_max + 1):
        s_lo, s_hi = fixed_t_scaled(j, bits)
        bracket_hi = one - pi2_lo // (8 * (2 * j + 1) << bits)
        for margin, what in ((s_lo, "positivity"), (one - s_hi, "upper"),
                             (s_lo - bracket_hi, "bracket")):
            # rounding the nearest quotient down one step gives a lower bound
            worst.update(math.nextafter(margin / one, -math.inf), "j={} " + what, j)
    return worst.report(
        "coeff_bounds",
        {"j_max": j_max, "digits": digits, "evidence": _EVIDENCE, "base_bits": bits},
    )


# --- grid checks on fixed-point enclosures ---------------------------------

_MAX_DOUBLINGS = 3  # escalation stops at fixed_bits(digits) * 2**3 bits


@lru_cache(maxsize=32)
def _fixed_coefficients(n: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Enclosures of c_1..c_n at `bits` fractional bits: each `c_enclosure`, rounded outward."""
    return tuple(fixed_from_interval(c_enclosure(j, bits), bits) for j in range(1, n + 1))


def _diff(a, b) -> tuple[int, int]:
    return a[0] - b[1], a[1] - b[0]


def _relative(row) -> float:
    """diff/scale for a row (diff_lo, diff_hi, scale_lo, scale_hi), at its low end.

    The quotient is rounded to nearest; -inf when no positive scale
    bound exists.
    """
    d_lo, _, s_lo, s_hi = row
    den = s_hi if d_lo > 0 else s_lo
    if den <= 0:
        return -math.inf
    try:
        return d_lo / den
    except OverflowError:
        return -math.inf if d_lo < 0 else math.inf


class _Sweep:
    """Fixed-point evaluation of a grid, with per-point precision escalation.

    `settle(evaluate, x)` calls `evaluate(p, q, bits)` at x = p/q, first
    at the base bits and then with the bits doubled while any returned
    row's (lo, hi, ...) leaves its sign open, up to the cap; a point
    still open at the cap is counted as unresolved.
    """

    def __init__(self, digits: int):
        self.digits = digits
        self.base = self.top = fixed_bits(digits)
        self.cap = self.base << _MAX_DOUBLINGS
        self.escalated = 0
        self.unresolved = 0
        self.worst = _Worst(repr_dps(mp.prec))  # labels print x in full

    def settle(self, evaluate, x) -> list:
        p, q = exact_ratio(x)
        bits = self.base
        rows = evaluate(p, q, bits)
        while not all(r[0] > 0 or r[1] < 0 for r in rows):
            if bits >= self.cap:
                self.unresolved += 1
                break
            bits *= 2
            rows = evaluate(p, q, bits)
        if bits > self.base:
            self.escalated += 1
            self.top = max(self.top, bits)
        return rows

    def margins(self, evaluate, labels, x) -> None:
        """Fold in a point's margin rows, labelled by `labels` (format, parts...)."""
        rel = [_relative(r) for r in self.settle(evaluate, x)]
        i = rel.index(min(rel))  # the first of equal margins
        # rounding the nearest quotient down one step gives a lower bound
        self.worst.update(math.nextafter(rel[i], -math.inf), *labels[i], x)

    def report(self, property_id: str, metadata: dict) -> PropertyReport:
        report = self.worst.report(
            property_id,
            {
                **metadata,
                "digits": self.digits,
                "evidence": _EVIDENCE,
                "margin": "lower end of difference / leading term",
                "base_bits": self.base,
                "max_bits": self.top,
                "escalated_points": self.escalated,
                "unresolved_points": self.unresolved,
            },
        )
        return dataclasses.replace(report, status="fail") if self.unresolved else report


def check_bracketing(
    func: str, m_max: int, grid_size: int, digits: int = DEFAULT_DIGITS
) -> PropertyReport:
    """Monotone bracketing: approximants increase with m and stay below the target.

    Enclosed pointwise on the grid: for every m up to m_max,
    P_m < P_{m+1} (margin scaled by c_{m+1} y^{m+1}) and
    P_{m+1} < target (scaled by c_{m+2} y^{m+2}), with the exact
    coefficients and the target from its alternating Maclaurin series.
    """
    require_digits(digits)
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    _check_func(func)
    is_cos = func == COS_PI_X

    labels = [("m=1 x={} delta",)]
    for m in range(1, m_max + 1):
        labels += [("m={} x={} chain", m), ("m={} x={} delta", m + 1)]

    def evaluate(p, q, bits):
        coeffs = _fixed_coefficients(m_max + 2, bits)
        sums, terms = fixed_partial_sums(coeffs, fixed_y(p, q, bits, is_cos), bits)
        ref_lo, ref_hi = fixed_sin_cos_pi(p, q, bits, is_cos)
        # rows (difference lo, hi, leading term lo, hi), in `labels` order
        rows = [(ref_lo - sums[0][1], ref_hi - sums[0][0], *terms[1])]
        for m in range(1, m_max + 1):
            (lo, hi), (prev_lo, prev_hi) = sums[m], sums[m - 1]
            rows.append((lo - prev_hi, hi - prev_lo, *terms[m]))
            rows.append((ref_lo - hi, ref_hi - lo, *terms[m + 1]))
        return rows

    with working(digits):
        sweep = _Sweep(digits)
        for x in _grid(*DOMAINS[func], grid_size):
            sweep.margins(evaluate, labels, x)
    return sweep.report(
        f"bracketing_{'cos' if is_cos else 'sin'}",
        {"m_max": m_max, "grid_size": grid_size},
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
    10^-digits - trunc_bound/t_j, exact and rounded down.  A table that
    refuses a certificate fails the report.
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
        # the least exact margin names its j; only it is rounded, since
        # margins that differ only past a double's precision round alike
        tol = Fraction(1, 10 ** digits)
        margin, j = min((tol - Fraction(*exact_ratio(e.trunc_bound.value))
                         / Fraction(*exact_ratio(e.value.value)), e.j) for e in table)
        worst.update(_round_double(margin), "j={} route", j)
    return worst.report(
        "bessel_identity",
        {"j_max": j_max, "digits": digits,
         "evidence": "exact term identity over Q; route certified by the enclosure",
         "margin": "10^-digits - trunc_bound/t_j, rounded down"},
    )


def check_maclaurin_interleaving(
    j_max: int, grid_size: int, digits: int = DEFAULT_DIGITS
) -> PropertyReport:
    """Alternating Maclaurin brackets for sin(pi*x) on (0, 1].

    Asserts the sub-chains that hold on the whole interval:
    S_2j < S_{2j+2} < sin(pi x) < S_{2j+1} and sin(pi x) < S_{2j-1},
    each margin scaled by the first term its lower side drops.  The
    five-way chain with S_{2j-1} < S_{2j+1} needs (pi x)^2 > 4j(4j+1)
    and so holds for no x in (0, 1]; its empirical validity threshold is
    measured on a wider grid and reported in the metadata instead of
    being asserted.
    """
    require_digits(digits)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")

    labels = []
    for j in range(1, j_max + 1):
        labels += [("j={} x={} " + kind, j)
                   for kind in ("even-step", "even-below", "odd-above", "prev-odd-above")]

    def evaluate(p, q, bits):
        sums, mags = fixed_maclaurin(p, q, 2 * j_max + 2, bits)
        ref = fixed_sin_cos_pi(p, q, bits)
        # rows (difference lo, hi, leading term lo, hi), in `labels` order
        rows = []
        for j in range(1, j_max + 1):
            rows += [
                (*_diff(sums[2 * j + 1], sums[2 * j - 1]), *mags[2 * j]),
                (*_diff(ref, sums[2 * j + 1]), *mags[2 * j + 2]),
                (*_diff(sums[2 * j], ref), *mags[2 * j + 1]),
                (*_diff(sums[2 * j - 2], ref), *mags[2 * j - 1]),
            ]
        return rows

    def chain_steps(p, q, bits):
        # S_{2j+1} - S_{2j-1} for j = 1..j_max
        sums, _ = fixed_maclaurin(p, q, 2 * j_max + 1, bits)
        return [_diff(sums[2 * j], sums[2 * j - 2]) for j in range(1, j_max + 1)]

    with working(digits):
        sweep = _Sweep(digits)
        for x in _grid(0, 1, grid_size, include_hi=True):
            sweep.margins(evaluate, labels, x)
        # cuts[j]: the largest scan point where S_{2j+1} <= S_{2j-1}; one
        # downward walk settles every j, each at its first such point
        scan = [mpf(3) * i / 600 for i in range(1, 601)]
        cuts = {}
        for x in reversed(scan):
            steps = sweep.settle(chain_steps, x)
            for j in range(1, j_max + 1):
                if j not in cuts and steps[j - 1][1] < 0:
                    cuts[j] = x
            if len(cuts) == j_max:
                break
        thresholds = {}
        for j in range(1, j_max + 1):
            cut = cuts.get(j)
            theo = mp.sqrt(4 * j * (4 * j + 1)) / mp.pi
            # cut == top of scan means the chain never became valid in range
            found = cut is not None and cut < scan[-1]
            thresholds[f"j={j}"] = {
                "empirical_x_above": float(cut) if found else None,
                "theoretical_x": float(theo),
            }
    return sweep.report(
        "maclaurin_interleaving",
        {
            "j_max": j_max,
            "grid_size": grid_size,
            "asserted": "sub-chains on (0,1]",
            "five_way_chain_valid_for": thresholds,
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
            worst.update(_round_double(Fraction(c_lo, 1 << bits)), "m={} order={}", m, m + 1)
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


def _round_double(q: Fraction, up: bool = False) -> float:
    """The rational q rounded to a double, down or up."""
    d = float(q)  # int / int rounds to nearest
    return math.nextafter(d, math.inf if up else -math.inf) if (d < q if up else d > q) else d


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
            accepted.append((lo, hi, _round_double(Fraction(enc_lo, 1 << bits))))
        elif enc_hi < 0:
            refutation = (lo, hi, _round_double(Fraction(enc_hi, 1 << bits), up=True))
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

    Precondition (machine-checked): the approximant's y-coefficients are
    positive, so Q(u) = sum c_j (u(1-u))^j >= 0 whenever u(1-u) >= 0,
    i.e. on [0, 1].  Combined with Q <= sin(pi u) from the monotone
    bracketing, squares satisfy Q(u)^2 <= sin(pi u)^2, so f >= f4 and a
    positive lower bound for f4 transfers to f.
    """
    if max_depth < 8:
        raise ValueError("max_depth must be >= 8")
    coeffs, c_intervals = example_inequality_polynomial(digits)
    q_positive = all(ci.lo > 0 for ci in c_intervals)
    if not q_positive:  # pragma: no cover
        raise ArithmeticError("approximant coefficient enclosure not positive")
    proof = prove_polynomial_positive(coeffs, (0.0, 0.5), max_depth, digits)
    return dataclasses.replace(
        proof,
        preconditions={
            "positive_y_coefficients": q_positive,
            "envelope": "0 <= Q <= sin(pi u) on [0,1] gives Q^2 <= sin^2",
        },
        metadata={**proof.metadata, "digits": digits, "max_depth": max_depth},
    )


def _fixed_float(enc, bits: int) -> float | None:
    """The correctly rounded float of the value enclosed, or None if enc straddles two."""
    lo, hi = enc[0] / (1 << bits), enc[1] / (1 << bits)  # int division rounds correctly
    if lo == hi and math.copysign(1, lo) == math.copysign(1, hi):
        return lo
    return None


def _curve_row(i: int, grid_size: int, bits: int):
    """Enclosures of f and f - f4 at x = i / (2 grid_size); in f - f4 the
    base 4/9 - 8x + 15x^2 cancels exactly, leaving trig less `_quadratic_part`."""
    q = 2 * grid_size
    s1, s2 = (fixed_mul(v, v, bits) for v in (fixed_sin_cos_pi(p, q, bits) for p in (i, 2 * i)))
    pi_lo, pi_hi = fixed_pi(bits)
    four_over_pi2 = (4 << 3 * bits) // (pi_hi * pi_hi), -((-4 << 3 * bits) // (pi_lo * pi_lo))
    trig = fixed_mul(four_over_pi2, (2 * s1[0] + s2[0], 2 * s1[1] + s2[1]), bits)
    # 4/9 - 8x + 15x^2 = (4q^2 - 72iq + 135i^2) / (9q^2)
    base = fixed_ratio(4 * q * q - 72 * i * q + 135 * i * i, 9 * q * q, bits)
    quad = fixed_horner(_quadratic_part(bits), fixed_ratio(i, q, bits), bits)
    return (base[0] + trig[0], base[1] + trig[1]), _diff(trig, quad)


def example_curve(grid_size: int = 2048, digits: int = DEFAULT_DIGITS):
    """Rows (x, f(x), f(x) - f4(x)) over [0, 1/2] for external plotting.

    f and f - f4 are enclosed with the fixed-point kernel, the bits
    doubled until each enclosure rounds to a single float, so every
    value is the correctly rounded one.
    """
    require_digits(digits)
    base = fixed_bits(digits)
    rows = []
    for i in range(grid_size + 1):
        bits = base
        while True:
            f_enc, gap_enc = _curve_row(i, grid_size, bits)
            f_val, gap = _fixed_float(f_enc, bits), _fixed_float(gap_enc, bits)
            if f_val is not None and gap is not None:
                break
            if bits >= base << _MAX_DOUBLINGS:  # pragma: no cover
                raise ArithmeticError(f"curve value at i={i} not settled at {bits} bits")
            bits *= 2
        rows.append((i / (2 * grid_size), f_val, gap))
    return rows
