"""Executable checks for the expansion's inequalities and identities.

The grid checks (monotone bracketing, Maclaurin interleaving) enclose
every quantity with the outward-rounded fixed-point kernel of
`intervals`, at `fixed_bits(digits)` fractional bits.  Each margin is an
enclosure of a difference divided by its leading term (the first
dropped c_{m+1} y^{m+1}, or the next Maclaurin term), and a report
prints the smallest lower end over the grid, rounded down.  A point
whose enclosures leave a sign open is recomputed with twice the bits,
up to eight times the base; points still open there are counted as
unresolved.  A grid report passes only if every margin's enclosure is
positive, so no pass rests on rounding noise.

The coefficient check reads the same kernel's enclosures of
t_j (2j)! (`fixed_t_scaled`) and reports their lower ends, with no
slack.  The Bessel and Taylor checks compare routes to a relative
tolerance of 10**-digits; they are evidence, not proofs.  The positivity
prover bisects dyadic tiles on the same kernel: it accepts a tile whose
enclosure is positive and stops at one whose enclosure is negative.  It
can return "inconclusive" or a refutation, never a false positive.  The
worked example's polynomial and `example_curve` share its coefficient
enclosures; the curve's values are correctly rounded floats.
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

from .approx import (
    COS_PI_X,
    DOMAINS,
    SIN_PI_X,
    _check_func,
    build_poly,
    sin_taylor_coefficient,
    taylor_coeffs_at_zero,
)
from .coeffs import (
    coeff_bessel,
    coeff_direct,
    coeff_symbolic,
    bessel_j_half_integer,
    general_series_direct,
)
from .intervals import (
    IntervalValue,
    exact_ratio,
    fixed_bits,
    fixed_from_interval,
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
from .precision import DEFAULT_DIGITS, require_digits, to_mpf, working

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
    """Enclosures of c_1..c_n at `bits` fractional bits, from the exact symbolic forms."""
    return tuple(s.fixed_y_coefficient(bits) for s in coeff_symbolic(n))


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


def check_bessel_identity(
    j_max: int,
    digits: int = DEFAULT_DIGITS,
    z_values=(1, 2),
    z_j_max: int = 20,
) -> PropertyReport:
    """Cross-check the Bessel route against the direct series.

    Verifies |t_bessel(j) - t_direct(j)| <= 10^-digits t_j for j <= j_max,
    and the general identity
    T_j(z) = sqrt(pi)/(j! 2^(j+1/2)) z^(1/4-j/2) J_{j-1/2}(sqrt(z))
    at the requested z values for j <= z_j_max, to the same relative
    tolerance.
    """
    require_digits(digits)
    worst = _Worst()
    with working(digits):
        tol = mpf(10) ** -digits
        for j in range(1, j_max + 1):
            direct, _ = coeff_direct(j, digits)
            via_bessel = coeff_bessel(j, digits)
            rel = abs(via_bessel.value - direct.value) / direct.value
            worst.update(tol - rel, "j={} route", j)
        for z in z_values:
            zv = to_mpf(z)
            for j in range(1, z_j_max + 1):
                series = general_series_direct(j, zv, digits)
                jfun = bessel_j_half_integer(j, mp.sqrt(zv), digits)
                pref = (
                    mp.sqrt(mp.pi)
                    / (mpf(math.factorial(j)) * mp.power(2, j + mpf(1) / 2))
                    * mp.power(zv, mpf(1) / 4 - mpf(j) / 2)
                )
                rhs = pref * jfun.value
                rel = abs(series.value - rhs) / abs(series.value)
                # str(z): the caller's z as given, not cut to 10 digits
                worst.update(tol - rel, "j={} z={} general", j, str(z))
    return worst.report(
        "bessel_identity",
        {"j_max": j_max, "z_values": list(z_values), "z_j_max": z_j_max,
         "digits": digits, "tolerance": f"1e-{digits} relative"},
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


def check_taylor_exactness(m_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """The sine approximant agrees with sin's Maclaurin coefficients to order m.

    Coefficients must agree to 10^-digits relative to max(1, |coefficient|).
    Also spot-checks the mirrored contact point by confirming that the
    error near x=1 decays like h^(m+1).
    """
    require_digits(digits)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    worst = _Worst()
    slopes = {}
    with working(digits):
        tol = mpf(10) ** -digits
        for m in range(1, m_max + 1):
            poly = build_poly(SIN_PI_X, m, digits)
            coeffs = taylor_coeffs_at_zero(poly)
            for n in range(0, m + 1):
                ref = sin_taylor_coefficient(n, digits)
                diff = abs(coeffs[n] - ref)
                scale = max(mpf(1), abs(ref))
                worst.update(tol * scale - diff, "m={} order={}", m, n)
            h1, h2 = mpf(10) ** -2, mpf(10) ** -3
            d1 = mp.sin(mp.pi * (1 - h1)) - poly.eval_hp(1 - h1)
            d2 = mp.sin(mp.pi * (1 - h2)) - poly.eval_hp(1 - h2)
            slope = mp.log(d1 / d2) / mp.log(h1 / h2)
            slopes[f"m={m}"] = float(slope)
            worst.update(mpf(1) / 2 - abs(slope - (m + 1)), "m={} decay-order", m)
    return worst.report(
        "taylor_exactness",
        {"m_max": m_max, "digits": digits, "decay_slopes_near_x1": slopes,
         "tolerance": f"1e-{digits} relative to max(1, |coefficient|)"},
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


def _fixed_double(v: int, bits: int, up: bool) -> float:
    """v / 2**bits rounded to a double, up or down."""
    d = v / (1 << bits)  # int / int rounds to nearest
    off = Fraction(d) - Fraction(v, 1 << bits)
    return math.nextafter(d, math.inf if up else -math.inf) if (off < 0 if up else off > 0) else d


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
    refutes positivity and stops the search.  Any other tile is split,
    up to max_depth; exhaustion yields proved=False with the stuck tiles
    recorded, never a false claim.  metadata["tiles"] counts the tiles
    evaluated.
    """
    if not 1 <= max_depth <= _MAX_BISECTION_DEPTH:
        raise ValueError(f"max_depth must be in 1..{_MAX_BISECTION_DEPTH}")
    bits = fixed_bits(digits)
    fixed = [fixed_from_interval(c, bits) for c in coeffs]
    deriv = [(n * lo, n * hi) for n, (lo, hi) in enumerate(fixed)][1:]
    accepted, unresolved, refutation = [], [], None
    deepest = tiles = 0
    stack = [(float(domain[0]), float(domain[1]), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        enc_lo, enc_hi = poly_eval_centered(fixed, deriv, lo, hi, bits)
        tiles += 1
        deepest = max(deepest, depth)
        if enc_lo > 0:
            accepted.append((lo, hi, _fixed_double(enc_lo, bits, up=False)))
        elif enc_hi < 0:
            refutation = (lo, hi, _fixed_double(enc_hi, bits, up=True))
            break
        elif depth >= max_depth:
            unresolved.append((lo, hi))
        else:
            mid = (lo + hi) / 2
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    return PositivityProof(
        target_coefficients=tuple(coeffs),
        domain=(float(domain[0]), float(domain[1])),
        subintervals=tuple(sorted(accepted)),
        max_depth_used=deepest,
        proved=not unresolved and refutation is None,
        unresolved=tuple(sorted(unresolved)),
        metadata={"tiles": tiles},
        refutation=refutation,
    )


def _four_over_pi2(bits: int) -> tuple[int, int]:
    pi_lo, pi_hi = fixed_pi(bits)
    return (4 << 3 * bits) // (pi_hi * pi_hi), -((-4 << 3 * bits) // (pi_lo * pi_lo))


def example_inequality_polynomial(digits: int = DEFAULT_DIGITS):
    """Enclosures of the coefficients of the worked positivity example.

    Builds f4(x) = 4/9 + 15x^2 - 8x + (4/pi^2)(2 Q(x)^2 + Q(2x)^2),
    where Q is the degree-4 sine approximant; f4 underestimates the
    transcendental target because 0 <= Q(u) <= sin(pi u) on [0, 1].
    Returns (coefficients, q_y_coefficient_intervals), IntervalValues
    whose ends are exact at `fixed_bits(digits)` fractional bits.

    Q's y-basis coefficients c_j = pi N_j(pi^2)/D_j are the fixed-point
    enclosures the grid checks and the curve use (`_fixed_coefficients`);
    the binomial expansion of (x(1-x))^j into monomials is exact integer
    arithmetic, and each product of enclosures rounds outward.
    """
    require_digits(digits)
    bits = fixed_bits(digits)
    c = _fixed_coefficients(4, bits)
    q = [(0, 0)] * 9
    for j, (lo, hi) in enumerate(c, start=1):
        for i in range(j + 1):
            k = (-1) ** i * math.comb(j, i)
            a, b = sorted((k * lo, k * hi))
            q[j + i] = q[j + i][0] + a, q[j + i][1] + b
    q2x = [(lo << n, hi << n) for n, (lo, hi) in enumerate(q)]
    squares = [(0, 0)] * 17  # 2 Q(x)^2 + Q(2x)^2
    for poly, weight in ((q, 2), (q2x, 1)):
        for i, a in enumerate(poly):
            for j, b in enumerate(poly):
                lo, hi = fixed_mul(a, b, bits)
                squares[i + j] = squares[i + j][0] + weight * lo, squares[i + j][1] + weight * hi
    base = [fixed_ratio(4, 9, bits), (-8 << bits,) * 2, (15 << bits,) * 2] + [(0, 0)] * 14
    scale = _four_over_pi2(bits)
    scaled = (fixed_mul(scale, sq, bits) for sq in squares)
    coeffs = [interval_from_fixed((b[0] + f[0], b[1] + f[1]), bits) for b, f in zip(base, scaled)]
    return coeffs, [interval_from_fixed(ci, bits) for ci in c]


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
    """Enclosures of f and f - f4 at x = i / (2 grid_size)."""
    q = 2 * grid_size
    coeffs = _fixed_coefficients(4, bits)
    # sin^2(pi u) and Q(u)^2 at u = x and u = 2x
    (s1, q1), (s2, q2) = [
        [fixed_mul(v, v, bits) for v in (
            fixed_sin_cos_pi(p, q, bits),
            fixed_partial_sums(coeffs, fixed_y(p, q, bits, False), bits)[0][-1])]
        for p in (i, 2 * i)
    ]
    trig = (2 * s1[0] + s2[0], 2 * s1[1] + s2[1])
    gap = (2 * (s1[0] - q1[1]) + s2[0] - q2[1], 2 * (s1[1] - q1[0]) + s2[1] - q2[0])
    four_over_pi2 = _four_over_pi2(bits)
    # 4/9 - 8x + 15x^2 = (4q^2 - 72iq + 135i^2) / (9q^2)
    base = fixed_ratio(4 * q * q - 72 * i * q + 135 * i * i, 9 * q * q, bits)
    f = fixed_mul(four_over_pi2, trig, bits)
    return (base[0] + f[0], base[1] + f[1]), fixed_mul(four_over_pi2, gap, bits)


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
