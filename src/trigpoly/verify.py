"""Executable checks for the expansion's inequalities and identities.

Grid-based checks run in extended precision (default 50 digits) with an
explicit slack of 10**-(digits-10): they are high-fidelity property
evidence, not formal proofs, and reports label them as such.  The one
genuinely rigorous component is the interval positivity prover, which
establishes the worked inequality example by adaptive bisection with
outward-rounded arithmetic and can return "inconclusive" but never a
false positive.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf

from .approx import (
    COS_PI_X,
    DOMAINS,
    SIN_PI_X,
    build_poly,
    maclaurin_partial_sums_hp,
    sin_taylor_coefficient,
    sine_monomials,
    taylor_coeffs_at_zero,
)
from .coeffs import (
    coeff_bessel,
    coeff_direct,
    coeff_recurrence,
    coeff_symbolic,
    bessel_j_half_integer,
    general_series_direct,
)
from .intervals import (
    IntervalValue,
    interval_dps,
    pi_interval,
    poly_deriv,
    poly_eval_centered,
    poly_mul,
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


def _slack(digits: int) -> mpf:
    return mpf(10) ** (-(digits - 10))


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


def _label_part(part):
    return mp.nstr(part, 10) if isinstance(part, mpf) else part


class _Worst:
    """Track the minimum margin and where it happened.

    The first point with the smallest margin wins.  Its label is kept as
    a format string and its parts, and formatted once, by `where`: a
    sweep makes thousands of comparisons but reports one label.  mpf
    parts print with 10 significant digits (`mp.nstr(x, 10)`).
    """

    def __init__(self):
        self.margin = None
        self._label = ("", ())

    def update(self, margin: mpf, fmt: str, *parts) -> None:
        if self.margin is None or margin < self.margin:
            self.margin = margin
            self._label = (fmt, parts)

    @property
    def where(self) -> str:
        fmt, parts = self._label
        return fmt.format(*map(_label_part, parts))

    def report(self, property_id: str, slack: mpf, metadata: dict) -> PropertyReport:
        ok = self.margin is not None and self.margin > -slack
        return PropertyReport(
            property_id=property_id,
            status="pass" if ok else "fail",
            worst_case=(self.where, float(self.margin)),
            metadata=metadata,
        )


def check_coefficient_bounds(j_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """0 < t_j < 1/(2j)! and the two-term bracket 1 - pi^2/(8(2j+1)) < t_j (2j)! < 1.

    Uses the table values with their certificates folded in, so the
    checks hold for the exact coefficients, not just the stored ones.
    """
    require_digits(digits)
    table = coeff_recurrence(j_max, digits)
    worst = _Worst()
    with working(digits):
        pi2 = mp.pi ** 2
        for entry in table:
            j = entry.j
            v = entry.value.value
            b = entry.trunc_bound.value
            fact = mpf(math.factorial(2 * j))
            lo_scaled = (v - b) * fact
            hi_scaled = (v + b) * fact
            bracket_lo = 1 - pi2 / (8 * (2 * j + 1))
            worst.update(lo_scaled - 0, "j={} positivity", j)
            worst.update(1 - hi_scaled, "j={} upper", j)
            worst.update(lo_scaled - bracket_lo, "j={} bracket", j)
    return worst.report(
        "coeff_bounds",
        _slack(digits),
        {"j_max": j_max, "digits": digits, "evidence": "extended-precision sweep"},
    )


def _partial_sums_at(poly_coeffs, y: mpf) -> list[mpf]:
    """Partial sums sum_{j<=m} c_j y^j for m = 1..len(coeffs)."""
    sums = []
    acc = mpf(0)
    ypow = mpf(1)
    for c in poly_coeffs:
        ypow *= y
        acc += c * ypow
        sums.append(acc)
    return sums


def check_bracketing(
    func: str, m_max: int, grid_size: int, digits: int = DEFAULT_DIGITS
) -> PropertyReport:
    """Monotone bracketing: approximants increase with m and stay below the target.

    Verified pointwise on the grid in extended precision: for every m up
    to m_max, P_m < P_{m+1} and P_{m+1} < reference on the open domain.
    """
    require_digits(digits)
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    top = build_poly(func, m_max + 1, digits)
    is_cos = func == COS_PI_X
    worst = _Worst()
    with working(digits):
        for x in _grid(*DOMAINS[func], grid_size):
            y = top.y_of_hp(x)
            sums = _partial_sums_at(top.hp_coeffs, y)
            ref = mp.cos(mp.pi * x) if is_cos else mp.sin(mp.pi * x)
            worst.update(ref - sums[0], "m=1 x={} delta", x)
            for m in range(1, m_max + 1):
                worst.update(sums[m] - sums[m - 1], "m={} x={} chain", m, x)
                worst.update(ref - sums[m], "m={} x={} delta", m + 1, x)
    return worst.report(
        f"bracketing_{'cos' if is_cos else 'sin'}",
        _slack(digits),
        {"m_max": m_max, "grid_size": grid_size, "digits": digits,
         "evidence": "extended-precision grid sweep"},
    )


def check_bessel_identity(
    j_max: int,
    digits: int = DEFAULT_DIGITS,
    z_values=(1, 2),
    z_j_max: int = 20,
) -> PropertyReport:
    """Cross-check the Bessel route against the direct series.

    Verifies |t_bessel(j) - t_direct(j)| <= 1e-40 t_j for j <= j_max,
    and the general identity
    T_j(z) = sqrt(pi)/(j! 2^(j+1/2)) z^(1/4-j/2) J_{j-1/2}(sqrt(z))
    at the requested z values for j <= z_j_max.
    """
    require_digits(digits)
    tol = mpf(10) ** -40
    worst = _Worst()
    with working(digits):
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
        mpf(0),
        {"j_max": j_max, "z_values": list(z_values), "z_j_max": z_j_max,
         "tolerance": "1e-40 relative"},
    )


def check_maclaurin_interleaving(
    j_max: int, grid_size: int, digits: int = DEFAULT_DIGITS
) -> PropertyReport:
    """Alternating Maclaurin brackets for sin(pi*x) on (0, 1].

    Asserts the sub-chains that hold on the whole interval:
    S_2j < S_{2j+2} < sin(pi x) < S_{2j+1} and sin(pi x) < S_{2j-1}.
    The five-way chain with S_{2j-1} < S_{2j+1} needs
    (pi x)^2 > 4j(4j+1) and so holds for no x in (0, 1]; its empirical
    validity threshold is measured on a wider grid and reported in the
    metadata instead of being asserted.
    """
    require_digits(digits)
    worst = _Worst()
    n_sums = 2 * j_max + 2
    with working(digits):
        for x in _grid(0, 1, grid_size, include_hi=True):
            ref = mp.sin(mp.pi * x)
            sums = maclaurin_partial_sums_hp(n_sums, x, digits)
            for j in range(1, j_max + 1):
                s_even, s_even2 = sums[2 * j - 1], sums[2 * j + 1]
                s_odd_lo, s_odd_hi = sums[2 * j - 2], sums[2 * j]
                worst.update(s_even2 - s_even, "j={} x={} even-step", j, x)
                worst.update(ref - s_even2, "j={} x={} even-below", j, x)
                worst.update(s_odd_hi - ref, "j={} x={} odd-above", j, x)
                worst.update(s_odd_lo - ref, "j={} x={} prev-odd-above", j, x)
        # cuts[j]: the largest scan point where S_{2j+1} <= S_{2j-1}; one
        # downward walk settles every j, each at its first such point
        scan = [mpf(3) * i / 600 for i in range(1, 601)]
        cuts = {}
        for x in reversed(scan):
            sums = maclaurin_partial_sums_hp(2 * j_max + 1, x, digits)
            for j in range(1, j_max + 1):
                if j not in cuts and sums[2 * j] <= sums[2 * j - 2]:
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
    return worst.report(
        "maclaurin_interleaving",
        _slack(digits),
        {
            "j_max": j_max,
            "grid_size": grid_size,
            "asserted": "sub-chains on (0,1]",
            "five_way_chain_valid_for": thresholds,
        },
    )


def check_taylor_exactness(m_max: int, digits: int = DEFAULT_DIGITS) -> PropertyReport:
    """The sine approximant agrees with sin's Maclaurin coefficients to order m.

    Also spot-checks the mirrored contact point by confirming that the
    error near x=1 decays like h^(m+1).
    """
    require_digits(digits)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    tol = mpf(10) ** -40
    worst = _Worst()
    slopes = {}
    with working(digits):
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
        mpf(0),
        {"m_max": m_max, "decay_slopes_near_x1": slopes, "tolerance": "1e-40"},
    )


# --- positivity prover -----------------------------------------------------

_MAX_BISECTION_DEPTH = 40  # keeps dyadic endpoints exact in binary floats


@dataclass(frozen=True)
class PositivityProof:
    """Certificate that a polynomial is positive on a closed interval.

    Accepted subintervals tile the domain exactly (dyadic endpoints) and
    each records the interval-arithmetic lower bound established there.
    When `proved` is False the unresolved subintervals are listed; the
    prover never reports a false positive.
    """

    target_coefficients: tuple[IntervalValue, ...]
    domain: tuple[float, float]
    subintervals: tuple[tuple[float, float, float], ...]
    max_depth_used: int
    proved: bool
    unresolved: tuple[tuple[float, float], ...] = ()
    preconditions: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def min_lower_bound(self) -> float:
        return min((s[2] for s in self.subintervals), default=math.nan)


def prove_polynomial_positive(
    coeffs,
    domain: tuple[float, float],
    max_depth: int = 24,
    digits: int = DEFAULT_DIGITS,
) -> PositivityProof:
    """Adaptive bisection with outward-rounded interval evaluation.

    A subinterval is accepted as soon as interval Horner (intersected
    with the centered form) returns a positive lower bound; otherwise it
    is split, up to max_depth.  Exhaustion yields proved=False with the
    stuck subintervals recorded, never a false claim.
    """
    if not 1 <= max_depth <= _MAX_BISECTION_DEPTH:
        raise ValueError(f"max_depth must be in 1..{_MAX_BISECTION_DEPTH}")
    with interval_dps(digits):
        dcoeffs = poly_deriv(coeffs)
        accepted = []
        unresolved = []
        deepest = 0
        stack = [(float(domain[0]), float(domain[1]), 0)]
        while stack:
            lo, hi, depth = stack.pop()
            enc = poly_eval_centered(coeffs, dcoeffs, lo, hi)
            deepest = max(deepest, depth)
            if enc.lo > 0:
                accepted.append((lo, hi, float(enc.lo)))
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
        proved=not unresolved,
        unresolved=tuple(sorted(unresolved)),
    )


def example_inequality_polynomial(digits: int = DEFAULT_DIGITS):
    """Interval-coefficient polynomial for the worked positivity example.

    Builds f4(x) = 4/9 + 15x^2 - 8x + (4/pi^2)(2 Q(x)^2 + Q(2x)^2),
    where Q is the degree-4 sine approximant; f4 underestimates the
    transcendental target because 0 <= Q(u) <= sin(pi u) on [0, 1].
    Returns (coefficients, q_y_coefficient_intervals).

    Q's y-basis coefficients c_j = pi N_j(pi^2)/D_j come from the exact
    symbolic forms evaluated over a pi enclosure; the binomial expansion
    of (x(1-x))^j into monomials is exact integer arithmetic.
    """
    require_digits(digits)
    with interval_dps(digits):
        c_intervals = [s.y_coefficient_interval(digits) for s in coeff_symbolic(4)]
        q = sine_monomials(c_intervals, IntervalValue(0))
        q2x = [q[n] * (2 ** n) for n in range(len(q))]
        q_sq = poly_mul(q, q)
        q2x_sq = poly_mul(q2x, q2x)
        coeffs = [IntervalValue(0)] * 17
        coeffs[0] = IntervalValue(Fraction(4, 9))
        coeffs[1] = IntervalValue(-8)
        coeffs[2] = IntervalValue(15)
        scale = 4 / pi_interval(digits) ** 2
        for n in range(17):
            coeffs[n] = coeffs[n] + scale * (2 * q_sq[n] + q2x_sq[n])
    return coeffs, c_intervals


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
        metadata={"digits": digits, "max_depth": max_depth},
    )


def example_curve(grid_size: int = 2048, digits: int = DEFAULT_DIGITS):
    """Rows (x, f(x), f(x) - f4(x)) over [0, 1/2] for external plotting."""
    require_digits(digits)
    poly = build_poly(SIN_PI_X, 4, digits)
    rows = []
    with working(digits):
        for i in range(grid_size + 1):
            x = mpf(i) / (2 * grid_size)
            base = mpf(4) / 9 + 15 * x ** 2 - 8 * x
            s1 = mp.sin(mp.pi * x)
            s2 = mp.sin(2 * mp.pi * x)
            q1 = poly.eval_hp(x)
            q2 = poly.eval_hp(2 * x)
            f_val = base + 4 * (2 * s1 ** 2 + s2 ** 2) / mp.pi ** 2
            f4_val = base + 4 * (2 * q1 ** 2 + q2 ** 2) / mp.pi ** 2
            rows.append((float(x), float(f_val), float(f_val - f4_val)))
    return rows
