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
positive, so no pass rests on rounding noise.  The three grid reports
come from one sweep, `check_grid`, over one grid of exact dyadics,
symmetric about 1/2 (`_grid`).  At each point u of the lower half and
per bits, one pass down sin's Maclaurin series (`fixed_sin_maclaurin`)
encloses sin(pi u) and the Maclaurin partial sums, and the partial sums
in y = u(1 - u) are enclosed once.  bracketing_cos reads those rows at
x = u - 1/2 (the cosine grid is the sine grid minus 1/2), as
cos(pi x) = sin(pi u) and 1/4 - x^2 = u(1 - u); both bracketing reports
read them again at the mirror 1 - u, and the Maclaurin report reads the
same sine there.  Each margin is folded as it is formed (`_fold`).

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
same polynomial, its quadratic part by exact integer Horner and its
sines from two angle tables, and its values are correctly rounded floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_div, mpf_shift, repr_dps, round_nearest,
                          to_str)

from .approx import COS_PI_X, _check_func, sine_monomials
from .coeffs import (c_enclosure, coeff_symbolic, coefficient_table, fixed_at_pi2, poly_mul,
                     poly_sum)
from .intervals import (IntervalValue, exact_ratio, fixed_bits, fixed_from_interval,
                        fixed_maclaurin, fixed_mul, fixed_partial_sums, fixed_pi, fixed_ratio,
                        fixed_sin_cos_pi, fixed_sin_maclaurin, fixed_t_scaled, fixed_y,
                        interval_from_fixed, poly_eval_centered)
from .precision import DEFAULT_DIGITS, require_digits, require_index, working

__all__ = [
    "PositivityProof",
    "PropertyReport",
    "check_bessel_identity",
    "check_bracketing",
    "check_coefficient_bounds",
    "check_grid",
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


def _grid(n: int) -> list[tuple[int, int]]:
    """The grid checks' sine grid, ascending, as exact ratios (p, q), q a power of two.

    n uniform interior points i/(n+1) and 32 points within 1e-6 of each
    end, which probe the high-order zeros at the ends, where every
    quantity under test degenerates.  The grid is symmetric about 1/2.
    Its lower half is 1e-6 * 2^-k, k = 31..0, and i/(n+1) for 2i <= n+1,
    each rounded to nearest at the context's precision as mpf arithmetic
    rounds it (1/2 itself, for odd n, is exact).  Its upper half is 1 - x
    for each x below 1/2, exact, with no rounding.  The cosine grid is the
    sine grid minus 1/2, exact, and the Maclaurin grid adds x = 1; one
    sweep, `check_grid`, walks the lower half for all three.
    """
    prec = mp.prec
    off = mpf("1e-6")._mpf_
    raw = [mpf_shift(off, -k) for k in range(_CLUSTER)]
    den = from_int(n + 1)
    raw += [mpf_div(from_int(i), den, prec, round_nearest) for i in range(1, (n + 1) // 2 + 1)]
    # sorted: the clustered points lie below the uniform ones unless n > 10^6
    lower = [exact_ratio(x) for x in sorted(map(mp.make_mpf, raw))]
    return lower + [(q - p, q) for p, q in reversed(lower) if 2 * p < q]


def _dyadic_text(p: int, q: int) -> str:
    """p/q, q a power of two, with the digits its own mantissa needs.

    The text parses back to p/q at that mantissa's width; the shifted and
    mirrored grid points need more bits than the working precision.
    """
    x = from_man_exp(p, 1 - q.bit_length())
    return to_str(x, repr_dps(x[3]))


class _Worst:
    """Track the minimum margin and where it happened.

    The first point with the smallest margin wins; updated in descending
    x, the last one does, which is the first in ascending x.  Its label
    is kept as a format string and its parts, and formatted once, by
    `where`: a sweep makes thousands of comparisons but reports one
    label.  mpf parts print with 10 significant digits, and a grid point,
    an exact ratio (p, q), in full.
    """

    def __init__(self, descending: bool = False):
        self.margin = None
        self.descending = descending
        self._label = ("", ())

    def update(self, margin, fmt: str, *parts) -> None:
        if (self.margin is None or margin < self.margin
                or (self.descending and margin == self.margin)):
            self.margin = margin
            self._label = (fmt, parts)

    def merge(self, after: "_Worst") -> None:
        """Fold in the worst of points that all lie above this one's."""
        if after.margin is not None:
            self.update(after.margin, after._label[0], *after._label[1])

    @property
    def where(self) -> str:
        fmt, parts = self._label
        return fmt.format(*(_dyadic_text(*p) if isinstance(p, tuple)
                            else mp.nstr(p, 10) if isinstance(p, mpf) else p
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


def _fold(rows, enclosures) -> tuple[bool, tuple[int, float]]:
    """(settled, (i, margin)) of one point's margin rows, folded as they are formed.

    enclosures = (sums, scales, sine); with vals = sums and the sine last,
    row i, (a, b, s), is vals[a] - vals[b] over scales[s].  settled: every
    difference's sign is decided.  Each row's margin is diff/scale at its
    low end, diff_lo / (scale_hi if diff_lo > 0 else scale_lo), rounded to
    nearest, and -inf when that scale bound is not positive; i is the first
    row with the least margin.
    """
    sums, scales, sine = enclosures
    vals = sums + [sine]
    settled, at, least = True, 0, math.inf
    for i, (a, b, s) in enumerate(rows):
        d_lo = vals[a][0] - vals[b][1]
        if d_lo > 0:
            den = scales[s][1]
        else:
            den = scales[s][0]
            settled = settled and vals[a][1] - vals[b][0] < 0
        if den <= 0:
            rel = -math.inf
        else:
            try:
                rel = d_lo / den
            except OverflowError:
                rel = -math.inf if d_lo < 0 else math.inf
        if rel < least:
            at, least = i, rel
    return settled, (at, least)


def _least_margin(rows) -> tuple[bool, tuple[int, float]]:
    """`_fold` of rows (diff_lo, diff_hi, scale_lo, scale_hi), each diff less 0 over its scale."""
    return _fold([(i, -1, i) for i in range(len(rows))],
                 ([r[:2] for r in rows], [r[2:] for r in rows], (0, 0)))


class _Sweep:
    """Fixed-point evaluation of a grid, with per-point precision escalation.

    `escalate(rows_at, read, weight)` reads `rows_at(bits)`, first at the
    base bits and then with the bits doubled while any row's difference
    leaves its sign open, up to the cap; a point still open at the cap is
    counted as unresolved.  `weight` is the number of grid points the rows
    stand for.  `margins(evaluate, labels, (p, q), worst, read)` reads
    `evaluate(p, q, bits)` at x = p/q.
    """

    def __init__(self, digits: int):
        self.digits = digits
        self.base = self.top = fixed_bits(digits)
        self.cap = self.base << _MAX_DOUBLINGS
        self.escalated = 0
        self.unresolved = 0
        self.worst = _Worst()

    def escalate(self, rows_at, read, weight: int = 1):
        # read(rows) -> (settled, result); the result at the last bits tried
        bits = self.base
        settled, out = read(rows_at(bits))
        while not settled:
            if bits >= self.cap:
                self.unresolved += weight
                break
            bits *= 2
            settled, out = read(rows_at(bits))
        if bits > self.base:
            self.escalated += weight
            self.top = max(self.top, bits)
        return out

    def margins(self, evaluate, labels, point, worst: _Worst | None = None,
                read=_least_margin) -> None:
        """Fold a point's margins, labelled by `labels` (format, parts...), into `worst`;
        `read` folds what `evaluate` gives, by default a list of margin rows."""
        p, q = point
        i, least = self.escalate(lambda bits: evaluate(p, q, bits), read)
        # rounding the nearest quotient down one step gives a lower bound
        (worst or self.worst).update(math.nextafter(least, -math.inf), *labels[i], point)

    def report(self, property_id: str, metadata: dict, worst: _Worst | None = None,
               evidence: str = _EVIDENCE) -> PropertyReport:
        report = (worst or self.worst).report(
            property_id,
            {
                **metadata,
                "digits": self.digits,
                "evidence": evidence,
                "margin": "lower end of difference / leading term",
                "base_bits": self.base,
                "max_bits": self.top,
                "escalated_points": self.escalated,
                "unresolved_points": self.unresolved,
            },
        )
        return dataclasses.replace(report, status="fail") if self.unresolved else report


_GRID_NOTE = ("sine grid symmetric about 1/2, its upper half 1 - x of the lower; "
              "cosine grid = sine grid - 1/2; Maclaurin grid = sine grid and x = 1")
_SHIFT_EVIDENCE = (f"{_EVIDENCE} of the sine rows at u = x + 1/2: "
                   "cos(pi x) = sin(pi u) and 1/4 - x^2 = u(1 - u)")


def check_bracketing(
    func: str, m_max: int, grid_size: int, digits: int = DEFAULT_DIGITS
) -> PropertyReport:
    """Monotone bracketing: approximants increase with m and stay below the target.

    Enclosed pointwise on the grid: for every m up to m_max,
    P_m < P_{m+1} (margin scaled by c_{m+1} y^{m+1}) and
    P_{m+1} < target (scaled by c_{m+2} y^{m+2}), with the exact
    coefficients and the target from its alternating Maclaurin series.
    The sweep of `check_grid`, asked for this one report.
    """
    return check_grid(grid_size, digits, (func,), m_max)[0]


def check_grid(
    grid_size: int,
    digits: int = DEFAULT_DIGITS,
    bracketing: tuple[str, ...] = (),
    m_max: int = 10,
    j_max: int | None = None,
) -> list[PropertyReport]:
    """The grid reports asked for, from one walk of the grid (`_grid`).

    `bracketing` names the functions whose `check_bracketing` report is
    wanted, up to m_max; j_max asks for `check_maclaurin_interleaving`'s.
    The reports come in that order.

    The walk visits the sine grid's lower half, u = p/q <= 1/2, once.  At
    each point and bits one series pass encloses sin(pi u) and the
    Maclaurin partial sums (`fixed_sin_maclaurin`), and y = u(1 - u) and
    the partial sums in y are enclosed once.  Those rows are every
    bracketing report's: bracketing_sin at 1 - u is the same statement, as
    y and sin(pi u) are symmetric about 1/2, and so is bracketing_cos at
    x = u - 1/2, as cos(pi x) = sin(pi u) and 1/4 - x^2 = u(1 - u).  A
    point below 1/2 therefore counts twice in escalated_points and
    unresolved_points.  The Maclaurin report reads the pass at u, and its
    sine at 1 - u with that point's own partial sums, with its own
    escalation.  Each report keeps the first of equal margins in
    ascending x.  Nothing computed outlives the call, and no point's rows
    outlive its visit.
    """
    require_digits(digits)
    for func in bracketing:
        _check_func(func)
    if bracketing and m_max < 2:
        raise ValueError("m_max must be >= 2")
    if j_max is not None and j_max < 1:
        raise ValueError("j_max must be >= 1")

    # margin rows (a, b, s): vals[a] - vals[b] over scales[s], the sine last in vals
    bracket_rows, bracket_labels = [(-1, 0, 1)], [("m=1 x={} delta",)]
    for m in range(1, m_max + 1):
        bracket_rows += [(m, m - 1, m), (-1, m, m + 1)]
        bracket_labels += [("m={} x={} chain", m), ("m={} x={} delta", m + 1)]
    mac_rows, mac_labels = [], []
    for j in range(1, (j_max or 0) + 1):
        mac_rows += [(2 * j + 1, 2 * j - 1, 2 * j), (-1, 2 * j + 1, 2 * j + 2),
                     (2 * j, -1, 2 * j + 1), (2 * j - 2, -1, 2 * j - 1)]
        mac_labels += [("j={} x={} " + kind, j)
                       for kind in ("even-step", "even-below", "odd-above", "prev-odd-above")]
    fold_bracket, fold_mac = partial(_fold, bracket_rows), partial(_fold, mac_rows)
    n = 2 * j_max + 2 if j_max else 0  # the Maclaurin terms a pass sums

    with working(digits):
        bracket, mac = _Sweep(digits), _Sweep(digits)
        worsts = {func: _Worst() for func in bracketing}
        above = _Worst(descending=True)  # Maclaurin above 1/2, visited downwards
        if j_max:  # x = 1 tops the Maclaurin grid: first on the way down
            mac.margins(lambda p, q, bits: fixed_sin_maclaurin(p, q, n, bits),
                        mac_labels, (1, 1), above, fold_mac)
        points = _grid(grid_size)
        for p, q in points[:(len(points) + 1) // 2]:
            passes = {}  # bits -> the one series pass at u, for this point's visit only

            def one_pass(bits):
                if bits not in passes:
                    passes[bits] = fixed_sin_maclaurin(p, q, n, bits)
                return passes[bits]
            mirrored = 2 * p < q
            if bracketing:
                i, least = bracket.escalate(lambda bits: (
                    *fixed_partial_sums(_fixed_coefficients(m_max + 2, bits),
                                        fixed_y(p, q, bits, False), bits),
                    one_pass(bits)[2]), fold_bracket, 1 + mirrored)
                # rounding the nearest quotient down one step gives a lower bound
                margin = math.nextafter(least, -math.inf)
                for func, worst in worsts.items():
                    x = (2 * p - q, 2 * q) if func == COS_PI_X else (p, q)
                    worst.update(margin, *bracket_labels[i], x)
            if j_max:
                mac.margins(lambda p, q, bits: one_pass(bits), mac_labels, (p, q), None, fold_mac)
                if mirrored:
                    mac.margins(lambda p, q, bits: (*fixed_maclaurin(p, q, n, bits),
                                                    one_pass(bits)[2]),
                                mac_labels, (q - p, q), above, fold_mac)
        mac.worst.merge(above)
        thresholds = _chain_thresholds(j_max) if j_max else None

    reports = [
        bracket.report(f"bracketing_{'cos' if func == COS_PI_X else 'sin'}",
                       {"m_max": m_max, "grid_size": grid_size, "grid": _GRID_NOTE},
                       worsts[func], _SHIFT_EVIDENCE if func == COS_PI_X else _EVIDENCE)
        for func in bracketing
    ]
    if j_max:
        reports.append(mac.report(
            "maclaurin_interleaving",
            {
                "j_max": j_max,
                "grid_size": grid_size,
                "grid": _GRID_NOTE,
                "asserted": "sub-chains on (0,1]",
                "five_way_chain_valid_for": thresholds,
            },
        ))
    return reports


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
    1 - 10^digits trunc_bound/t_j, the certificate relative to the
    10^-digits it must stay below, exact and rounded down, so that it
    stays a normal double at any digits.  A table that refuses a
    certificate fails the report.
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
        scale = 10 ** digits
        margin, j = min((1 - scale * Fraction(*exact_ratio(e.trunc_bound.value))
                         / Fraction(*exact_ratio(e.value.value)), e.j) for e in table)
        worst.update(_round_double(margin), "j={} route", j)
    return worst.report(
        "bessel_identity",
        {"j_max": j_max, "digits": digits,
         "evidence": "exact term identity over Q; route certified by the enclosure",
         "margin": "1 - 10^digits trunc_bound/t_j, rounded down"},
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
    being asserted.  The sweep of `check_grid`, asked for this one report.
    """
    return check_grid(grid_size, digits, j_max=j_max)[0]


def _chain_thresholds(j_max: int) -> dict:
    """Where the five-way chain's S_{2j-1} < S_{2j+1} starts to hold, on a scan of (0, 3].

    S_{2j+1} - S_{2j-1} = t^(4j-1)/(4j-1)! (t^2/(4j(4j+1)) - 1), t = pi x, so
    at a scan point x = i/200 it has the sign of pi^2 i^2 - 40000 4j(4j+1),
    which `fixed_pi` decides; pi^2 is irrational, so more bits always do.
    The threshold is the largest scan point where the step is negative,
    found walking the same scan downwards.
    """

    def negative(i, j, bits=64):
        bound = 160000 * j * (4 * j + 1) << 2 * bits
        lo, hi = ((pi * i) ** 2 < bound for pi in fixed_pi(bits))
        return hi if lo == hi else negative(i, j, 2 * bits)  # open at these bits

    thresholds = {}
    for j in range(1, j_max + 1):
        cut = next((i for i in range(600, 0, -1) if negative(i, j)), 600)
        thresholds[f"j={j}"] = {
            # a cut at the top of the scan: the chain never became valid in range
            "empirical_x_above": cut / 200 if cut < 600 else None,
            "theoretical_x": float(mp.sqrt(4 * j * (4 * j + 1)) / mp.pi),
        }
    return thresholds


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


# the curve's enclosures start at twice a double's significand; see example_curve
_CURVE_BITS = 2 * 53


def _table_sine(q: int, bits: int):
    """sine(j), the enclosure of sin(pi j/q) for 0 <= j <= q/2, from two angle tables.

    With j = aB + b, B = 2^floor(log2(q)/2), sin(pi j/q) is
    sin(pi aB/q) cos(pi b/q) + cos(pi aB/q) sin(pi b/q): the tables, k = aB
    and k = b < B, of sin and cos(pi k/q), about 2 (q/2B + B) enclosures
    from `fixed_sin_cos_pi`, each computed when first read, serve every j.
    """
    step = 1 << (q.bit_length() - 1) // 2
    angle = lru_cache(maxsize=None)(
        lambda k: (fixed_sin_cos_pi(k, q, bits), fixed_sin_cos_pi(k, q, bits, cos=True)))

    def sine(j):
        (sin_a, cos_a), (sin_b, cos_b) = angle(j - j % step), angle(j % step)
        u, v = fixed_mul(sin_a, cos_b, bits), fixed_mul(cos_a, sin_b, bits)
        return u[0] + v[0], u[1] + v[1]
    return sine


def _curve_level(grid_size: int, bits: int):
    """`example_curve` at one precision: row(i), the enclosures of f and
    f - f4 at x = i/q, q = 2 grid_size, its sines from `_table_sine`."""
    q = 2 * grid_size
    den = q ** 16
    pi_lo, pi_hi = fixed_pi(bits)
    four_over_pi2 = (4 << 3 * bits) // (pi_hi * pi_hi), -((-4 << 3 * bits) // (pi_lo * pi_lo))
    # for x = i/q >= 0 the quadratic part is [sum lo_k i^k q^(16-k),
    # sum hi_k i^k q^(16-k)] / q^16 exactly: its coefficients times q^(16-k)
    quad = [(lo * q ** (16 - k), hi * q ** (16 - k))
            for k, (lo, hi) in enumerate(_quadratic_part(bits))][::-1]
    # row i reads sin^2(pi j/q) at j = i and at the even j = min(2i, q - 2i):
    # only an even j is read by more than one row, so only those are kept
    sine, evens = _table_sine(q, bits), [None] * (grid_size // 2 + 1)

    def square(j):
        sq = None if j % 2 else evens[j // 2]
        if sq is None:
            s = sine(j)
            sq = fixed_mul(s, s, bits)
            if j % 2 == 0:
                evens[j // 2] = sq
        return sq

    def row(i):
        # sin(2 pi i/q) = sin(pi j/q), j = min(2i, q - 2i)
        s1, s2 = square(i), square(min(2 * i, q - 2 * i))
        trig = fixed_mul(four_over_pi2, (2 * s1[0] + s2[0], 2 * s1[1] + s2[1]), bits)
        # 4/9 - 8x + 15x^2 = (4q^2 - 72iq + 135i^2) / (9q^2); in f - f4 it
        # cancels exactly, leaving trig less the quadratic part, by integer Horner
        base = fixed_ratio(4 * q * q - 72 * i * q + 135 * i * i, 9 * q * q, bits)
        lo = hi = 0
        for c_lo, c_hi in quad:
            lo, hi = lo * i + c_lo, hi * i + c_hi
        return (base[0] + trig[0], base[1] + trig[1]), (trig[0] + -hi // den, trig[1] - lo // den)
    return row


def example_curve(grid_size: int = 2048, digits: int = DEFAULT_DIGITS):
    """Rows (x, f(x), f(x) - f4(x)) at x = i/(2 grid_size), i = 0..grid_size.

    f and f - f4 are enclosed with the fixed-point kernel, the bits
    doubled until each enclosure rounds to a single float, so every
    value is the correctly rounded one, whatever the bits it settles at:
    the rows do not depend on `digits`, which sets only the cap,
    `fixed_bits(digits)` * 2**3 bits.  The enclosures start at twice a
    double's 53-bit significand, 106 fractional bits (`_CURVE_BITS`): a
    value near 1 then has 53 bits past the ones a double keeps, so only a
    value within about 2^-53 of a rounding boundary, relative, or far
    below 1 (f - f4 near x = 0) doubles; on the default grid 10 of the
    2049 rows do, once.  At x = i/q, q = 2 grid_size, sin(2 pi x) =
    sin(pi j/q), j = min(2i, q - 2i): the grid_size + 1 sines, each formed
    once per bits from two angle tables (`_table_sine`), serve every row.
    f4's quadratic part is exact, by integer Horner in i, rounded once.
    """
    require_digits(digits)
    cap = fixed_bits(digits) << _MAX_DOUBLINGS
    levels = {}  # bits -> `_curve_level`'s row, for this call only
    rows = []
    for i in range(grid_size + 1):
        bits = _CURVE_BITS
        while True:
            if bits not in levels:
                levels[bits] = _curve_level(grid_size, bits)
            f_enc, gap_enc = levels[bits](i)
            f_val, gap = _fixed_float(f_enc, bits), _fixed_float(gap_enc, bits)
            if f_val is not None and gap is not None:
                break
            if bits >= cap:  # pragma: no cover
                raise ArithmeticError(f"curve value at i={i} not settled at {bits} bits")
            bits *= 2
        rows.append((i / (2 * grid_size), f_val, gap))
    return rows
