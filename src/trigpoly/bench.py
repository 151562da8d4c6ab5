"""Accuracy-versus-cost benchmark for the sine approximants.

Compares the shifted-basis approximants (Horner in y = x(1-x)) against
Maclaurin partial sums and the platform's math.sin over a grid.

Error columns are deterministic: each method's output is compared with
a 50-digit reference, in extended precision, so they measure the method
itself (for the approximants, the mathematical truncation error; for
native sin, the libm implementation error).  Timing columns measure the
machine-precision evaluation paths and are informational only.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

from mpmath import mp, mpf

from .approx import DOMAINS, SIN_PI_X, build_poly, bound_sup, maclaurin_eval, maclaurin_eval_hp
from .intervals import exact_ratio, to_double
from .precision import DEFAULT_DIGITS, working

__all__ = ["BenchConfig", "BenchRow", "run_bench", "rows_to_csv"]

CSV_HEADER = "method,m,ns_per_eval,max_abs_err,mean_abs_err,certified_bound"

# keep each timed repetition above this many ns so clock granularity is noise
_MIN_REP_NS = 20_000_000


@dataclass(frozen=True)
class BenchConfig:
    grid_size: int = 2048
    m_list: tuple[int, ...] = (1, 2, 3, 4)
    repetitions: int = 5
    digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        if self.grid_size < 1000:
            raise ValueError("grid_size must be >= 1000")
        if self.repetitions < 3:
            raise ValueError("repetitions must be >= 3")
        if not self.m_list or any(m < 1 for m in self.m_list):
            raise ValueError("m_list must contain positive degrees")


@dataclass(frozen=True)
class BenchRow:
    method: str
    m: int | None
    ns_per_eval: float
    max_abs_err: float
    mean_abs_err: float
    certified_bound: float | None = None


# module-level sink defeats dead-code elimination in the timing loops
_sink = 0.0


def _time_per_eval(fn, xs, repetitions: int) -> float:
    global _sink

    def run(batches: int) -> tuple[int, float]:
        t0 = time.perf_counter_ns()
        acc = 0.0
        for _ in range(batches):
            for x in xs:
                acc += fn(x)
        return time.perf_counter_ns() - t0, acc

    batches = 1
    while run(batches)[0] < _MIN_REP_NS:
        batches *= 2
    times = []
    for _ in range(repetitions):
        elapsed, acc = run(batches)
        times.append(elapsed)
        _sink += acc
    return statistics.median(times) / (batches * len(xs))


def _certified_bound(m: int, digits: int = DEFAULT_DIGITS) -> float:
    """The least double >= the upper end of the enclosure of the bound's supremum."""
    return to_double(*exact_ratio(bound_sup(m, digits)), 1)


def run_bench(cfg: BenchConfig) -> list[BenchRow]:
    """One row per method: approximants for each m, matched Maclaurin sums, native sin."""
    n = cfg.grid_size
    lo, hi = DOMAINS[SIN_PI_X]
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    digits = cfg.digits
    with working(digits):
        refs = [mp.sinpi(x) for x in xs]
    rows = []

    def row(method: str, m: int | None, exact, fast, certified_bound: float | None = None):
        """Append one row: the error columns from `exact`, extended precision; `fast` is timed."""
        with working(digits):
            errs = [abs(exact(x) - r) for x, r in zip(xs, refs)]
            max_err, mean_err = max(errs), sum(errs) / len(errs)
        ns = _time_per_eval(fast, xs, cfg.repetitions)
        rows.append(BenchRow(method, m, ns, float(max_err), float(mean_err), certified_bound))

    for m in cfg.m_list:
        poly = build_poly(SIN_PI_X, m, digits)
        row("Q_m", m, poly.eval_hp, poly.eval, _certified_bound(m, digits))
    for m in cfg.m_list:
        row("S_m", m, lambda x: maclaurin_eval_hp(m, x, digits), lambda x: maclaurin_eval(m, x))
    row("native_sin", None, lambda x: mpf(math.sin(math.pi * x)), lambda x: math.sin(math.pi * x))
    return rows


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.method,
                    "" if r.m is None else str(r.m),
                    f"{r.ns_per_eval:.6g}",
                    repr(r.max_abs_err),
                    repr(r.mean_abs_err),
                    "" if r.certified_bound is None else repr(r.certified_bound),
                ]
            )
        )
    return "\n".join(lines) + "\n"
