"""Span and counter recorder wrapped around trigpoly's public functions.

The wrappers are installed from outside the package: every binding of a
wrapped function is replaced, in the module that defines it and in every
module that imported it by name (``verify`` binds ``build_poly`` and
``maclaurin_eval_hp`` at import, ``approx`` binds ``coeff_recurrence``),
so no call slips past the recorder.  Spans and counts are aggregated in
memory per metric name and written out when the run ends.

A span's wall time counts only the outermost entry of its name, so a
route that calls itself (``coeff_bessel`` -> ``bessel_j_half_integer``)
is not counted twice.  Self time is the span's duration minus the time
covered by the spans it encloses.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN_METRICS = {
    # metric base name: the functions whose calls it spans
    "intervals.poly_eval_centered": [("intervals", "poly_eval_centered")],
    "coeffs.recurrence": [("coeffs", "coeff_recurrence")],
    "coeffs.direct": [("coeffs", "coeff_direct")],
    "coeffs.bessel": [("coeffs", "coeff_bessel"), ("coeffs", "bessel_j_half_integer"),
                      ("coeffs", "gamma_half")],
    "coeffs.symbolic": [("coeffs", "coeff_symbolic"),
                        ("coeffs", "SymbolicCoefficient.evaluate"),
                        ("coeffs", "SymbolicCoefficient.evaluate_interval"),
                        ("coeffs", "SymbolicCoefficient.y_coefficient_interval")],
    "coeffs.general_series": [("coeffs", "general_series_direct"),
                              ("coeffs", "general_series_recurrence")],
    "approx.build_poly": [("approx", "build_poly")],
    "approx.select_degree": [("approx", "select_degree")],
    "approx.eval": [("approx", "ApproxPolynomial.eval")],
    "approx.error_bound": [("approx", "error_bound")],
    "approx.eval_hp": [("approx", "ApproxPolynomial.eval_hp")],
    "approx.maclaurin_eval_hp": [("approx", "maclaurin_eval_hp")],
    "verify.coeff_bounds": [("verify", "check_coefficient_bounds")],
    "verify.bracketing": [("verify", "check_bracketing")],  # split by func below
    "verify.bessel": [("verify", "check_bessel_identity")],
    "verify.maclaurin": [("verify", "check_maclaurin_interleaving")],
    "verify.taylor": [("verify", "check_taylor_exactness")],
    "verify.prove": [("verify", "prove_example_inequality"),
                     ("verify", "prove_polynomial_positive")],
    "verify.curve": [("verify", "example_curve")],
}

COUNT_METRICS = {
    "precision.working": ("precision", "working"),
    "intervals.interval_dps": ("intervals", "interval_dps"),
    "intervals.pi_interval": ("intervals", "pi_interval"),
}


def _one(result) -> int:
    return 1


def _subintervals(result) -> int:
    return len(result.subintervals)


# units of work counted at the outermost span of a name: coefficient values
# delivered by the coeffs layer, and accepted subintervals of a proof
UNIT_METRICS = {
    ("coeffs", "coeff_recurrence"): ("coeffs.entries", len),
    ("coeffs", "coeff_direct"): ("coeffs.entries", _one),
    ("coeffs", "coeff_bessel"): ("coeffs.entries", _one),
    ("coeffs", "coeff_symbolic"): ("coeffs.entries", len),
    ("coeffs", "general_series_direct"): ("coeffs.entries", _one),
    ("coeffs", "general_series_recurrence"): ("coeffs.entries", len),
    ("verify", "prove_example_inequality"): ("verify.subintervals", _subintervals),
}

CLI_INVOCATIONS = (
    "coeffs_table", "coeffs_csv", "coeffs_symbolic", "eval", "bound", "select",
    "compare", "prove_example", "verify_coeffs", "verify_taylor",
)

# spans that enclose other spans, so their self time differs from their wall time
SELF_TIME_SPANS = (
    "approx.build_poly", "verify.coeff_bounds", "verify.bracketing_sin",
    "verify.bracketing_cos", "verify.bessel", "verify.maclaurin", "verify.taylor",
    "verify.prove", "verify.curve",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("cli.import_s", "s")] + [(f"cli.{n}_s", "s") for n in CLI_INVOCATIONS]
    out.append(("precision.working_calls", "count"))
    out += [("intervals.interval_dps_calls", "count"),
            ("intervals.poly_eval_centered_s", "s"),
            ("intervals.poly_eval_centered_calls", "count"),
            ("intervals.pi_interval_calls", "count")]
    out += [("coeffs.recurrence_s", "s"), ("coeffs.recurrence_calls", "count"),
            ("coeffs.direct_s", "s"), ("coeffs.bessel_s", "s"),
            ("coeffs.symbolic_s", "s"), ("coeffs.general_series_s", "s"),
            ("coeffs.entries", "count")]
    for base in ("build_poly", "select_degree", "eval", "error_bound", "eval_hp",
                 "maclaurin_eval_hp"):
        out.append((f"approx.{base}_s", "s"))
        if base != "select_degree":
            out.append((f"approx.{base}_calls", "count"))
    for base in ("coeff_bounds", "bracketing_sin", "bracketing_cos", "bessel",
                 "maclaurin", "taylor", "prove", "curve"):
        out.append((f"verify.{base}_s", "s"))
    out.append(("verify.subintervals", "count"))
    out += [(f"{name}_self_s", "s") for name in SELF_TIME_SPANS]
    return out


def _bracketing_name(args, kwargs) -> str:
    func = kwargs.get("func", args[0] if args else "")
    return "verify.bracketing_sin" if func == "sin_pi_x" else "verify.bracketing_cos"


class Tracer:
    """In-memory aggregate of spans (wall, self, calls) and counters."""

    def __init__(self):
        self.wall_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.units = defaultdict(int)
        self.enabled = True
        self._depth = defaultdict(int)
        self._stack = []  # one [child_ns] cell per open span
        self._undo = []

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn, unit=None, name_of=None):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            key = name_of(args, kwargs) if name_of else name
            outer = tracer._depth[key] == 0
            tracer._depth[key] += 1
            cell = [0]
            tracer._stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                tracer._stack.pop()
                tracer._depth[key] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                tracer.calls[key] += 1
                tracer.self_ns[key] += dur - cell[0]
                if outer:
                    tracer.wall_ns[key] += dur
            if unit is not None and outer:
                tracer.units[unit[0]] += unit[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------
    @staticmethod
    def _resolve(module: str, dotted: str):
        obj = sys.modules[f"trigpoly.{module}"]
        for part in dotted.split("."):
            obj = getattr(obj, part)
        return obj

    def _rebind(self, original, replacement) -> None:
        holders = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "trigpoly" or mod_name.startswith("trigpoly.")):
                continue
            holders.append(mod)
            holders += [v for v in vars(mod).values()
                        if isinstance(v, type) and v.__module__ == mod_name]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, replacement)
                    self._undo.append((holder, attr, original))

    def install(self) -> "Tracer":
        import trigpoly.cli  # noqa: F401  (loads every layer)

        for name, targets in SPAN_METRICS.items():
            for module, dotted in targets:
                fn = self._resolve(module, dotted)
                name_of = _bracketing_name if name == "verify.bracketing" else None
                unit = UNIT_METRICS.get((module, dotted))
                self._rebind(fn, self._span(name, fn, unit, name_of))
        for name, (module, dotted) in COUNT_METRICS.items():
            fn = self._resolve(module, dotted)
            self._rebind(fn, self._counter(name, fn))
        return self

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- aggregates --------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "wall_s": {k: v / 1e9 for k, v in self.wall_ns.items()},
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "units": dict(self.units),
        }

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process."""
        for k, v in snap["wall_s"].items():
            self.wall_ns[k] += round(v * 1e9)
        for k, v in snap["self_s"].items():
            self.self_ns[k] += round(v * 1e9)
        for k, v in snap["calls"].items():
            self.calls[k] += v
        for k, v in snap["units"].items():
            self.units[k] += v

    def add_wall(self, name: str, seconds: float) -> None:
        self.wall_ns[name] += round(seconds * 1e9)


class NullTracer:
    """Stand-in for untraced runs: nothing is wrapped or recorded."""

    enabled = False

    @contextmanager
    def paused(self):
        yield


def per_pass(setup: dict, end: dict, passes: int) -> dict:
    """Per-layer figures for one set-up plus one pass of the loop."""

    def pick(snap, field, key):
        return snap[field].get(key, 0)

    def blend(field, key):
        s = pick(setup, field, key)
        return s + (pick(end, field, key) - s) / passes

    values = {}
    for name, unit in per_layer_metrics():
        if name == "cli.import_s":
            continue  # measured in fresh processes, filled in by the caller
        if name.endswith("_self_s"):
            values[name] = blend("self_s", name[: -len("_self_s")])
        elif name.endswith("_s"):
            values[name] = blend("wall_s", name[: -len("_s")])
        elif name.endswith("_calls"):
            values[name] = blend("calls", name[: -len("_calls")])
        else:
            values[name] = blend("units", name)
    return values
