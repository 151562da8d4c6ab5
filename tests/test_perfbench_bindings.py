"""The benchmark's tracer still finds every function it wraps, and its checks pass.

perfbench/tracing.py names its targets as (module, dotted attribute)
pairs; renaming or removing one of them would only surface as a crash of
a traced benchmark run.  These tests install and remove the tracer, and
run the coeff-tables and eval-stream workloads' certificate checks on
fresh results, so a certificate regression fails here rather than as
failed benchmark operations.
"""

import random
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

from trigpoly.approx import DOMAINS, error_bound
from trigpoly.coeffs import coefficient_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_every_traced_target_resolves(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        targets = [t for ts in tracing.SPAN_METRICS.values() for t in ts]
        targets += list(tracing.COUNT_METRICS.values())
        for module, dotted in targets:
            assert callable(tracer._resolve(module, dotted)), (module, dotted)
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_binding(tracing):
    import trigpoly.approx as approx
    import trigpoly.verify as verify

    before = (approx.maclaurin_eval_hp, verify.build_poly, approx.error_bound)
    tracer = tracing.Tracer().install()
    assert approx.maclaurin_eval_hp is not before[0]
    tracer.uninstall()
    assert (approx.maclaurin_eval_hp, verify.build_poly, approx.error_bound) == before


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    yield checks
    sys.modules.pop("checks", None)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("route", ["recurrence", "direct", "bessel"])
def test_tables_pass_the_benchmark_coefficient_check(checks, route, digits):
    """coeff-tables' check on the stored certificates, without the CLI check's print slack."""
    ref = checks.t_reference(60, 3 * digits)
    for entry in coefficient_table(60, digits, route=route):
        checks.check_t_value(entry.j, entry.value.value, entry.trunc_bound.value, digits,
                             ref[entry.j], f"{route} table J=60 digits={digits}")


@pytest.mark.parametrize("func", sorted(DOMAINS))
def test_error_bounds_pass_the_benchmark_certificate_check(checks, func):
    """eval-stream's check of error_bound on 14 approximants x 16 seeded points."""
    rng = random.Random(f"bindings/{func}")
    lo, hi = DOMAINS[func]
    points = [lo + (hi - lo) * rng.random() for _ in range(16)]
    for m in range(1, 15):
        for x in points:
            cert = error_bound(func, m, x)
            exact = checks.closed_bound(m, checks.exact_y(func, x), dps=80)[2]
            where = f"{func} m={m} x={x!r}"
            assert exact <= cert.bound <= exact * (1 + 4 * checks.U), where
            with mp.workdps(90):
                assert abs(cert.bound_hp - exact) <= exact * mpf(10) ** -40, where
