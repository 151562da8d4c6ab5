"""The benchmark's tracer still finds every function it wraps.

perfbench/tracing.py names its targets as (module, dotted attribute)
pairs; renaming or removing one of them would only surface as a crash of
a traced benchmark run.  This test installs and removes the tracer.
"""

import sys
from pathlib import Path

import pytest

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
