import math
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import trigpoly.bench as bench
from trigpoly.bench import CSV_HEADER, BenchConfig, BenchRow, _certified_bound, rows_to_csv, run_bench


@pytest.fixture(scope="module")
def rows():
    cfg = BenchConfig(grid_size=1000, m_list=(1, 4), repetitions=3)
    return run_bench(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(grid_size=999)
    with pytest.raises(ValueError):
        BenchConfig(repetitions=2)
    with pytest.raises(ValueError):
        BenchConfig(m_list=())
    with pytest.raises(ValueError):
        BenchConfig(m_list=(0,))


def test_row_families_present(rows):
    methods = [(r.method, r.m) for r in rows]
    assert ("Q_m", 1) in methods and ("Q_m", 4) in methods
    assert ("S_m", 1) in methods and ("S_m", 4) in methods
    assert ("native_sin", None) in methods


def test_approximant_errors_within_certified_bounds(rows):
    q_rows = [r for r in rows if r.method == "Q_m"]
    assert q_rows
    for row in q_rows:
        assert row.certified_bound is not None
        assert row.max_abs_err <= row.certified_bound
        assert 0 <= row.mean_abs_err <= row.max_abs_err


def test_maclaurin_worst_error_is_pi_at_grid_end(rows):
    s1 = next(r for r in rows if r.method == "S_m" and r.m == 1)
    # sup over [0,1] of |pi x - sin(pi x)| is attained at x=1 and equals pi
    assert s1.max_abs_err == pytest.approx(math.pi, rel=1e-12)
    assert s1.certified_bound is None


def test_native_row_is_ulp_scale(rows):
    native = next(r for r in rows if r.method == "native_sin")
    assert native.max_abs_err < 1e-14
    assert native.ns_per_eval > 0


def test_csv_schema(rows):
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "method,m,ns_per_eval,max_abs_err,mean_abs_err,certified_bound"
    assert len(lines) == 1 + len(rows)
    for line in lines[1:]:
        assert len(line.split(",")) == 6
    native_line = next(l for l in lines if l.startswith("native_sin"))
    assert native_line.split(",")[1] == ""  # m column empty
    assert native_line.split(",")[5] == ""  # no certified bound
    assert text.endswith("\n") and "\r" not in text


def test_error_columns_are_deterministic():
    cfg = BenchConfig(grid_size=1000, m_list=(2,), repetitions=3)
    a = run_bench(cfg)
    b = run_bench(cfg)
    pairs = zip(a, b)
    assert all(
        x.max_abs_err == y.max_abs_err and x.mean_abs_err == y.mean_abs_err
        for x, y in pairs
    )


def test_row_is_plain_record():
    row = BenchRow(method="Q_m", m=2, ns_per_eval=1.0, max_abs_err=0.0, mean_abs_err=0.0)
    assert row.certified_bound is None


def _least_double_above_sup(m: int, dps: int) -> float:
    """The least double >= pi^(2m+2) (1/4)^(m+1) / ((2m+2)! (1 - q_m)), from mpmath at dps digits."""
    with mp.workdps(dps):
        q = (mp.pi ** 2 / 4) / ((2 * m + 4) * (2 * m + 3))
        sup = mp.pi ** (2 * m + 2) / mp.factorial(2 * m + 2) / 4 ** (m + 1) / (1 - q)
    _, man, exp, _ = sup._mpf_
    exact = Fraction(man) * Fraction(2) ** exp
    d = float(exact)
    return d if Fraction(d) >= exact else math.nextafter(d, math.inf)


def test_certified_bound_is_the_supremum_rounded_up(rows):
    q_rows = [r for r in rows if r.method == "Q_m"]
    for row in q_rows:
        assert row.certified_bound == _least_double_above_sup(row.m, 150)
    for m in range(1, 41):
        assert _certified_bound(m, 50) == _least_double_above_sup(m, 150), m


def test_accuracy_columns_match_golden(monkeypatch):
    # timing pinned to 1 ns, so the CSV holds only the deterministic columns
    monkeypatch.setattr(bench, "_time_per_eval", lambda fn, xs, repetitions: 1.0)
    rows = run_bench(BenchConfig(grid_size=1000, m_list=(1, 2, 5, 9), repetitions=3))
    golden = Path(__file__).parent / "golden" / "bench_accuracy.csv"
    assert rows_to_csv(rows) == golden.read_text()
