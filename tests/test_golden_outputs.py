"""CLI outputs stay byte-identical to the stored golden files.

Each case runs `cli.main` in process and compares its stdout, and any
file it writes, with the files under tests/golden/.  The printed
coefficients show only digits + 2 digits, so `coefficient_digest` pins
the full-precision coefficient output as well: one sha256 over the exact
ratios of every value, certificate and enclosure end listed there,
stored in tests/golden/coefficients.sha256, and `curve_digest` pins the
default-grid curve of `prove-example --emit-curves` (2,049 rows) by the
sha256 of the CSV it writes, stored in tests/golden/prove_example_2048.sha256
in `sha256sum -c` form.  After a change that alters
an output on purpose (and says so in CHANGES.md), rewrite them all with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import trigpoly.cli as cli
from trigpoly.coeffs import (bessel_j_half_integer, c_enclosure, coefficient_table,
                             general_series_direct, general_series_recurrence, t_enclosure)
from trigpoly.intervals import exact_ratio, fixed_bits

GOLDEN = Path(__file__).parent / "golden"
DIGEST = GOLDEN / "coefficients.sha256"
CURVE = "prove_example_2048.csv"
CURVE_DIGEST = GOLDEN / "prove_example_2048.sha256"

# name -> argv; "{out}" stands for a file the command writes
CASES = {
    **{f"coeffs_{route}_csv": ["coeffs", "--max-j", "40", "--digits", "30", "--format", "csv",
                               "--route", route]
       for route in ("recurrence", "direct", "bessel")},
    "coeffs_table_100": ["coeffs", "--max-j", "12", "--digits", "100"],
    "verify_all": ["verify", "--suite", "all", "--grid", "64", "--json", "{out}"],
    "prove_example": ["prove-example", "--grid", "64", "--emit-curves", "{out}"],
    "eval_cos": ["eval", "--func", "cos", "--m", "12", "--x", "0.1"],
    "eval_sin": ["eval", "--func", "sin", "--m", "5", "--x", "0.3"],
    "bound_cos": ["bound", "--func", "cos", "--m", "12", "--x", "0.1"],
    "bound_sin": ["bound", "--func", "sin", "--m", "5", "--x", "0.3"],
}


def run_case(name: str, out: Path):
    """(exit code, stdout, the written file's bytes or None) of one case."""
    argv = [str(out) if a == "{out}" else a for a in CASES[name]]
    with redirect_stdout(io.StringIO()) as buf:
        code = cli.main(argv)
    written = out.read_bytes() if out.exists() else None
    return code, buf.getvalue().replace(str(out), "{out}"), written


def coefficient_digest() -> str:
    """sha256 over the exact ratio of each value, certificate and enclosure end of:
    the recurrence table at J = 200 and the direct and Bessel tables at J = 120,
    t_enclosure and c_enclosure for j <= 60, T_j(z) by both routes and J_{j-1/2}(x),
    at each of 30, 50, 100, 150 and 200 digits."""
    digest = hashlib.sha256()

    def feed(label, *values):
        ratios = [exact_ratio(getattr(v, "value", v)) for v in values]
        digest.update(f"{label}: {ratios}\n".encode())

    for digits in (30, 50, 100, 150, 200):
        for route, j_max in (("recurrence", 200), ("direct", 120), ("bessel", 120)):
            for e in coefficient_table(j_max, digits, route=route):
                feed(f"{route} {digits} {e.j}", e.value, e.trunc_bound)
        for j in range(1, 61):
            t, c = t_enclosure(j, digits), c_enclosure(j, fixed_bits(digits))
            feed(f"enclosures {digits} {j}", t.lo, t.hi, c.lo, c.hi)
        for z in ("0.5", "2.4674011002723395", "7.25", "900"):
            feed(f"T_j({z}) {digits}", *general_series_recurrence(40, z, digits))
            feed(f"T_j({z}) direct {digits}",
                 *(general_series_direct(j, z, digits) for j in (0, 1, 7, 40)))
        for x in ("0.25", "1.5707963267948966", "30"):
            feed(f"J({x}) {digits}", *(bessel_j_half_integer(j, x, digits) for j in (0, 1, 9)))
    return digest.hexdigest()


def curve_digest(tmp: Path) -> str:
    """sha256 of the CSV that `prove-example --emit-curves` writes at the default grid."""
    out = tmp / CURVE
    with redirect_stdout(io.StringIO()):
        code = cli.main(["prove-example", "--emit-curves", str(out)])
    if code != 0:
        raise AssertionError(f"prove-example exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_coefficient_digest_matches_golden():
    assert coefficient_digest() == DIGEST.read_text().strip()


def test_default_grid_curve_matches_golden(tmp_path):
    assert curve_digest(tmp_path) == CURVE_DIGEST.read_text().split()[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    code, stdout, written = run_case(name, tmp_path / "out")
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.stdout").read_text()
    expected = GOLDEN / f"{name}.out"
    assert written == (expected.read_bytes() if expected.exists() else None)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, stdout, written = run_case(name, Path(tmp) / f"{name}.out")
            if code != 0:
                raise SystemExit(f"{name} exited {code}")
            (GOLDEN / f"{name}.stdout").write_text(stdout)
            if written is not None:
                (GOLDEN / f"{name}.out").write_bytes(written)
        CURVE_DIGEST.write_text(f"{curve_digest(Path(tmp))}  {CURVE}\n")
    DIGEST.write_text(coefficient_digest() + "\n")
