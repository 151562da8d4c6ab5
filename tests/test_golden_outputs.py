"""CLI outputs stay byte-identical to the stored golden files.

Each case runs `cli.main` in process and compares its stdout, and any
file it writes, with the files under tests/golden/.  After a change that
alters an output on purpose (and says so in CHANGES.md), rewrite them with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import trigpoly.cli as cli

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; "{out}" stands for a file the command writes
CASES = {
    **{f"coeffs_{route}_csv": ["coeffs", "--max-j", "40", "--digits", "30", "--format", "csv",
                               "--route", route]
       for route in ("recurrence", "direct", "bessel")},
    "coeffs_table_100": ["coeffs", "--max-j", "12", "--digits", "100"],
    "verify_all": ["verify", "--suite", "all", "--grid", "64", "--json", "{out}"],
    # the default grid (2048), the size the benchmark's verify-suite runs
    "verify_all_default_grid": ["verify", "--suite", "all", "--json", "{out}"],
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
