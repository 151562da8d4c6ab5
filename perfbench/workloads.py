"""The four workloads: inputs made from a seed, timed passes, checked outputs.

Every workload is a closed loop on one thread: the next call starts
when the previous one returns.  ``setup`` is what a fresh process pays
before its first timed operation (it is timed in fresh processes by
``probe.py``); ``prepare_checks`` computes the benchmark's own
references and is neither timed nor traced; ``run_pass`` is one timed
pass; ``check_pass`` checks that pass's outputs and returns
(operations attempted, operations failed).
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

from mpmath import mp, mpf

from checks import (
    COS,
    DOMAINS,
    SIN,
    T5_STRING,
    U,
    check_t_value,
    closed_bound,
    exact_y,
    gamma,
    general_reference,
    horner_allowance,
    least_degree,
    parse_symbolic,
    require,
    symbolic_value,
    t_reference,
    target,
    ulps_apart,
    y_coefficients,
)
from tracing import NullTracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
FUNCS = (COS, SIN)
REPORT_IDS = {
    "coeff_bounds", "bracketing_sin", "bracketing_cos", "bessel_identity",
    "maclaurin_interleaving", "taylor_exactness",
}
CHILD_TIMEOUT_S = 120


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of its waited-for children.

    Timings use CPU time, not the wall clock: the workloads are
    single-threaded and CPU-bound, so on a quiet machine the two agree,
    while on a shared virtual machine the wall clock also counts the
    time other guests take the processor away.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Workload:
    name = ""
    units = {"pass_s": "s"}  # end-to-end metric -> unit; each reported as the median over passes

    def __init__(self, seed: int, toy: bool = False, tracer=None):
        self.seed = seed
        self.toy = toy
        self.tracer = tracer if tracer is not None else NullTracer()
        self.samples = defaultdict(list)
        self.tag = f"{self.name}-{os.getpid()}"

    def setup(self) -> None:
        """Inputs from the seed plus any program-side set-up."""

    def prepare_checks(self) -> None:
        """The benchmark's own references (untimed, untraced)."""

    def run_pass(self):
        raise NotImplementedError

    def check_pass(self, outputs) -> tuple[int, int]:
        raise NotImplementedError

    def metrics(self) -> dict:
        return {name: (statistics.median(self.samples[name]), unit)
                for name, unit in self.units.items()}


# --- verify-suite ------------------------------------------------------------

def _report_lines(stdout: str, expected_ids: set, where: str) -> None:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    ids = set()
    for line in lines:
        parts = line.split(",", 3)
        require(len(parts) == 4, f"{where}: malformed report line {line!r}")
        ids.add(parts[0])
        require(parts[1] == "pass", f"{where}: {parts[0]} reported {parts[1]}: {line!r}")
    require(ids == expected_ids and len(lines) == len(expected_ids),
            f"{where}: reports {sorted(ids)}, expected {sorted(expected_ids)}")


def curve_reference(grid: int) -> list[tuple[float, float]]:
    """(x, f(x)) with f = 4/9 + 15x^2 - 8x + (4/pi^2)(2 sin^2(pi x) + sin^2(2 pi x))."""
    rows = []
    with mp.workdps(40):
        for i in range(grid + 1):
            x = mpf(i) / (2 * grid)
            f = (mpf(4) / 9 + 15 * x ** 2 - 8 * x
                 + 4 * (2 * mp.sin(mp.pi * x) ** 2 + mp.sin(2 * mp.pi * x) ** 2) / mp.pi ** 2)
            rows.append((float(x), float(f)))
    return rows


def check_curve_csv(path: Path, reference, where: str) -> None:
    with open(path, encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    require(rows and rows[0] == ["x", "f", "f_minus_f4"], f"{where}: bad curve header")
    require(len(rows) - 1 == len(reference),
            f"{where}: {len(rows) - 1} curve rows, expected {len(reference)}")
    for row, (x_ref, f_ref) in zip(rows[1:], reference):
        x, f, gap = (float(v) for v in row)
        require(x == x_ref, f"{where}: curve x {x!r} != {x_ref!r}")
        require(ulps_apart(f, f_ref) <= 2, f"{where}: f({x!r}) = {f!r}, reference {f_ref!r}")
        require(f > 0, f"{where}: f({x!r}) = {f!r} is not positive")
        require(gap >= 0, f"{where}: f - f4 = {gap!r} < 0 at x={x!r}")


def check_proof_stdout(stdout: str, where: str) -> None:
    lines = stdout.splitlines()
    require(lines and lines[0].startswith("PROVED "), f"{where}: not PROVED: {lines[:1]}")
    fields = dict(ln.split("=", 1) for ln in lines[1:] if "=" in ln)
    require(int(fields.get("subintervals", "0")) > 0, f"{where}: no subintervals")
    require(float(fields.get("min_lower_bound", "nan")) > 0,
            f"{where}: min_lower_bound not positive")


class VerifySuite(Workload):
    """`trigpoly verify --suite all --json` then `prove-example --emit-curves`, in process."""

    name = "verify-suite"

    def setup(self):
        from trigpoly import cli

        self.cli = cli
        # the defaults are the workload; the self-test shrinks the grid
        self.grid = 64 if self.toy else 2048
        grid_args = ["--grid", str(self.grid)] if self.toy else []
        self.json_path = OUT_DIR / f"{self.tag}-verify.json"
        self.csv_path = OUT_DIR / f"{self.tag}-curves.csv"
        self.verify_argv = ["verify", "--suite", "all", "--json", str(self.json_path)] + grid_args
        self.prove_argv = ["prove-example", "--emit-curves", str(self.csv_path)] + grid_args

    def prepare_checks(self):
        self.curve = curve_reference(self.grid)

    def _main(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def run_pass(self):
        t0 = cpu_seconds()
        outputs = self._main(self.verify_argv), self._main(self.prove_argv)
        self.samples["pass_s"].append(cpu_seconds() - t0)
        return outputs

    def check_pass(self, outputs):
        (v_code, v_out), (p_code, p_out) = outputs
        require(v_code == 0, f"verify exited {v_code}")
        _report_lines(v_out, REPORT_IDS, "verify")
        docs = json.loads(self.json_path.read_text(encoding="utf-8"))
        require({d["property_id"] for d in docs} == REPORT_IDS
                and all(d["status"] == "pass" for d in docs), "verify --json: not all pass")
        require(p_code == 0, f"prove-example exited {p_code}")
        check_proof_stdout(p_out, "prove-example")
        check_curve_csv(self.csv_path, self.curve, "prove-example curves")
        return 2, 0


# --- coeff-tables ------------------------------------------------------------

REC_DIGITS = (30, 50, 100, 150, 200)
TABLE_DIGITS = (30, 50, 100)
SPEC_POOL = 32  # distinct pass specs; a run longer than this many passes reuses them


def _digits_near(rng, centre: int) -> int:
    return min(200, max(30, centre + rng.randint(-6, 6)))


class CoeffTables(Workload):
    """Certified weight tables by all three routes, symbolic forms, and T_j(z)."""

    name = "coeff-tables"

    def _spec(self, rng):
        toy = self.toy
        tables = [("recurrence", rng.randint(20, 24) if toy else rng.randint(192, 200),
                   _digits_near(rng, d)) for d in REC_DIGITS]
        for route in ("direct", "bessel"):
            tables += [(route, rng.randint(8, 12) if toy else rng.randint(112, 120),
                        _digits_near(rng, d)) for d in TABLE_DIGITS]
        j_general = rng.randint(8, 10) if toy else rng.randint(36, 44)
        return {
            "tables": tables,
            "symbolic": (rng.randint(6, 8) if toy else rng.randint(48, 56),
                         _digits_near(rng, 100)),
            "general": (j_general, round(rng.uniform(0.5, 8.0), 6), _digits_near(rng, 50),
                        sorted(rng.sample(range(1, j_general + 1), 3))),
        }

    def setup(self):
        from trigpoly import coeffs

        self.coeffs = coeffs
        self.specs = [self._spec(random.Random(f"coeff-tables/{self.seed}/{k}"))
                      for k in range(SPEC_POOL)]
        self.pass_index = 0

    def prepare_checks(self):
        self.t_ref = t_reference(200, 260)

    def run_pass(self):
        spec = self.specs[self.pass_index % SPEC_POOL]
        self.pass_index += 1
        coeffs = self.coeffs
        j_sym, d_sym = spec["symbolic"]
        j_gen, z, d_gen, direct_js = spec["general"]
        t0 = cpu_seconds()
        tables = [coeffs.coefficient_table(j, d, route=route) for route, j, d in spec["tables"]]
        forms = coeffs.coeff_symbolic(j_sym)
        enclosures = [form.evaluate_interval(d_sym) for form in forms]
        general = coeffs.general_series_recurrence(j_gen, z, d_gen)
        general_direct = [coeffs.general_series_direct(j, z, d_gen) for j in direct_js]
        self.samples["pass_s"].append(cpu_seconds() - t0)
        return spec, tables, forms, enclosures, general, general_direct

    def check_pass(self, outputs):
        spec, tables, forms, enclosures, general, general_direct = outputs
        for (route, j_max, digits), table in zip(spec["tables"], tables):
            where = f"{route} table J={j_max} digits={digits}"
            require(len(table) == j_max and table.precision_digits == digits, f"{where}: shape")
            for pos, entry in enumerate(table, start=1):
                require(entry.j == pos and entry.route == route, f"{where}: entry {pos} mislabelled")
                check_t_value(pos, entry.value.value, entry.trunc_bound.value, digits,
                              self.t_ref[pos], where)
        j_sym, d_sym = spec["symbolic"]
        require(len(forms) == j_sym and forms[4].as_string() == T5_STRING,
                f"symbolic: t_5 printed as {forms[4].as_string()!r}")
        for j, (form, enc) in enumerate(zip(forms, enclosures), start=1):
            ref = self.t_ref[j]
            exact = symbolic_value(*parse_symbolic(form.as_string()), dps=260)
            with mp.workdps(260):
                require(abs(exact - ref) <= ref * mpf(10) ** -240,
                        f"symbolic t_{j} = {form.as_string()} disagrees with the reference")
            require(enc.lo <= ref <= enc.hi, f"enclosure of t_{j} at {d_sym} digits misses it")
        j_gen, z, d_gen, direct_js = spec["general"]
        require(len(general) == j_gen, "general_series_recurrence: wrong length")
        values = [(j, v) for j, v in enumerate(general, start=1)]
        values += [(j, v) for j, v in zip(direct_js, general_direct)]
        for j, value in values:
            ref = general_reference(j, z, d_gen + 30)
            with mp.workdps(d_gen + 30):
                require(abs(value.value - ref) <= abs(ref) * mpf(10) ** (-d_gen),
                        f"T_{j}({z}) at {d_gen} digits off the reference")
        return len(tables) + 2 + 1 + len(general_direct), 0


# --- eval-stream -------------------------------------------------------------

MAX_M = 14
CERT_GRID = 1023  # fixed, not seeded: the float-path fault shows at only 4 points at m=5


def _interior_points(rng, func: str, count: int) -> list[float]:
    lo, hi = DOMAINS[func]
    out = []
    while len(out) < count:
        x = lo + (hi - lo) * rng.random()
        if lo < x < hi:
            out.append(x)
    return out


class EvalStream(Workload):
    """Float `ApproxPolynomial.eval` over many points, and `error_bound` on a subsample."""

    name = "eval-stream"

    def setup(self):
        from trigpoly import approx

        self.approx = approx
        rng = random.Random(f"eval-stream/{self.seed}")
        n_points, self.n_bound, self.n_check = (300, 4, 2) if self.toy else (36000, 288, 16)
        self.points = {f: _interior_points(rng, f, n_points) for f in FUNCS}
        self.tolerances = [10.0 ** -(k + rng.random()) for k in range(1, 31)]
        self.polys = {(f, m): approx.build_poly(f, m) for f in FUNCS for m in range(1, MAX_M + 1)}
        self.selected = {(f, tol): approx.select_degree(f, tol)
                         for f in FUNCS for tol in self.tolerances}

    def prepare_checks(self):
        for (f, tol), m in self.selected.items():
            require(m == least_degree(tol), f"select_degree({f}, {tol!r}) = {m}, "
                    f"least degree is {least_degree(tol)}")
        t_ref = t_reference(MAX_M, 120)
        self.c_ref = y_coefficients(t_ref, MAX_M, 120)
        for (f, m), poly in self.polys.items():
            with mp.workdps(120):
                require(all(abs(c - r) <= r * mpf(10) ** -45
                            for c, r in zip(poly.hp_coeffs, self.c_ref)),
                        f"build_poly({f}, {m}) coefficients off the reference")
        self.refs = {f: [target(f, x, 90) for x in pts[: self.n_check]]
                     for f, pts in self.points.items()}
        self.grid = {}
        for f in FUNCS:
            lo, hi = DOMAINS[f]
            xs = [lo + (hi - lo) * i / (CERT_GRID + 1) for i in range(1, CERT_GRID + 1)]
            self.grid[f] = [(x, target(f, x, 90)) for x in xs]

    def run_pass(self):
        approx = self.approx
        kept = {}
        t0 = cpu_seconds()
        for key, poly in self.polys.items():
            kept[key] = list(map(poly.eval, self.points[key[0]]))[: self.n_check]
        certs = {}
        for (f, m) in self.polys:
            certs[(f, m)] = [approx.error_bound(f, m, x) for x in self.points[f][: self.n_bound]]
        self.samples["pass_s"].append(cpu_seconds() - t0)
        return kept, certs, self._certificate_ops()

    def _certificate_ops(self) -> int:
        """0 < target - eval(x) < error_bound(x).bound on the fixed grid, per (func, m).

        Known to fail for m >= 5: the certificate bounds the exact
        polynomial, not the float rounding in eval.  Each pair is one
        operation; it fails at its first violated grid point.
        """
        failed = 0
        for (f, m), poly in self.polys.items():
            for x, ref in self.grid[f]:
                value = poly.eval(x)
                bound = self.approx.error_bound(f, m, x).bound
                with mp.workdps(90):
                    gap = ref - value
                if not 0 < gap < bound:
                    failed += 1
                    break
        return failed

    def check_pass(self, outputs):
        kept, certs, cert_failed = outputs
        u_hp = 10.0 ** -(self.polys[(COS, 1)].precision_digits + 19)
        for (f, m), poly in self.polys.items():
            c_ref = self.c_ref[:m]
            for i, x in enumerate(self.points[f][: self.n_check]):
                where = f"{f} m={m} x={x!r}"
                cert = certs[(f, m)][i]
                exact = closed_bound(m, exact_y(f, x), dps=80)[2]
                require(cert.func == f and cert.m == m and cert.domain == DOMAINS[f],
                        f"{where}: certificate mislabelled")
                require(exact <= cert.bound <= exact * (1 + 4 * U),
                        f"{where}: bound {cert.bound!r} is not the closed form rounded up")
                hp = poly.eval_hp(x)
                rnd_hp = horner_allowance(c_ref, f, x, u_hp)
                with mp.workdps(90):
                    require(abs(cert.bound_hp - exact) <= exact * mpf(10) ** -40,
                            f"{where}: bound_hp off the closed form")
                    gap = self.refs[f][i] - hp
                    require(-rnd_hp < gap < cert.bound_hp + rnd_hp,
                            f"{where}: target - eval_hp = {mp.nstr(gap, 5)} outside "
                            f"(0, {mp.nstr(cert.bound_hp, 5)})")
                    drift = abs(kept[(f, m)][i] - hp)
                    allow = horner_allowance(c_ref, f, x, U) + rnd_hp
                    require(drift <= allow, f"{where}: |eval - eval_hp| = {mp.nstr(drift, 5)} "
                            f"exceeds the Horner rounding bound {mp.nstr(allow, 5)}")
        n_polys = len(self.polys)
        return 3 * n_polys, cert_failed


# --- cli-cold ----------------------------------------------------------------

CLI_SNIPPET = "import sys; from trigpoly.cli import main; sys.exit(main())"


def _kv_lines(stdout: str) -> dict:
    return dict(ln.split("=", 1) for ln in stdout.splitlines() if "=" in ln)


class CliCold(Workload):
    """A fixed mix of short CLI invocations, each in a fresh process."""

    name = "cli-cold"

    def __init__(self, seed, toy=False, tracer=None):
        super().__init__(seed, toy, tracer)
        self.traced = not isinstance(self.tracer, NullTracer)

    def setup(self):
        import trigpoly.cli  # noqa: F401  (the import every invocation pays)

        rng = random.Random(f"cli-cold/{self.seed}")
        self.compare_path = OUT_DIR / f"{self.tag}-compare.csv"

        def func():
            return rng.choice(("sin", "cos"))

        def interior(name):
            lo, hi = DOMAINS[SIN if name == "sin" else COS]
            return repr(round(lo + (hi - lo) * rng.uniform(0.02, 0.98), 6))

        f_eval, f_bound, f_sel, f_cmp = func(), func(), func(), func()
        self.mix = [
            ("coeffs_table", ["coeffs", "--max-j", str(rng.randint(8, 30)),
                              "--digits", str(rng.randint(30, 60))]),
            ("coeffs_csv", ["coeffs", "--max-j", str(rng.randint(8, 30)),
                            "--digits", str(rng.randint(30, 60)), "--format", "csv",
                            "--route", rng.choice(("direct", "bessel"))]),
            ("coeffs_symbolic", ["coeffs", "--max-j", str(rng.randint(5, 25)),
                                 "--format", "symbolic"]),
            ("eval", ["eval", "--func", f_eval, "--m", str(rng.randint(1, MAX_M)),
                      "--x", interior(f_eval)]),
            ("bound", ["bound", "--func", f_bound, "--m", str(rng.randint(1, MAX_M)),
                       "--x", interior(f_bound)]),
            ("select", ["select", "--func", f_sel, "--tol", repr(10.0 ** -rng.uniform(2, 25))]),
            ("compare", ["compare", "--func", f_cmp, "--m-list",
                         ",".join(str(m) for m in sorted(rng.sample(range(1, 9), 3))),
                         "--grid", str(rng.randint(200, 400)), "--seed", str(rng.randint(0, 999)),
                         "--out", str(self.compare_path)]),
            ("prove_example", ["prove-example"]),
            ("verify_coeffs", ["verify", "--suite", "coeffs"]),
            ("verify_taylor", ["verify", "--suite", "taylor"]),
        ]

    def prepare_checks(self):
        self.t_ref = t_reference(30, 100)
        self.c_ref = y_coefficients(self.t_ref, MAX_M, 60)

    def _spawn(self, name, argv):
        if self.traced:
            trace_path = OUT_DIR / f"{self.tag}-{name}.trace.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_SNIPPET, *argv]
        t0 = cpu_seconds()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        spent = cpu_seconds() - t0
        if self.traced:
            doc = json.loads(trace_path.read_text(encoding="utf-8"))
            self.tracer.merge(doc["trace"])
            self.tracer.add_wall(f"cli.{name}", doc["main_s"])
        return proc, spent

    def run_pass(self):
        results = {}
        total = 0.0
        for name, argv in self.mix:
            proc, spent = self._spawn(name, argv)
            results[name] = proc
            total += spent
        self.samples["pass_s"].append(total)
        return results

    def check_pass(self, outputs):
        for name, argv in self.mix:
            proc = outputs[name]
            require(proc.returncode == 0,
                    f"trigpoly {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
            getattr(self, f"_check_{name}")(argv, proc.stdout)
        return len(self.mix), 0

    @staticmethod
    def _opt(argv, flag):
        return argv[argv.index(flag) + 1]

    def _check_table_rows(self, rows, digits, where):
        require(rows, f"{where}: no rows")
        for pos, (j, value, bound) in enumerate(rows, start=1):
            require(int(j) == pos, f"{where}: row {pos} labelled {j}")
            with mp.workdps(120):
                # printed to `digits` significant digits, bound to 3
                slack = mpf(bound) * mpf("1.01") + self.t_ref[pos] * mpf(10) ** (1 - digits)
                check_t_value(pos, mpf(value), slack, digits, self.t_ref[pos], where)

    def _check_coeffs_table(self, argv, out):
        lines = out.splitlines()
        require(lines[0].split() == ["j", "t_j", "trunc_bound"], "coeffs table: bad header")
        rows = [ln.split() for ln in lines[1:]]
        require(len(rows) == int(self._opt(argv, "--max-j")), "coeffs table: row count")
        self._check_table_rows(rows, int(self._opt(argv, "--digits")), "coeffs table")

    def _check_coeffs_csv(self, argv, out):
        rows = list(csv.reader(io.StringIO(out)))
        require(rows[0] == ["j", "t_j", "trunc_bound"], "coeffs csv: bad header")
        require(len(rows) - 1 == int(self._opt(argv, "--max-j")), "coeffs csv: row count")
        self._check_table_rows(rows[1:], int(self._opt(argv, "--digits")), "coeffs csv")

    def _check_coeffs_symbolic(self, argv, out):
        lines = out.splitlines()
        require(len(lines) == int(self._opt(argv, "--max-j")), "coeffs symbolic: line count")
        for j, line in enumerate(lines, start=1):
            label, form = line.split(" = ")
            require(label == f"t_{j}", f"coeffs symbolic: line {j} labelled {label}")
            if j == 5:
                require(form == T5_STRING, f"coeffs symbolic: t_5 = {form!r}")
            value = symbolic_value(*parse_symbolic(form), dps=100)
            with mp.workdps(100):
                require(abs(value - self.t_ref[j]) <= self.t_ref[j] * mpf(10) ** -80,
                        f"coeffs symbolic: t_{j} = {form} disagrees with the reference")

    def _func_m_x(self, argv):
        func = SIN if self._opt(argv, "--func") == "sin" else COS
        return func, int(self._opt(argv, "--m")), float(self._opt(argv, "--x"))

    def _check_eval(self, argv, out):
        func, m, x = self._func_m_x(argv)
        fields = _kv_lines(out)
        value = float(fields["value"])
        ref = target(func, x, 60)
        with mp.workdps(60):
            require(abs(mpf(fields["reference"]) - ref) <= abs(ref) * mpf(10) ** -28,
                    f"eval: reference {fields['reference']} != target")
            err = abs(ref - value)
            require(abs(mpf(fields["error"]) - err) <= err * mpf("1e-5"), "eval: error misprinted")
            trunc = closed_bound(m, exact_y(func, x))[2]
            allow = trunc + horner_allowance(self.c_ref[:m], func, x, U)
            require(err <= allow, f"eval: |value - target| = {mp.nstr(err, 5)} > "
                    f"truncation + rounding {mp.nstr(allow, 5)}")
            require(trunc <= float(fields["bound"]) <= trunc * (1 + 4 * U),
                    "eval: bound is not the closed form rounded up")

    def _check_bound(self, argv, out):
        func, m, x = self._func_m_x(argv)
        fields = _kv_lines(out)
        lead, q, bound = closed_bound(m, exact_y(func, x))
        with mp.workdps(40):
            require(int(fields["m"]) == m, "bound: wrong m")
            for key, exact in (("leading_term", lead), ("q_m", q), ("tail_factor", 1 / (1 - q))):
                require(abs(float(fields[key]) - exact) <= abs(exact) * 4 * U,
                        f"bound: {key} = {fields[key]}, closed form {mp.nstr(exact, 17)}")
            require(bound <= float(fields["bound"]) <= bound * (1 + 4 * U),
                    "bound: not the closed form rounded up")
        require(fields["domain"] == "({},{})".format(*DOMAINS[func]), "bound: wrong domain")

    def _check_select(self, argv, out):
        tol = float(self._opt(argv, "--tol"))
        require(int(_kv_lines(out)["m"]) == least_degree(tol), "select: not the least degree")

    def _check_compare(self, argv, out):
        is_sin = self._opt(argv, "--func") == "sin"
        func = SIN if is_sin else COS
        ms = [int(v) for v in self._opt(argv, "--m-list").split(",")]
        fam = "Q" if is_sin else "P"
        with open(self.compare_path, encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        header = ["x", "reference"] + [f"{fam}_{m}" for m in ms] + [f"S_{m}" for m in ms]
        require(rows[0] == header, "compare: bad header")
        require(len(rows) - 1 == int(self._opt(argv, "--grid")), "compare: row count")
        lo, hi = DOMAINS[func]
        for row in rows[1:]:
            x = float(row[0])
            require(lo <= x <= hi, f"compare: x={x!r} outside the domain")
            ref = target(func, x, 40)
            printed = float(row[1])
            require(ulps_apart(printed, float(ref)) <= 1 or abs(printed - ref) < 1e-30,
                    f"compare: reference at {x!r}")
            y = exact_y(func, x)
            with mp.workdps(40):
                for k, m in enumerate(ms):
                    err = abs(float(row[2 + k]) - ref)
                    allow = (closed_bound(m, y)[2] + horner_allowance(self.c_ref[:m], func, x, U)
                             + mpf("1e-30"))
                    require(err <= allow, f"compare: {fam}_{m}({x!r}) off by {mp.nstr(err, 5)}")
                    exact, size = self._maclaurin(is_sin, m, x)
                    allow = gamma(8 * m + 8) * size + mpf("1e-300")
                    require(abs(float(row[2 + len(ms) + k]) - exact) <= allow,
                            f"compare: S_{m}({x!r}) is not the Maclaurin partial sum")

    @staticmethod
    def _maclaurin(is_sin, m, x):
        """Exact m-term partial sum of sin(pi x) (odd) or cos(pi x) (even), and sum |terms|."""
        t = mp.pi * mpf(x)
        start = 1 if is_sin else 0
        terms = [(-1) ** j * t ** (2 * j + start) / mp.factorial(2 * j + start) for j in range(m)]
        return sum(terms), sum(abs(v) for v in terms)

    def _check_prove_example(self, argv, out):
        check_proof_stdout(out, "cli prove-example")

    def _check_verify_coeffs(self, argv, out):
        _report_lines(out, {"coeff_bounds"}, "cli verify --suite coeffs")

    def _check_verify_taylor(self, argv, out):
        _report_lines(out, {"taylor_exactness"}, "cli verify --suite taylor")


WORKLOADS = {cls.name: cls for cls in (VerifySuite, CoeffTables, EvalStream, CliCold)}
