"""Seeded khlab workloads and the checks that hold their outputs to the paper.

A workload is a list of ``Invocation``s: the flags handed to
``python -m khlab.cli`` plus a checker for the stdout it prints.  The seed
varies physical values (wave numbers, field strengths, seed frequency)
inside ranges that keep the work fixed: grid sizes, sample counts and the
default rk4 ``dt`` are the same for every seed, so seeds change values but
not cost.  ``smoke=True`` shrinks every workload for the self-tests.

Checkers return a list of problems (empty means the output is right).  They
compare numbers with tolerances, never with byte digests, so a later
change that only moves roundoff still passes; byte identity is demanded
only between repeats of the same code, by the driver.
"""

import csv
import io
import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
# Kept out of tuning: a claimed gain must also hold on this seed.
HELD_OUT_SEED = 7

RESIDUAL_GATE = 1e-9
ORDER_TARGET, ORDER_TOL = 2.0, 0.2
# rk4 at dt = 0.01 agrees with the exact propagators to about 5e-6 at n = 4
# and 4e-5 at n = 12, relative to each column's largest value (the e^{n t}
# growth sets the step error); 1e-4 still catches a wrong integrator.
RK4_RTOL = 1e-4
PROFILE_TOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    check: object                 # check(stdout, reference_stdout) -> [problem]
    reference: tuple = None       # flags of an untimed run whose stdout check() compares against

    @property
    def command(self):
        return self.argv[self.argv.index("--command") + 1]


# ---------------------------------------------------------------------------
# parsing khlab output
# ---------------------------------------------------------------------------

def csv_rows(text):
    """Data rows of a khlab CSV (comment echo skipped) as dicts of strings."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _flag(argv, key):
    return argv[argv.index("--" + key) + 1]


def _gamma_squared(k1, k2, a, b):
    """Closed-form growth rate at the default configuration.

    u+ = -u- = (1,0,0), n1 = n2 = m_i = 1: the shear drive is k1^2 and the
    transverse fields (0,a,0), (0,b,0) add tension k2^2 (a^2+b^2) / (8 pi).
    """
    return k1 * k1 - k2 * k2 * (a * a + b * b) / (8.0 * math.pi)


def _close(x, y, scale):
    return abs(x - y) <= 1e-12 * max(1.0, abs(scale))


# ---------------------------------------------------------------------------
# checkers, one per command
# ---------------------------------------------------------------------------

def check_map(argv):
    k1, k2 = (int(v) for v in _flag(argv, "k").split(","))
    cells = int(_flag(argv, "a_steps")) * int(_flag(argv, "b_steps"))

    def check(out, _ref=None):
        rows = csv_rows(out)
        problems = [] if len(rows) == cells else [f"map: {len(rows)} rows, expected {cells}"]
        for row in rows:
            a, b, g2 = float(row["a"]), float(row["b"]), float(row["gamma_squared"])
            want = _gamma_squared(k1, k2, a, b)
            if not _close(g2, want, k1 * k1 + k2 * k2):
                problems.append(f"map: gamma_squared {g2!r} != {want!r} at a={a}, b={b}")
            if (row["growing"] == "true") != (g2 > 0.0):
                problems.append(f"map: growing flag wrong at a={a}, b={b}")
            if (a > 0 or b > 0) and row["syr2"] != "false":
                problems.append(f"map: second Syrovatskij inequality holds at a={a}, b={b}")
            if len(problems) > 5:
                break
        return problems
    return check


def check_dispersion(argv):
    k1, k2 = (int(v) for v in _flag(argv, "k").split(","))
    a, b = float(_flag(argv, "a")), float(_flag(argv, "b"))

    def check(out, _ref=None):
        rows = csv_rows(out)
        if len(rows) != 1:
            return [f"dispersion: {len(rows)} rows, expected 1"]
        row, problems = rows[0], []
        if not _close(float(row["gamma_squared"]), _gamma_squared(k1, k2, a, b), k1 * k1 + k2 * k2):
            problems.append(f"dispersion: gamma_squared {row['gamma_squared']} off the closed form")
        lam_sq = k1 * k1 - 0.5 * (a * a + b * b) * k2 * k2
        if not _close(float(row["lambda_squared"]), lam_sq, k1 * k1 + k2 * k2):
            problems.append(f"dispersion: lambda_squared {row['lambda_squared']} != {lam_sq!r}")
        if (a > 0 or b > 0) and row["syr2"] != "false":
            problems.append("dispersion: second Syrovatskij inequality holds")
        return problems
    return check


def check_modes(out, _ref=None):
    """W = 1 at the interface and W = 0 at the rigid walls, in both phases."""
    want = {("upper", 0.0): 1.0, ("lower", 0.0): 1.0,
            ("upper", 1.0): 0.0, ("lower", -1.0): 0.0}
    seen = {}
    for row in csv_rows(out):
        key = (row["phase"], float(row["x3"]))
        if key in want:
            seen[key] = float(row["W_re"])
    problems = [f"modes: no row at {key}" for key in want if key not in seen]
    problems += [f"modes: W({key[1]}) {seen[key]!r} in the {key[0]} phase, expected {w}"
                 for key, w in want.items() if key in seen and abs(seen[key] - w) > PROFILE_TOL]
    return problems


def check_verify(out, _ref=None):
    data = json.loads(out)["data"]
    residuals = {k: v for k, v in data.items() if k.endswith("_residual")}
    problems = [] if data.get("passed") is True else ["verify: passed is not true"]
    problems += [f"verify: {k} = {v!r} reaches {RESIDUAL_GATE}"
                 for k, v in residuals.items() if not v < RESIDUAL_GATE]
    return problems if residuals else problems + ["verify: no residuals reported"]


def check_pressure(argv):
    kappas = len(_flag(argv, "kappas").split(","))

    def check(out, _ref=None):
        orders = json.loads(out)["data"]["fitted_orders"]
        problems = [] if len(orders) == kappas else \
            [f"pressure: {len(orders)} fitted orders, expected {kappas}"]
        problems += [f"pressure: fitted order {v!r} at kappa {k} "
                     f"outside {ORDER_TARGET} +/- {ORDER_TOL}"
                     for k, v in orders.items() if not abs(v - ORDER_TARGET) <= ORDER_TOL]
        return problems
    return check


def check_passed(out, _ref=None):
    doc = json.loads(out)
    return [] if doc["data"].get("passed") is True else [f"{doc['command']}: passed is not true"]


def check_evolve(out, _ref=None):
    """E1+ is non-decreasing along the series (the invariant region grows)."""
    e1 = [float(row["E1_plus"]) for row in csv_rows(out)]
    if len(e1) < 2:
        return [f"evolve: {len(e1)} samples"]
    return [f"evolve: E1_plus falls from {x!r} to {y!r}" for x, y in zip(e1, e1[1:]) if y < x]


def check_evolve_against(out, ref):
    """The rk4 series matches the exact-stepper series of the same config."""
    problems = check_evolve(out)
    got, want = csv_rows(out), csv_rows(ref)
    if len(got) != len(want):
        return problems + [f"evolve rk4: {len(got)} rows, exact has {len(want)}"]
    for col in want[0] if want else ():
        w = [float(r[col]) for r in want]
        g = [float(r[col]) for r in got]
        scale = max(abs(v) for v in w) or 1.0
        worst = max(abs(x - y) for x, y in zip(g, w)) / scale
        if not worst <= RK4_RTOL:
            problems.append(f"evolve rk4: column {col} differs from exact "
                            f"by {worst:.3e} (relative)")
    return problems


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _num(x):
    return format(x, ".4f")


def _pressure_refine(rng, smoke):
    kappas = sorted(rng.sample(range(1, 7), 3))
    argv = ("--command", "pressure", "--format", "json",
            "--kappas", ",".join(map(str, kappas)),
            "--source_sign", str(rng.choice((1, -1))))
    if smoke:
        argv += ("--n_tan", "32", "--refinements", "2")
    return [Invocation(argv, check_pressure(argv))]


def _evolution_flags(rng, grid):
    return ("--n", str(rng.randint(4, 12)),
            "--a", _num(rng.uniform(0.0, 2.0)), "--b", _num(rng.uniform(0.0, 2.0)),
            "--n_tan", str(grid), "--n_ver", str(grid))


def _illposed_pipeline(rng, smoke):
    flags = _evolution_flags(rng, 32 if smoke else 64)
    return [Invocation(("--command", "evolve") + flags, check_evolve),
            Invocation(("--command", "functionals") + flags, check_passed),
            Invocation(("--command", "illposedness") + flags, check_passed)]


def _rk4_series(rng, smoke):
    flags = _evolution_flags(rng, 32)
    if smoke:
        flags += ("--t", "0.2", "--samples", "3")
    return [Invocation(("--command", "evolve", "--stepper", "rk4") + flags,
                       check_evolve_against,
                       reference=("--command", "evolve", "--stepper", "exact") + flags)]


def _wave_vector(rng, radius):
    while True:
        k1, k2 = rng.randint(-radius, radius), rng.randint(-radius, radius)
        if 0 < k1 * k1 + k2 * k2 <= radius * radius:
            return f"{k1},{k2}"


def _closed_forms(rng, smoke):
    steps = "10" if smoke else "100"
    map_argv = ("--command", "map", "--k", f"{rng.randint(1, 8)},{rng.randint(1, 8)}",
                "--a_max", _num(rng.uniform(1.0, 4.0)), "--b_max", _num(rng.uniform(1.0, 4.0)),
                "--a_steps", steps, "--b_steps", steps)
    disp_argv = ("--command", "dispersion", "--k", _wave_vector(rng, 64),
                 "--a", _num(rng.uniform(0.0, 4.0)), "--b", _num(rng.uniform(0.0, 4.0)))
    invs = [Invocation(map_argv, check_map(map_argv)),
            Invocation(disp_argv, check_dispersion(disp_argv))]
    for _ in range(2):
        k = _wave_vector(rng, 64)
        invs += [Invocation(("--command", "modes", "--k", k), check_modes),
                 Invocation(("--command", "verify", "--k", k), check_verify)]
    return invs


WORKLOADS = {
    "pressure-refine": _pressure_refine,
    "illposed-pipeline": _illposed_pipeline,
    "rk4-series": _rk4_series,
    "closed-forms": _closed_forms,
}


def invocations(workload, seed, smoke=False):
    """The workload's invocations for this seed; same seed, same flags."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)
