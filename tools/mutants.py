"""Mutation check: does the test suite notice a small change to a verdict path of khlab?

Each mutant replaces one pattern, which occurs exactly once in src/khlab, by
another.  For each mutant this script copies the repository into a temporary
directory, applies the mutant there, runs the mutant's tests with
``pytest -x -q`` and prints ``killed`` (a test failed) or ``survived`` (every
test passed).  The working tree is never modified.

    python tools/mutants.py                  # every mutant
    python tools/mutants.py rk4-limit ...    # the named mutants
    python tools/mutants.py --suite rk4-limit  # against the whole suite, not its tests

The exit code is 0 when every mutant ran, whatever its verdict, and 2 when a
pattern is missing or a test run could not start.  A full run takes a few
minutes; it is not part of the test suite, which checks only that every
pattern still occurs exactly once (tests/test_source.py).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PATTERN_CHECK = "tests/test_source.py::test_every_mutant_pattern_occurs_exactly_once"
KEEP_RULE_TEST = "tests/test_functionals.py::test_a_potential_term_is_kept_by_its_interface_trace"
CERTIFICATE_START_TEST = (
    "tests/test_functionals.py::test_growth_corollary_certificate_starts_at_the_first_sample")
CUTOFF_TEST = (
    "tests/test_functionals.py::test_a_cutoff_that_is_not_an_integer_above_zero_is_rejected")
FD_GATE_TEST = (
    "tests/test_pressure.py::test_fd_backward_error_gate_fails_incompatible_data_at_every_depth")
SUP_TEST = "tests/test_core.py::test_sup_abs_matches_the_max_of_abs_property"


class Mutant(NamedTuple):
    name: str
    module: str      # file under src/khlab
    pattern: str     # occurs exactly once in src/khlab
    replacement: str
    tests: tuple     # pytest arguments, relative to the repository root


MUTANTS = (
    # the verdict thresholds and comparisons of the closed forms, the solver and the checks
    Mutant("rk4-limit", "evolution.py", "RK4_STABILITY_LIMIT = 2.8", "RK4_STABILITY_LIMIT = 2.9",
           ("tests/test_evolution.py",)),
    Mutant("growth-tol", "functionals.py", "GROWTH_TOL = 1e-6", "GROWTH_TOL = 1e-4",
           ("tests/test_cli.py",)),
    # the certificate's reference time: e^{n t} in place of e^{n (t - t0)}
    Mutant("certificate-start", "functionals.py", "(t - times[0])", "t",
           (CERTIFICATE_START_TEST,)),
    Mutant("syrovatskij-first", "stability.py", "du_sq <= 2.0", "du_sq < 2.0",
           ("tests/test_stability.py",)),
    Mutant("rk4-default-step", "evolution.py", "0.25 / omega_max", "0.3 / omega_max",
           ("tests/test_evolution.py", "tests/test_cli.py")),
    Mutant("rk4-step-c", "evolution.py", "z * z / 24.0", "z * z / 25.0",
           ("tests/test_symbolic_oracle.py",)),
    # the FD gate's backward error bound 64 u: the unit round-off 2^13 too large, the multiple
    # 1e4 times too large
    Mutant("fd-residual-tol", "pressure.py", "2.0 ** -53", "2.0 ** -40",
           ("tests/test_pressure.py",)),
    Mutant("fd-backward-error", "pressure.py", "64 * 2.0", "64e4 * 2.0", (FD_GATE_TEST,)),
    # the FD rows, which the solver and the residual check both read: one coefficient of the
    # lower wall, flux, value and interior rows each
    Mutant("fd-wall-row", "pressure.py", "-3.0 * lo[0]", "-3.1 * lo[0]",
           ("tests/test_pressure.py",)),
    Mutant("fd-flux-row", "pressure.py", "- 4.0 * lo[N - 1]", "- 4.1 * lo[N - 1]",
           ("tests/test_pressure.py",)),
    Mutant("fd-value-row", "pressure.py", "up[0] - lo[N]", "up[0] - 1.001 * lo[N]",
           ("tests/test_pressure.py",)),
    Mutant("fd-interior-row", "pressure.py", "lam * lo[1:-1]", "1.001 * lam * lo[1:-1]",
           ("tests/test_pressure.py",)),
    # the slip frame the solve carries the lower phase in: one lower unknown left shifted
    Mutant("fd-slip", "pressure.py", "z[:N + 1] /= phi", "z[:N] /= phi",
           ("tests/test_pressure.py",)),
    # the data's power-of-two unit, which the FD solve divides by: 2^64 too small, so 1e308
    # data leave the float range and the residual is judged 2^64 too strictly
    Mutant("unit-exponent", "core.py", "math.frexp(sup)[1]", "math.frexp(sup)[1] - 64",
           ("tests/test_pressure.py",)),
    # the mode audit: each end of each phase it reads, and its relative divergence
    Mutant("audit-upper-wall", "eigenmodes.py", "profile.eval_upper(1.0)",
           "profile.eval_upper(0.5)", ("tests/test_eigenmodes.py",)),
    Mutant("audit-interface-above", "eigenmodes.py", "profile.eval_upper(0.0)",
           "profile.eval_upper(0.5)", ("tests/test_eigenmodes.py",)),
    Mutant("audit-interface-below", "eigenmodes.py", "profile.eval_lower(0.0)",
           "profile.eval_lower(-0.5)", ("tests/test_eigenmodes.py",)),
    Mutant("audit-lower-wall", "eigenmodes.py", "profile.eval_lower(-1.0)",
           "profile.eval_lower(-0.5)", ("tests/test_eigenmodes.py",)),
    Mutant("audit-absolute", "eigenmodes.py", "/ scale if scale else 0.0", "if scale else 0.0",
           ("tests/test_eigenmodes.py",)),
    # the potential-gradient builder: the lower phase's drift and the x1 component's factor
    Mutant("gradient-lower-drift", "eigenmodes.py", "np.exp(1j * j * (x1 - t))",
           "np.exp(1j * j * (x1 + t))", ("tests/test_eigenmodes.py",)),
    Mutant("gradient-x1-factor", "eigenmodes.py", "(0, profile.scaled(1j * j))",
           "(0, profile.scaled(-1j * j))", ("tests/test_eigenmodes.py",)),
    # the decomposition's keep rule: each family's term by its interface trace j*|c|
    Mutant("keep-odd-by-coefficient", "functionals.py", "j * np.hypot(c_f.real, c_f.imag) > tol",
           "np.hypot(c_f.real, c_f.imag) > tol", (KEEP_RULE_TEST,)),
    Mutant("keep-even-by-coefficient", "functionals.py", "j * np.hypot(c_g.real, c_g.imag) > tol",
           "np.hypot(c_g.real, c_g.imag) > tol", (KEEP_RULE_TEST,)),
    # the cutoff check's integer test, which a NaN or fractional cutoff fails
    Mutant("cutoff-integer", "core.py", "isinstance(n_cutoff, (int, np.integer)) and ", "",
           (CUTOFF_TEST,)),
    # the sup norm's negative side: max|x| read from the max alone
    Mutant("sup-min-dropped", "core.py", "abs(float(x.min()))", "0.0", (SUP_TEST,)),
    # the odd family's squared rate j^2, which the propagator turns into e^{+/-j t}
    Mutant("odd-rate-halved", "evolution.py", "[odd * odd,", "[0.25 * odd * odd,",
           ("tests/test_evolution.py",)),
    # the basis weight 4 pi^2 j coth j of every coefficient sum
    Mutant("weight-coth-dropped", "eigenmodes.py", "4.0 * math.pi ** 2 * j * coth",
           "4.0 * math.pi ** 2 * j", ("tests/test_eigenmodes.py",)),
)


def occurrences(mutant, root=ROOT):
    """How often the mutant's pattern occurs in src/khlab, and whether its module holds it."""
    source = root / "src" / "khlab"
    total = sum(path.read_text(encoding="utf-8").count(mutant.pattern)
                for path in source.glob("*.py"))
    return total, mutant.pattern in (source / mutant.module).read_text(encoding="utf-8")


def run(mutant):
    """'killed' or 'survived': the mutant's tests run on a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="khlab-mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = copy / "src" / "khlab" / mutant.module
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.pattern,
                                                                 mutant.replacement),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        # the pattern check fails on every mutant by design, so it must not count as a kill
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--deselect", PATTERN_CHECK, *mutant.tests], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if result.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}")
    return "survived" if result.returncode == 0 else "killed"


def main(args):
    suite = "--suite" in args
    names = [a for a in args if a != "--suite"]
    chosen = [m._replace(tests=("tests",)) if suite else m
              for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for mutant in chosen:
        if occurrences(mutant) != (1, True):
            print(f"{mutant.name}: pattern {mutant.pattern!r} does not occur exactly once "
                  f"in src/khlab/{mutant.module}", file=sys.stderr)
            return 2
    try:
        for mutant in chosen:
            print(f"{mutant.name:24} {run(mutant)}", flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
