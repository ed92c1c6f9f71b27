"""khlab benchmark: seeded CLI workloads, checked against the paper's facts.

Run from the repository root:

    python3 bench/run.py --workload closed-forms --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every metric of every workload

``--trace 0`` runs each invocation as a fresh ``python -m khlab.cli``
process, one at a time, so ``wall_s`` is what a user waits for, import
included, and reports the end-to-end metrics.  ``--trace 1`` drives the
same invocations in-process through ``khlab.cli.main``, once plainly and
once with the layer spans of ``layers.py`` patched in, and reports the
per-layer metrics.  Without ``--trace`` both runs are made.  Metric names
and units come from ``BENCHMARK.json``; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

An invocation fails when its exit code is not 0, when the workload's
checker rejects its output, or when its stdout differs byte for byte from
the first repeat of the same invocation in the run.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from layers import Tracer, import_times
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, invocations

ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

# One BLAS/OpenMP thread: invocations run one at a time, so no run competes for cores.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150
SETUP_CODE = "import sys\nfrom khlab.cli import parse_config\nparse_config('', sys.argv[1:])\n"
MAX_REPORTED_PROBLEMS = 10


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env():
    """The driver's environment, pinned to one thread and to the checkout's source.

    Every PYTHON* variable is dropped, so children run as a user's would:
    bytecode is cached (in ``src/khlab/__pycache__``) and stdout is buffered.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "KHLAB_THREADS"}
    env.update(PINNED_ENV, PYTHONPATH=str(SRC))
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return proc.stdout.strip() or "unknown"


def environment():
    return {"cores": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "git_commit": _git_commit(),
            "threads_env": PINNED_ENV}


# ---------------------------------------------------------------------------
# running and checking invocations
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float


def run_child(args, env):
    """Run ``python <args>`` in the checkout; wall time and this child's own max RSS.

    The child is reaped with ``os.wait4`` so the memory figure is its own;
    ``RUSAGE_CHILDREN`` would carry the largest child seen so far.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    stderr = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    try:
        stdout = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, stdout, stderr[0], wall, usage.ru_maxrss / 1024.0)


@dataclass
class Verdicts:
    """Failure bookkeeping for one run: every invocation of every pass."""

    invs: list
    references: dict                       # invocation index -> reference stdout
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first: dict = field(default_factory=dict)      # index -> stdout of the first repeat
    checked: dict = field(default_factory=dict)    # index -> checker problems

    def record(self, i, code, stdout):
        inv = self.invs[i]
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}"]
        if i not in self.first:
            self.first[i] = stdout
            self.checked[i] = self._check(inv, stdout, self.references.get(i))
        elif stdout != self.first[i]:
            problems.append("stdout differs from the first repeat")
        problems += self.checked[i]
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(inv.argv)}: {p}" for p in problems]

    @staticmethod
    def _check(inv, stdout, reference):
        try:
            return inv.check(stdout.decode("utf-8"),
                             None if reference is None else reference.decode("utf-8"))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output ({type(exc).__name__}: {exc})"]


def timed_run(invs, seconds, runner=run_child):
    """End-to-end metrics: fresh processes, passes repeated for ``seconds``."""
    env = child_env()
    setup_args = ["-c", SETUP_CODE, *invs[0].argv]
    probe = runner(setup_args, env)          # untimed: compiles bytecode, fills the file cache
    if probe.code != 0:
        raise RuntimeError(f"set-up probe failed: {probe.stderr.decode(errors='replace')}")
    setup = [runner(setup_args, env).wall_s for _ in range(SETUP_REPEATS)]
    references = {}
    for i, inv in enumerate(invs):
        if inv.reference is not None:
            references[i] = runner(["-m", "khlab.cli", *inv.reference], env).stdout
    verdicts = Verdicts(invs, references)
    passes, peak_rss, walls = [], 0.0, [[] for _ in invs]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        pass_s = 0.0
        for i, inv in enumerate(invs):
            out = runner(["-m", "khlab.cli", *inv.argv], env)
            pass_s += out.wall_s
            walls[i].append(out.wall_s)
            peak_rss = max(peak_rss, out.rss_mb)
            verdicts.record(i, out.code, out.stdout)
        passes.append(pass_s)
    metrics = {"wall_s": statistics.median(passes), "setup_s": statistics.median(setup),
               "peak_rss_mb": peak_rss}
    notes = {"wall_s": f"median of {len(passes)} passes, "
                       f"min {min(passes):.4f}, max {max(passes):.4f}",
             "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
             "invocations": [f"median {statistics.median(w):.4f} s" for w in walls]}
    return metrics, notes, verdicts


def _call_main(cli, argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue().encode("utf-8")


def traced_run(invs, seconds):
    """Per-layer metrics: in-process passes, plain then traced, for ``seconds``."""
    env = child_env()
    runs = [run_child(["-X", "importtime", "-c", "import khlab.cli"], env)
            for _ in range(IMPORT_REPEATS + 1)][1:]          # the first one warms up
    if any(r.code for r in runs):
        raise RuntimeError(f"import failed: {runs[0].stderr.decode(errors='replace')}")
    imports = [import_times(r.stderr.decode("utf-8")) for r in runs]

    os.environ.pop("KHLAB_THREADS", None)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import khlab.cli as cli

    references = {i: _call_main(cli, inv.reference)[1]
                  for i, inv in enumerate(invs) if inv.reference is not None}
    verdicts = Verdicts(invs, references)
    for i, inv in enumerate(invs):           # warm-up pass: lazy set-up inside numpy and khlab
        verdicts.record(i, *_call_main(cli, inv.argv))
    per_pass = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        plain_start = time.perf_counter()
        for i, inv in enumerate(invs):
            verdicts.record(i, *_call_main(cli, inv.argv))
        plain_s = time.perf_counter() - plain_start

        tracer, output_bytes = Tracer(), 0
        with tracer.patched():
            traced_start = time.perf_counter()
            for i, inv in enumerate(invs):
                code, stdout = _call_main(cli, inv.argv)
                output_bytes += len(stdout)
                verdicts.record(i, code, stdout)
            traced_s = time.perf_counter() - traced_start
        layer = tracer.layer_metrics(output_bytes)
        layer["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        layer["trace.coverage"] = tracer.total_self_s() / traced_s
        per_pass.append(layer)

    metrics = {"import.khlab_s": statistics.median([k for k, _ in imports]),
               "import.scipy_s": statistics.median([s for _, s in imports])}
    for name in per_pass[0]:
        metrics[name] = statistics.median([p[name] for p in per_pass])
    notes = {"import.khlab_s": f"median of {IMPORT_REPEATS} fresh -X importtime runs",
             "trace.coverage": f"median of {len(per_pass)} traced passes"}
    return metrics, notes, verdicts


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _select(spec, metrics, key):
    """The spec's metrics of one kind, in spec order, with their units."""
    missing = [m["name"] for m in spec[key] if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark did not measure {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[key]}


def report(workload, mode, seed, metrics, notes, verdicts):
    print(f"== {workload} ({mode}), seed {seed}")
    per_invocation = notes.get("invocations", [""] * len(verdicts.invs))
    for inv, note in zip(verdicts.invs, per_invocation):
        print(f"   khlab {' '.join(inv.argv)}   {note}")
    for name, m in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"   {name:<28} {m['value']:>14.6g} {m['unit']}{note}")
    error_rate = verdicts.failed / verdicts.attempted
    print(f"   error_rate {error_rate:.4g} "
          f"({verdicts.failed} of {verdicts.attempted} invocations failed)")
    for problem in verdicts.problems[:MAX_REPORTED_PROBLEMS]:
        print(f"   FAIL {problem}")
    print(f"   checker verdict: {'PASS' if verdicts.failed == 0 else 'FAIL'}")


def main(argv=None):
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8")) if SPEC_PATH.is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for checking claims)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"] if spec else 10,
                        help="how long each run repeats its passes")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end metrics, 1: per-layer metrics; both if omitted")
    args = parser.parse_args(argv)
    if spec is None or not (SRC / "khlab" / "cli.py").is_file():
        sys.stderr.write("bench: run from the root of a khlab checkout "
                         "(needs BENCHMARK.json and src/khlab)\n")
        return 2

    print(json.dumps({"seed": args.seed, "held_out_seed": HELD_OUT_SEED,
                      "environment": environment()}))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = ["0", "1"] if args.trace is None else [args.trace]
    results = []
    for workload in workloads:
        invs = invocations(workload, args.seed)
        for mode in modes:
            if mode == "0":
                metrics, notes, verdicts = timed_run(invs, args.seconds)
                selected = _select(spec, metrics, "end_to_end")
            else:
                metrics, notes, verdicts = traced_run(invs, args.seconds)
                selected = _select(spec, metrics, "per_layer")
            report(workload, "end to end" if mode == "0" else "per layer",
                   args.seed, selected, notes, verdicts)
            results.append((workload, selected, verdicts))

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(v.failed == 0 for _, _, v in results),
        "attempted": sum(v.attempted for _, _, v in results),
        "failed": sum(v.failed for _, _, v in results),
        "metrics": {(f"{w}/{name}" if prefix else name): m
                    for w, selected, _ in results for name, m in selected.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
