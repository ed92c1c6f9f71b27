"""Self-tests of the khlab benchmark, at smoke sizes (about a minute).

Run from the repository root:

    python3 bench/selftest.py

Every workload runs end to end and traced.  The tests check that the seed
code passes, that the traced run prints the same bytes as the fresh
processes, that the layer counters match what the flags imply, and that a
planted wrong output, a wrong exit code or a changed repeat counts as a
failure.  Exits 1 on the first failed assertion.
"""

import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, csv_rows, invocations


def _set_csv(text, row, column, value):
    """Replace one data cell of a khlab CSV."""
    lines = text.splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header_at].split(",").index(column)
    target = header_at + 1 + (row if row >= 0 else len(lines) - header_at - 1 + row)
    cells = lines[target].split(",")
    cells[col] = value
    lines[target] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _set_json(text, edit):
    doc = json.loads(text)
    edit(doc["data"])
    return json.dumps(doc)


def _scaled(text, row, column, factor):
    return _set_csv(text, row, column, repr(float(csv_rows(text)[row][column]) * factor))


def _modes_wall(text):
    lines = [line if not line.startswith("1,upper,") else "1,upper,1e-06,0"
             for line in text.splitlines()]
    return "\n".join(lines) + "\n"


# command -> ways to make its output wrong, each of which its checker must reject
PLANTED = {
    "map": [lambda t: _set_csv(t, -1, "syr2", "true"),
            lambda t: _scaled(t, -1, "gamma_squared", 1.001)],
    "dispersion": [lambda t: _scaled(t, 0, "gamma_squared", 1.001)],
    "modes": [_modes_wall],
    "verify": [lambda t: _set_json(t, lambda d: d.update(wall_bc_residual=2e-9))],
    "pressure": [lambda t: _set_json(t, lambda d: d["fitted_orders"].update({"9.0": 1.5}))],
    "functionals": [lambda t: _set_json(t, lambda d: d.update(passed=False))],
    "illposedness": [lambda t: _set_json(t, lambda d: d.update(passed=False))],
    "evolve": [lambda t: _set_csv(t, -1, "E1_plus", "0")],
}


def _expect(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def _planted_checks(invs, verdicts):
    for i, inv in enumerate(invs):
        good = verdicts.first[i].decode("utf-8")
        ref = verdicts.references.get(i)
        ref = None if ref is None else ref.decode("utf-8")
        _expect(inv.check(good, ref) == [], f"checker accepts the real {inv.command} output")
        plants = list(PLANTED[inv.command])
        if ref is not None:          # the rk4 series must match the exact one, not only grow
            plants.append(lambda t: _scaled(t, -1, "E1_plus", 1.001))
        for plant in plants:
            _expect(inv.check(plant(good), ref),
                    f"checker rejects a planted wrong {inv.command} output")


def _smoke(workload):
    invs = invocations(workload, DEFAULT_SEED, smoke=True)
    _, _, timed = run.timed_run(invs, seconds=0)
    _expect(timed.failed == 0, f"{workload}: end-to-end smoke run passes {timed.problems}")
    metrics, _, traced = run.traced_run(invs, seconds=0)
    _expect(traced.failed == 0, f"{workload}: traced smoke run passes {traced.problems}")
    _expect(all(traced.first[i] == timed.first[i] for i in range(len(invs))),
            f"{workload}: in-process stdout is byte-identical to the fresh processes'")
    spec = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))
    run._select(spec, metrics, "per_layer")
    _planted_checks(invs, timed)
    return invs, metrics, timed


def main():
    results = {w: _smoke(w) for w in WORKLOADS}

    m = results["pressure-refine"][1]
    _expect(m["pressure.fd_solves"] == 6 and m["pressure.fd_modes"] == 3 * (16 ** 2 + 32 ** 2),
            "pressure-refine: FD solve and mode counts follow the ladder n = 16, 32")
    m = results["rk4-series"][1]
    _expect(m["evolution.rk4_calls"] == 3 and m["evolution.rk4_steps"] == 1 + 10 + 20,
            "rk4-series: rk4 steps are sum(max(1, round(t/dt))) over t = 0, 0.1, 0.2")
    m = results["closed-forms"][1]
    _expect(m["stability.cells"] == 100 and m["pressure.fd_solves"] == 0,
            "closed-forms: the map counts 10 x 10 cells and no FD solve")
    m = results["illposed-pipeline"][1]
    _expect(m["decompose.calls"] == 3 and m["evolution.exact_calls"] == 27,
            "illposed-pipeline: three decompositions and 3 x 9 exact evolutions")

    invs, _, timed = results["closed-forms"]

    def planting(args, env):
        out = run.run_child(args, env)
        if "khlab.cli" not in args:
            return out
        if "map" in args:
            text = _scaled(out.stdout.decode("utf-8"), 0, "gamma_squared", 2.0)
            out.stdout = text.encode("utf-8")
        if "dispersion" in args:
            out.code = 3
        return out

    _, _, verdicts = run.timed_run(invs, seconds=0, runner=planting)
    _expect(verdicts.failed == 2 and verdicts.attempted == len(invs),
            f"planted wrong map output and exit code count as 2 failures of {len(invs)}")

    verdicts = run.Verdicts(invs, {})
    verdicts.record(0, 0, timed.first[0])
    verdicts.record(0, 0, timed.first[0] + b" ")
    _expect(verdicts.failed == 1 and "differs from the first repeat" in " ".join(verdicts.problems),
            "a repeat whose stdout changed counts as a failure")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
