"""One benchmark child: a fresh interpreter that solves the tasks of a job.

Reads a JSON job on stdin and prints one JSON line on stdout.  The moment
`curvecount` is imported is reported as `ready` on the system-wide monotonic
clock, so the parent can time interpreter start plus import.

Job kinds:

- "count": symbolic count, then localization count, as `curvecount count`
  runs them (the parent checks that they agree);
- "bott": the localization count alone;
- "sweep": parse a (space, integrand) text pair and integrate it on both
  engines, as `curvecount integrate --backend both` does.

With "trace" set, the tasks run under `tracing.Tracer` and the reply carries
its counters and spans.

The host's speed drifts by tens of percent within seconds, so a
`SpeedProbe` samples it while the tasks run.  Each phase of a task (parse,
symbolic, bott) reports its time and, as its `speed`, the mean probe time
during it; the parent scales the time by it.
"""

from __future__ import annotations

import time

import curvecount  # noqa: F401  (timed: interpreter start plus import)

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

from curvecount import bott, chern, chow, cli, counts  # noqa: E402
from curvecount import expr as ex  # noqa: E402
from tracing import Tracer, element_size  # noqa: E402


PROBE_INTERVAL_S = 0.05


def _probe_loop() -> Fraction:
    # exact fractions, tuples and dict updates, the engines' staple operations
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * 3
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return acc


class SpeedProbe:
    """Samples the host's speed while the child works.

    An interval timer interrupts the child every PROBE_INTERVAL_S, and the
    handler times one run of a fixed loop that shares no code with
    curvecount.  `time` runs a phase, subtracts the probes' own time from it
    and returns the mean probe time during the phase as its speed; a phase
    too short to contain a probe takes the latest one.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        _probe_loop()
        took = perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn) -> tuple[object, float, float]:
        """(value of fn(), seconds of fn's own work, mean probe time)."""
        n0, spent0 = len(self.samples), self.spent
        t0 = perf_counter()
        value = fn()
        took = perf_counter() - t0 - (self.spent - spent0)
        during = self.samples[n0:] or self.samples[-1:]
        return value, took, sum(during) / len(during)


def _problem(args):
    ambient, degree, curve_degree, incidence = args
    return counts.HypersurfaceProblem(ambient, degree, curve_degree, incidence)


def count_phases(args) -> list:
    problem = _problem(args)
    return [
        ("symbolic", lambda: counts.count_curves(problem, "symbolic")),
        ("bott", lambda: counts.count_curves(problem, "bott")),
    ]


def bott_phases(args) -> list:
    problem = _problem(args)
    return [("bott", lambda: counts.count_conics(problem, "bott"))]


def sweep_phases(item) -> list:
    space_text, expr_text = item
    parsed = {}

    def parse():
        parsed["space"] = cli.parse_space(space_text)
        parsed["node"] = cli.parse_expression(expr_text)

    return [
        ("parse", parse),
        ("symbolic", lambda: chow.integrate(ex.evaluate(parsed["node"], parsed["space"]))),
        ("bott", lambda: bott.bott_integrate(parsed["space"], parsed["node"])),
    ]


PHASES = {"count": count_phases, "bott": bott_phases, "sweep": sweep_phases}


def run_task(probe: SpeedProbe, phases: list) -> dict:
    res: dict = {"values": {}, "times": {}, "speeds": {}}
    for phase, fn in phases:
        value, res["times"][phase], res["speeds"][phase] = probe.time(fn)
        if value is not None:
            res["values"][phase] = str(value)
    return res


def class_size(kind: str, task) -> tuple[int, int]:
    """(terms, coefficient bits) of the class a task integrates, read from the
    Chern-class cache the task has filled.

    For a count it is the Euler class of the obstruction bundle; for a sweep
    integrand, the Chern classes it multiplies.  The localization-only
    ladder computes no class and reports (0, 0).
    """
    if kind == "bott":
        return 0, 0
    if kind == "count":
        problem = _problem(task)
        if problem.curve_degree == 1:
            space = counts.line_space(problem.ambient_dim)
            bundle = counts.line_obstruction(problem.degree)
        else:
            space = counts.conic_space(problem.ambient_dim)
            bundle = counts.conic_obstruction(problem.degree)
        return element_size(chern.euler_class(bundle, space))
    space = cli.parse_space(task[0])
    terms, bits, todo = 0, 0, [cli.parse_expression(task[1])]
    while todo:
        node = todo.pop()
        if isinstance(node, ex.Power):
            todo.append(node.base)
        elif isinstance(node, ex.Product):
            todo.extend(node.factors)
        elif isinstance(node, ex.Sum):
            todo.extend(node.terms)
        elif isinstance(node, ex.ChernClass):
            cs = chern.chern_classes(node.bundle, space)
            if node.index < len(cs):
                t, b = element_size(cs[node.index])
                terms, bits = terms + t, max(bits, b)
    return terms, bits


def main() -> int:
    job = json.load(sys.stdin)
    kind, tasks, traced = job["kind"], job["tasks"], job["trace"]
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    probe.start()
    results = []
    for task in tasks:
        try:
            if tracer is None:
                res = run_task(probe, PHASES[kind](task))
            else:
                with tracer.span("problem"):
                    res = run_task(probe, PHASES[kind](task))
        except Exception as err:  # a failed task is reported, not fatal
            res = {"error": f"{type(err).__name__}: {err}"}
        results.append(res)
    probe.stop()
    out = {
        "ready": READY,
        "ready_speed": probe.samples[0],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()
        for task, res in zip(tasks, results):
            if "error" not in res:
                res["terms"], res["bits"] = class_size(kind, task)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
