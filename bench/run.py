"""Benchmark driver for curvecount's two integration engines.

    python3 bench/run.py --workload count-ladder --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's `src/`.  Every problem of a ladder runs in a fresh child
interpreter, one child at a time; a sweep pass runs in one child so its
caches carry over between integrals.  A pass is the whole workload; passes
repeat while the next one would still end within `--seconds` (at least three
untraced passes run), and each timing is the sum or maximum of per-problem
medians over the passes.

With `--trace 0` the run is untraced and reports the end-to-end metrics.
With `--trace 1` untraced and traced passes alternate: the traced ones wrap
the public functions of each module (see tracing.py) and report per-layer
metrics, plus the tracing overhead as traced minus untraced wall time.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print every metric
with its unit, the environment and any failure.  See README.md for why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

from workloads import BOTT_LADDER, COUNT_LADDER, WARMUP, sweep_integrands

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 3
# The host's speed drifts by tens of percent within seconds.  Every reported
# time t is scaled to t * REFERENCE_PROBE_S / speed, where speed is the time of
# child._probe_loop() measured during t, and REFERENCE_PROBE_S is roughly that
# loop's median time on the Xeon host this benchmark was written on.
REFERENCE_PROBE_S = 0.0025
# every run must end within 180 s; no child is started past this budget
BUDGET_S = 165.0


def workload_jobs(workload: str, seed: int) -> tuple[str, list]:
    """The child job kind of a workload and, for each child of one pass, its
    (tasks, expected values)."""
    if workload == "count-ladder":
        return "count", [([p.args()], [p.reference]) for p in COUNT_LADDER]
    if workload == "bott-ladder":
        return "bott", [([p.args()], [p.reference]) for p in BOTT_LADDER]
    items = sweep_integrands(seed)
    return "sweep", [(items, [None] * len(items))]


WORKLOADS = ("count-ladder", "bott-ladder", "integrate-sweep")

END_TO_END_UNITS = {
    "wall_s": "s",
    "bott_s": "s",
    "max_problem_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# counters that must repeat exactly from one traced pass to the next
EXACT_COUNTERS = (
    "bott.fixed_points.count",
    "symfunc.schubert_product.misses",
    "bott.bundle_weights.top_calls",
    "chow.result_terms",
    "chow.max_coeff_bits",
    "chern.chern_classes.misses",
    "bott.seeds.tried",
    "bott.seeds.collided",
)

PER_LAYER_UNITS = {
    "symfunc.schubert_product.calls": "count",
    "symfunc.schubert_product.misses": "count",
    "symfunc.schubert_product.hit_ratio": "ratio",
    "symfunc.schubert_product.s": "s",
    "symfunc.lr.misses": "count",
    "symfunc.expand_linear_product.calls": "count",
    "symfunc.expand_linear_product.s": "s",
    "symfunc.sym_power_roots.calls": "count",
    "symfunc.elementary_symmetric.calls": "count",
    "chow.mul.calls": "count",
    "chow.gr_mul.calls": "count",
    "chow.gr_mul.self_s": "s",
    "chow.tower_mul.self_s": "s",
    "chow.reduce_tower.calls": "count",
    "chow.reduce_tower.self_s": "s",
    "chow.result_terms": "count",
    "chow.max_coeff_bits": "bits",
    "chern.chern_classes.calls": "count",
    "chern.chern_classes.misses": "count",
    "chern.sym.self_s": "s",
    "chern.twist.self_s": "s",
    "chern.quot.self_s": "s",
    "expr.evaluate.self_s": "s",
    "bott.fixed_points.count": "count",
    "bott.fixed_points.s": "s",
    "bott.bundle_weights.calls": "count",
    "bott.bundle_weights.top_calls": "count",
    "bott.bundle_weights.per_point": "calls/point",
    "bott.bundle_weights.s": "s",
    "bott.tangent_weights.s": "s",
    "bott.evaluate_at.s": "s",
    "bott.sum.self_s": "s",
    "bott.seeds.tried": "count",
    "bott.seeds.collided": "count",
    "bott.seed_yield": "ratio",
    "cli.parse.s": "s",
    "engine.symbolic_s": "s",
    "trace.overhead_s": "s",
}


# -- running children --------------------------------------------------------


def run_child(kind: str, tasks: list, traced: bool, deadline: float) -> dict:
    """Run one child to completion; a crash or timeout fails all its tasks."""
    job = json.dumps({"kind": kind, "tasks": tasks, "trace": traced})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py")],
            input=job,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        return _crashed(tasks, "child timed out")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return _crashed(tasks, f"child exited with {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_raw_s"] = out.pop("ready") - launched
    out["setup_s"] = out["setup_raw_s"] * REFERENCE_PROBE_S / out.pop("ready_speed")
    for res in out["results"]:
        if "times" in res:
            scaled = {p: t * REFERENCE_PROBE_S / res["speeds"][p] for p, t in res["times"].items()}
            res["raw_s"] = sum(res["times"].values())
            res["problem_s"] = sum(scaled.values())
            res["symbolic_s"] = scaled.get("symbolic", 0.0)
            res["bott_s"] = scaled.get("bott", 0.0)
    return out


def _crashed(tasks: list, reason: str) -> dict:
    return {"results": [{"error": reason} for _ in tasks]}


def failure(res: dict, expected: int | None) -> str | None:
    """Why a task result is wrong, or None when it passes every check."""
    if "error" in res:
        return res["error"]
    values = {name: Fraction(v) for name, v in res["values"].items()}
    if len(set(values.values())) != 1:
        return f"engines disagree: {values}"
    (value,) = set(values.values())
    if value.denominator != 1:
        return f"value {value} is not an integer"
    if expected is not None and value != expected:
        return f"expected {expected}, got {value}"
    return None


def run_pass(kind: str, jobs: list, traced: bool, deadline: float) -> dict:
    """One pass over a workload: every child of it, one after another."""
    tasks_out, setups, rss, traces = [], [], [], []
    for tasks, expected in jobs:
        out = run_child(kind, tasks, traced, deadline)
        if "setup_s" in out:
            setups.append(out["setup_s"])
            rss.append(out["maxrss_kb"])
        if "trace" in out:
            traces.append(out["trace"])
        for task, res, exp in zip(tasks, out["results"], expected):
            res["failure"] = failure(res, exp)
            res["task"] = task
            tasks_out.append(res)
    return {
        "tasks": tasks_out,
        "setup": setups,
        "rss_kb": rss,
        "trace": merge_traces(traces, tasks_out) if traced else None,
    }


# -- metrics -----------------------------------------------------------------


def per_task_medians(passes: list[dict], key: str) -> list[float]:
    """Median of `key` for each task over the passes where it succeeded."""
    out = []
    for i in range(len(passes[0]["tasks"])):
        samples = [p["tasks"][i][key] for p in passes if p["tasks"][i]["failure"] is None]
        if samples:
            out.append(median(samples))
    return out


def end_to_end(passes: list[dict]) -> dict[str, float]:
    problem = per_task_medians(passes, "problem_s")
    setups = [s for p in passes for s in p["setup"]]
    rss_kb = [r for p in passes for r in p["rss_kb"]]
    return {
        "wall_s": sum(problem),
        "wall_raw_s": sum(per_task_medians(passes, "raw_s")),
        "symbolic_s": sum(per_task_medians(passes, "symbolic_s")),
        "bott_s": sum(per_task_medians(passes, "bott_s")),
        "max_problem_s": max(problem, default=0.0),
        "setup_s": median(setups) if setups else 0.0,
        "peak_rss_mb": max(rss_kb, default=0) / 1024,
    }


def merge_traces(traces: list[dict], tasks: list[dict]) -> dict:
    """Sum the counters of the children of one traced pass."""
    stats: dict[str, dict] = {}
    misses: dict[str, int] = {}
    spans = []
    for tr in traces:
        for name, st in tr["stats"].items():
            acc = stats.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                acc[k] += v
        for name, m in tr["misses"].items():
            misses[name] = misses.get(name, 0) + m
        offset = len(spans)
        spans += [[n, a, b, p + offset if p >= 0 else -1] for n, a, b, p in tr["spans"]]
    ok = [t for t in tasks if t["failure"] is None]
    return {
        "stats": stats,
        "misses": misses,
        "spans": spans,
        "result_terms": sum(t.get("terms", 0) for t in ok),
        "max_coeff_bits": max((t.get("bits", 0) for t in ok), default=0),
    }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats, misses = trace["stats"], trace["misses"]

    def st(name: str, field: str):
        return stats.get(name, {}).get(field, 0)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    sp_calls = st("symfunc.schubert_product", "calls")
    sp_misses = misses.get("symfunc.schubert_product", 0)
    points = st("bott.fixed_points", "items")
    tried = st("bott.seeds", "calls")
    collided = st("bott.seeds", "raised")
    return {
        "symfunc.schubert_product.calls": sp_calls,
        "symfunc.schubert_product.misses": sp_misses,
        "symfunc.schubert_product.hit_ratio": 1 - ratio(sp_misses, sp_calls) if sp_calls else 0.0,
        "symfunc.schubert_product.s": st("symfunc.schubert_product", "s"),
        "symfunc.lr.misses": misses.get("symfunc.lr", 0),
        "symfunc.expand_linear_product.calls": st("symfunc.expand_linear_product", "calls"),
        "symfunc.expand_linear_product.s": st("symfunc.expand_linear_product", "s"),
        "symfunc.sym_power_roots.calls": st("symfunc.sym_power_roots", "calls"),
        "symfunc.elementary_symmetric.calls": st("symfunc.elementary_symmetric", "calls"),
        "chow.mul.calls": st("chow.mul", "calls"),
        "chow.gr_mul.calls": st("chow.gr_mul", "calls"),
        "chow.gr_mul.self_s": st("chow.gr_mul", "self_s"),
        "chow.tower_mul.self_s": st("chow.tower_mul", "self_s"),
        "chow.reduce_tower.calls": st("chow.reduce_tower", "calls"),
        "chow.reduce_tower.self_s": st("chow.reduce_tower", "self_s"),
        "chow.result_terms": trace["result_terms"],
        "chow.max_coeff_bits": trace["max_coeff_bits"],
        "chern.chern_classes.calls": st("chern.chern_classes", "calls"),
        "chern.chern_classes.misses": misses.get("chern.chern_classes", 0),
        "chern.sym.self_s": st("chern.sym", "self_s"),
        "chern.twist.self_s": st("chern.twist", "self_s"),
        "chern.quot.self_s": st("chern.quot", "self_s"),
        "expr.evaluate.self_s": st("expr.evaluate", "self_s"),
        "bott.fixed_points.count": points,
        "bott.fixed_points.s": st("bott.fixed_points", "s"),
        "bott.bundle_weights.calls": st("bott.bundle_weights", "calls"),
        "bott.bundle_weights.top_calls": st("bott.bundle_weights", "top_calls"),
        "bott.bundle_weights.per_point": ratio(st("bott.bundle_weights", "top_calls"), points),
        "bott.bundle_weights.s": st("bott.bundle_weights", "s"),
        "bott.tangent_weights.s": st("bott.tangent_weights", "s"),
        "bott.evaluate_at.s": st("bott.evaluate_at", "s"),
        "bott.sum.self_s": st("bott.sum", "self_s"),
        "bott.seeds.tried": tried,
        "bott.seeds.collided": collided,
        "bott.seed_yield": ratio(tried - collided, tried),
        "cli.parse.s": st("cli.parse", "s"),
    }


# -- the run -----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    kind, jobs = workload_jobs(workload, seed)
    start = time.monotonic()
    deadline = start + BUDGET_S
    # discarded: the first child of a checkout compiles byte code and starts cold
    run_child("count", [WARMUP.args()], False, deadline)
    t0 = time.monotonic()
    plain, traced_passes = [], []
    while True:
        began = time.monotonic()
        plain.append(run_pass(kind, jobs, False, deadline))
        if traced:
            traced_passes.append(run_pass(kind, jobs, True, deadline))
        now = time.monotonic()
        # stop once the next pass would end past --seconds (or the budget)
        next_end = now + (now - began)
        if len(plain) >= (1 if traced else MIN_PASSES) and next_end - t0 > seconds:
            break
        if next_end > deadline:
            break
    return {"plain": plain, "traced": traced_passes}


def summarize(runs: dict) -> tuple[dict, dict, list[str]]:
    """(metrics, counts, problems found) of a run."""
    plain, traced = runs["plain"], runs["traced"]
    if traced:
        # a traced problem must return exactly what the untraced one did
        reference = [t.get("values") for t in plain[0]["tasks"]]
        for p in traced:
            for t, ref in zip(p["tasks"], reference):
                if t["failure"] is None and ref is not None and t["values"] != ref:
                    t["failure"] = f"traced value {t['values']} != untraced {ref}"
    every = [t for p in plain + traced for t in p["tasks"]]
    problems = [f"{t['task']}: {t['failure']}" for t in every if t["failure"] is not None]
    tally = {"attempted": len(every), "failed": len(problems)}
    metrics = end_to_end(plain)
    metrics["failed_frac"] = tally["failed"] / tally["attempted"]
    if traced:
        layers = [layer_metrics(p["trace"]) for p in traced]
        for name in EXACT_COUNTERS:
            if len({m[name] for m in layers}) != 1:
                problems.append(f"counter {name} differs between traced passes")
        merged = {
            k: layers[0][k] if k in EXACT_COUNTERS else median(m[k] for m in layers)
            for k in layers[0]
        }
        merged["engine.symbolic_s"] = metrics["symbolic_s"]
        merged["trace.overhead_s"] = end_to_end(traced)["wall_s"] - metrics["wall_s"]
        metrics["layers"] = merged
    return metrics, tally, problems


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sources = sorted((ROOT / "src" / "curvecount").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": digest[:16],
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git; a checkout
    exported without history reports "unknown" (source_sha256 still
    identifies the code)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full report, with spans, as JSON here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "curvecount" / "__init__.py").is_file():
        print(f"no curvecount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, tally, problems = summarize(runs)
    units = dict(END_TO_END_UNITS, symbolic_s="s", failed_frac="ratio", wall_raw_s="s")

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(runs['plain'])}+{len(runs['traced'])} traced "
          f"attempted={tally['attempted']} failed={tally['failed']}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<38} {metrics[name]:>14.6g} {unit}")
    if args.trace:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name:<38} {metrics['layers'][name]:>14.6g} {unit}")
    for line in problems[:20]:
        print(f"FAIL {line}")

    if args.out:
        report = {"args": vars(args), "env": env, "metrics": metrics, **tally,
                  "problems": problems, "runs": runs}
        Path(args.out).write_text(json.dumps(report, default=str) + "\n")

    chosen = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = metrics["layers"] if args.trace else metrics
    print(json.dumps({
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
