"""Tests of the benchmark itself: its input generator, its correctness gate,
its tracing counters and its refusal to run without the program."""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from workloads import SWEEP_SPACES, sweep_integrands  # noqa: E402

from curvecount import bundles, cli  # noqa: E402
from curvecount import expr as ex  # noqa: E402


def _degree(node) -> int:
    if isinstance(node, ex.Schubert):
        return sum(node.parts)
    if isinstance(node, ex.Zeta):
        return 1
    if isinstance(node, ex.ChernClass):
        return node.index
    if isinstance(node, ex.Power):
        return _degree(node.base) * node.exponent
    if isinstance(node, ex.Product):
        return sum(_degree(f) for f in node.factors)
    raise TypeError(node)


def test_sweep_generator_is_deterministic_per_seed():
    assert sweep_integrands(7) == sweep_integrands(7)
    assert sweep_integrands(7) != sweep_integrands(8)
    assert sweep_integrands(7, size=30) == sweep_integrands(7)[:30]


def test_sweep_tables_match_the_program():
    for sp in SWEEP_SPACES:
        space = cli.parse_space(sp.text)
        assert sp.dim == space.dim
        for template, rank in sp.atoms():
            node = cli.parse_expression(template.format(i=1))
            expected = None if not isinstance(node, ex.ChernClass) else bundles.rank(node.bundle, space)
            assert rank == expected, (sp.text, template)


def test_sweep_integrands_are_exactly_top_degree():
    for space_text, expr_text in sweep_integrands(3):
        space = cli.parse_space(space_text)
        assert _degree(cli.parse_expression(expr_text)) == space.dim


def test_gate_counts_every_kind_of_wrong_answer():
    ok = {"values": {"symbolic": "27", "bott": "27"}}
    assert run.failure(ok, 27) is None
    assert run.failure(ok, None) is None
    assert "expected" in run.failure(ok, 28)
    assert "disagree" in run.failure({"values": {"symbolic": "27", "bott": "26"}}, None)
    assert "integer" in run.failure({"values": {"bott": "1/2"}}, None)
    assert run.failure({"error": "ValueError: boom"}, 27) == "ValueError: boom"


def test_a_raising_problem_fails_without_stopping_the_pass():
    deadline = time.monotonic() + 60
    jobs = [([[1, 1, 1, 0]], [27]), ([[3, 3, 1, 0]], [27])]
    out = run.run_pass("count", jobs, False, deadline)
    first, second = out["tasks"]
    assert first["failure"].startswith("ValueError")
    assert second["failure"] is None


def _traced_counters(kind: str, jobs: list) -> dict:
    out = run.run_pass(kind, jobs, True, time.monotonic() + 120)
    assert all(t["failure"] is None for t in out["tasks"])
    layers = run.layer_metrics(out["trace"])
    return {name: layers[name] for name in run.EXACT_COUNTERS}


def test_exact_counters_repeat_across_traced_runs():
    ladder = [([[3, 3, 1, 0]], [27]), ([[4, 5, 2, 0]], [609250]),
              ([[5, 6, 2, 2]], [440884080])]
    sweep = sweep_integrands(5, size=24)
    for kind, jobs in (("count", ladder), ("bott", ladder[1:2]),
                       ("sweep", [(sweep, [None] * len(sweep))])):
        first = _traced_counters(kind, jobs)
        assert first == _traced_counters(kind, jobs), kind
        assert first["bott.fixed_points.count"] > 0
        if kind != "bott":
            assert first["symfunc.schubert_product.misses"] > 0
            assert first["chow.result_terms"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
