"""Command-line front end: argparse, the reports and the commands.

Expressions and spaces are read and written in the text form defined, with
its grammar, in `curvecount.expr`.

Exit codes: 0 success, 1 a reported check failed, 2 syntax error in an
expression, space or table, or a usage error in the arguments, 3 semantic
error (invalid bundle/space combination, degree mismatch, unsupported
integrand), 4 out of memory (an allocation failed, or a computation was
refused because it would pass a fixed size bound), 141 the reader closed
standard output early (a broken pipe).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import counts, gwdt
from . import expr as ex
from .bundles import Space
from .counts import Check, HypersurfaceProblem
from .expr import ExprSyntaxError


# wrappers over `expr.parse`, read by bench/child.py, tracing.py and test_bench.py
def parse_expression(text: str) -> ex.ExprAst:
    return ex.parse(text)


def parse_space(text: str) -> Space:
    return ex.parse(text, "space")


# -- reports ----------------------------------------------------------------


def _frac_json(v: Fraction) -> dict[str, str]:
    return {"num": str(v.numerator), "den": str(v.denominator)}


def _report(command: str, *, space: str = "", expression: str = "",
            backend: str = "", value: Fraction | None = None,
            checks: list[Check] | None = None, extra: dict | None = None) -> dict:
    rep = {
        "command": command,
        "space": space,
        "expr": expression,
        "backend": backend,
        "value": _frac_json(value if value is not None else Fraction(0)),
        "checks": [
            {"name": c.name, "expected": str(c.expected), "got": str(c.got),
             "pass": c.passed}
            for c in checks or ()
        ],
    }
    if extra:
        rep.update(extra)
    return rep


def _integral_report(command: str, space: Space, node: ex.ExprAst, backend: str,
                     values: list[Fraction], *checks: Check) -> dict:
    """The report of one integral, on one engine or, with a value per engine,
    the symbolic value checked against the localized one."""
    agreement = [Check("backend agreement", *values)] if len(values) > 1 else []
    return _report(command, space=ex.format_expr(space), expression=ex.format_expr(node),
                   backend=backend, value=values[0], checks=agreement + list(checks))


def _emit(rep: dict, as_json: bool, show_value: bool = True) -> int:
    if as_json:
        print(json.dumps(rep, indent=2, sort_keys=True))
    else:
        if show_value:
            value = rep["value"]
            pretty = value["num"] if value["den"] == "1" else f"{value['num']}/{value['den']}"
            print(f"{rep['command']}: {pretty}")
        for c in rep["checks"]:
            status = "pass" if c["pass"] else "FAIL"
            print(f"  [{status}] {c['name']}: expected {c['expected']}, got {c['got']}")
        for note in rep.get("notes", []):
            print(f"  note: {note}")
    return 0 if all(c["pass"] for c in rep["checks"]) else 1


# -- commands ----------------------------------------------------------------


def _cmd_integrate(args) -> int:
    space = ex.parse(args.space, "space")
    node = ex.parse(args.expr)
    backends = counts.BACKENDS if args.backend == "both" else (args.backend,)
    values = [counts.integral(space, node, b) for b in backends]
    return _emit(_integral_report("integrate", space, node, args.backend, values),
                 args.json)


def _cmd_count(args) -> int:
    curve_degree = next(d for d, f in counts.FAMILIES.items() if f.name == args.kind)
    problem = HypersurfaceProblem(args.ambient, args.degree, curve_degree,
                                  args.incidence)
    values = [counts.count_curves(problem, b) for b in counts.BACKENDS]
    rep = _integral_report("count", problem.space, problem.integrand, "both", values,
                           Check("integer count", 1, values[0].denominator))
    return _emit(rep, args.json)


def _cmd_ledger(args) -> int:
    rep = _report("ledger", checks=counts.dimension_ledger(),
                  extra={"notes": [counts.DEGENERATE_CONIC_ASSUMPTION]})
    return _emit(rep, args.json, show_value=False)


def _parse_table(text: str, label: str) -> gwdt.InvariantTable:
    values: dict[int, Fraction] = {}
    end = -1  # offset of the comma before the current entry
    for raw in text.split(","):
        start = end + 1 + len(raw) - len(raw.lstrip())
        end += 1 + len(raw)
        item = raw.strip()
        if not item:
            continue
        if "=" not in item:
            raise ExprSyntaxError(f"expected degree=value, found {item!r}", start)
        deg, _, val = item.partition("=")
        try:
            # the grammar's integers and scalars; int() alone would read 1_0
            # as 10, and Fraction alone would expand 1e100000000
            if not re.fullmatch(r"\s*[-+]?\d+(/\d+)?\s*", val):
                raise ValueError("the value must be an integer or p/q")
            if not re.fullmatch(r"\s*[-+]?\d+\s*", deg):
                raise ValueError("the degree must be an integer")
            degree, value = int(deg), Fraction(val)
        except (ValueError, ZeroDivisionError) as err:
            raise ExprSyntaxError(f"bad table entry {item!r}: {err}", start) from err
        if degree in values:
            raise ValueError(f"degree {degree} appears twice in the {label} table")
        values[degree] = value
    if not values:
        raise ValueError(f"the {label} table is empty")
    return gwdt.InvariantTable(label, values)


def _cmd_gwdt(args) -> int:
    if args.gw is None:
        table = _parse_table(args.dt, "DT")
        out = gwdt.gw_from_dt(table)
        back = gwdt.dt_from_gw(out)
    else:
        table = _parse_table(args.gw, "GW")
        out = gwdt.dt_from_gw(table)
        back = gwdt.gw_from_dt(out)
    checks = [
        Check(f"roundtrip degree {m}", table[m], back[m]) for m in sorted(table.values)
    ]
    rep = _report(
        "gwdt",
        backend=out.label,
        checks=checks,
        extra={
            "table": {
                str(m): _frac_json(out[m]) for m in sorted(out.values)
            }
        },
    )
    if not args.json:
        for m in sorted(out.values):
            v = out[m]
            pretty = str(v.numerator) if v.denominator == 1 else str(v)
            print(f"  {out.label}[{m}] = {pretty}")
    return _emit(rep, args.json, show_value=False)


def _cmd_am_verify(args) -> int:
    d = args.degree
    seeds = [gwdt.am_localization_verify(d, seed) for seed in (0, 1, 2)]
    value = seeds[0]
    expected = gwdt.aspinwall_morrison_factor(d)
    checks = [
        Check(f"cover sum equals 1/{d}^3", expected, value),
        Check("weight independence (seeds 0,1,2)", 1, len(set(seeds))),
    ]
    rep = _report("am-verify", backend="localization", value=value, checks=checks)
    return _emit(rep, args.json)


def _cmd_selftest(args) -> int:
    return _emit(_report("selftest", checks=counts.acceptance_checks()), args.json,
                 show_value=False)


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecount",
        description="Exact curve counts on hypersurfaces by Schubert calculus "
        "and fixed-point localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="integrate an expression over a space")
    p_int.add_argument("--space", required=True)
    p_int.add_argument("--expr", required=True)
    p_int.add_argument("--backend", choices=(*counts.BACKENDS, "both"),
                       default="symbolic")
    p_int.add_argument("--json", action="store_true")
    p_int.set_defaults(func=_cmd_integrate)

    p_count = sub.add_parser("count", help="count lines or conics on a hypersurface")
    p_count.add_argument("kind", choices=[f.name for f in counts.FAMILIES.values()])
    p_count.add_argument("--ambient", type=int, required=True,
                         help="dimension n of the ambient projective space")
    p_count.add_argument("--degree", type=int, required=True)
    p_count.add_argument("--incidence", type=int, default=0,
                         help="codimension k of the incidence condition, 0 <= k <= n")
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(func=_cmd_count)

    p_ledger = sub.add_parser("ledger", help="print the dimension bookkeeping")
    p_ledger.add_argument("--json", action="store_true")
    p_ledger.set_defaults(func=_cmd_ledger)

    p_gwdt = sub.add_parser("gwdt", help="convert between GW and DT tables")
    tables = p_gwdt.add_mutually_exclusive_group(required=True)
    tables.add_argument("--dt", help="DT table, e.g. 1=60480,2=440884080; prints GW")
    tables.add_argument("--gw", help="GW table, e.g. 1=60480,2=440899200; prints DT")
    p_gwdt.add_argument("--json", action="store_true")
    p_gwdt.set_defaults(func=_cmd_gwdt)

    p_am = sub.add_parser("am-verify",
                          help="recompute the multiple-cover factor by localization")
    p_am.add_argument("--degree", type=int, required=True,
                      choices=range(1, gwdt.MAX_COVER_DEGREE + 1))
    p_am.add_argument("--json", action="store_true")
    p_am.set_defaults(func=_cmd_am_verify)

    p_self = sub.add_parser("selftest", help="run the full acceptance checks")
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExprSyntaxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        # a failed allocation carries no message, a refusal says what it needed
        detail = str(err)
        print(f"error: out of memory: {detail}" if detail else "error: out of memory",
              file=sys.stderr)
        return 4


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head -1`); point stdout at
        # devnull so the flush at interpreter exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports it
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
