"""Command-line front end.

Expression grammar (whitespace-insensitive; ^ binds tighter than *, which
binds tighter than +):

    expr    := term {"+" term}
    term    := factor {"*" factor}
    factor  := atom ["^" int]
    atom    := "s[" int {"," int} "]" | "zeta" | rational
             | "c(" int "," bundle ")" | "e(" bundle ")" | "(" expr ")"
    bundle  := "S" | "Q" | "triv(" int ")" | "dual(" bundle ")"
             | "sym(" int "," bundle ")" | "o(" int ")"
             | "tensor(" bundle "," bundle ")" | "quot(" bundle "," bundle ")"
    space   := "gr(" int "," int ")" | "pbundle(" bundle "," space ")"

`sym(1,B)` is read as `B`.

Exit codes: 0 success, 1 a reported check failed, 2 syntax error in an
expression, space or table, or a usage error in the arguments, 3 semantic
error (invalid bundle/space combination, degree mismatch, unsupported
integrand), 141 the reader closed standard output early (a broken pipe).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import bott, bundles, chow, counts, gwdt, symfunc
from . import expr as ex
from .bundles import (
    Dual,
    InvalidBundleError,
    RelO,
    Sym,
    TautQuot,
    TautSub,
    TensorLine,
    Trivial,
    WhitneyQuotient,
)
from .chow import ProjBundle, Space
from .counts import Check, HypersurfaceProblem


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class SemanticError(ValueError):
    pass


# -- tokenizer and recursive-descent parser --------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>-?\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<sym>[-+*^()\[\],/]))")


@dataclass
class _Tokens:
    text: str
    pos: int = 0
    items: list[tuple[str, str, int]] = field(default_factory=list)

    def __post_init__(self):
        i = 0
        text = self.text
        while i < len(text):
            m = _TOKEN_RE.match(text, i)
            if not m or m.end() == i:
                stripped = text[i:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            i = m.end()

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, value: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[1] != value:
            raise ExprSyntaxError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.items)


def parse_expression(text: str) -> ex.ExprAst:
    toks = _Tokens(text)
    node = _parse_sum(toks)
    if not toks.done():
        tok = toks.peek()
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return node


def _parse_sum(toks: _Tokens) -> ex.ExprAst:
    terms = [_parse_term(toks)]
    while (tok := toks.peek()) and tok[1] == "+":
        toks.next()
        terms.append(_parse_term(toks))
    return terms[0] if len(terms) == 1 else ex.Sum(tuple(terms))


def _parse_term(toks: _Tokens) -> ex.ExprAst:
    factors = [_parse_factor(toks)]
    while (tok := toks.peek()) and tok[1] == "*":
        toks.next()
        factors.append(_parse_factor(toks))
    return factors[0] if len(factors) == 1 else ex.Product(tuple(factors))


def _parse_factor(toks: _Tokens) -> ex.ExprAst:
    atom = _parse_atom(toks)
    if (tok := toks.peek()) and tok[1] == "^":
        toks.next()
        kind, value, pos = toks.next()
        if kind != "int":
            raise ExprSyntaxError("exponent must be an integer", pos)
        n = int(value)
        if n < 0:
            raise SemanticError("exponents must be nonnegative")
        return ex.Power(atom, n)
    return atom


def _parse_atom(toks: _Tokens) -> ex.ExprAst:
    kind, value, pos = toks.next()
    if kind == "int":
        num = int(value)
        if (tok := toks.peek()) and tok[1] == "/":
            toks.next()
            dkind, dvalue, dpos = toks.next()
            if dkind != "int":
                raise ExprSyntaxError("denominator must be an integer", dpos)
            den = int(dvalue)
            if den == 0:
                raise SemanticError("denominator must be nonzero")
            return ex.rational(Fraction(num, den))
        return ex.rational(num)
    if value == "(":
        node = _parse_sum(toks)
        toks.expect(")")
        return node
    if value == "zeta":
        return ex.Zeta()
    if value == "s":
        toks.expect("[")
        parts = [_parse_int(toks)]
        while (tok := toks.peek()) and tok[1] == ",":
            toks.next()
            parts.append(_parse_int(toks))
        toks.expect("]")
        try:
            return ex.Schubert(symfunc.partition(parts))
        except ValueError as err:
            raise SemanticError(str(err)) from err
    if value == "c":
        toks.expect("(")
        index = _parse_int(toks)
        toks.expect(",")
        bundle = _parse_bundle(toks)
        toks.expect(")")
        if index < 0:
            raise SemanticError("Chern index must be nonnegative")
        return ex.ChernClass(index, bundle)
    if value == "e":
        toks.expect("(")
        bundle = _parse_bundle(toks)
        toks.expect(")")
        return ex.EulerClass(bundle)
    raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def _parse_int(toks: _Tokens) -> int:
    kind, value, pos = toks.next()
    if kind != "int":
        raise ExprSyntaxError(f"expected an integer, found {value!r}", pos)
    return int(value)


def _parse_bundle(toks: _Tokens) -> bundles.BundleExpr:
    kind, value, pos = toks.next()
    if value == "S":
        return TautSub()
    if value == "Q":
        return TautQuot()
    if value == "triv":
        toks.expect("(")
        r = _parse_int(toks)
        toks.expect(")")
        if r < 0:
            raise SemanticError("trivial rank must be nonnegative")
        return Trivial(r)
    if value == "dual":
        toks.expect("(")
        arg = _parse_bundle(toks)
        toks.expect(")")
        return Dual(arg)
    if value == "sym":
        toks.expect("(")
        d = _parse_int(toks)
        toks.expect(",")
        arg = _parse_bundle(toks)
        toks.expect(")")
        if d < 0:
            raise SemanticError("symmetric power degree must be nonnegative")
        # Sym^1 B is B; built as Sym it would send the symbolic engine through
        # every Schur shape of weight up to the rank of B
        return arg if d == 1 else Sym(d, arg)
    if value == "o":
        toks.expect("(")
        k = _parse_int(toks)
        toks.expect(")")
        return RelO(k)
    if value == "tensor":
        toks.expect("(")
        arg = _parse_bundle(toks)
        toks.expect(",")
        line = _parse_bundle(toks)
        toks.expect(")")
        return TensorLine(arg, line)
    if value == "quot":
        toks.expect("(")
        top = _parse_bundle(toks)
        toks.expect(",")
        sub = _parse_bundle(toks)
        toks.expect(")")
        return WhitneyQuotient(top, sub)
    raise ExprSyntaxError(f"unexpected bundle {value!r}", pos)


def parse_space(text: str) -> Space:
    toks = _Tokens(text)
    space = _parse_space(toks)
    if not toks.done():
        tok = toks.peek()
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return space


def _parse_space(toks: _Tokens) -> Space:
    kind, value, pos = toks.next()
    if value == "gr":
        toks.expect("(")
        k = _parse_int(toks)
        toks.expect(",")
        n = _parse_int(toks)
        toks.expect(")")
        try:
            return chow.grassmannian(k, n)
        except ValueError as err:
            raise SemanticError(str(err)) from err
    if value == "pbundle":
        toks.expect("(")
        bundle = _parse_bundle(toks)
        toks.expect(",")
        base = _parse_space(toks)
        toks.expect(")")
        try:
            return ProjBundle(base, bundle)
        except (ValueError, InvalidBundleError) as err:
            raise SemanticError(str(err)) from err
    raise ExprSyntaxError(f"unexpected space {value!r}", pos)


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
    space = parse_space(args.space)
    node = parse_expression(args.expr)
    checks = []
    if args.backend in ("symbolic", "both"):
        symbolic = chow.integrate(ex.evaluate(node, space))
    if args.backend in ("bott", "both"):
        localized = bott.bott_integrate(space, node)
    if args.backend == "symbolic":
        value = symbolic
    elif args.backend == "bott":
        value = localized
    else:
        value = symbolic
        checks.append(Check("backend agreement", symbolic, localized))
    rep = _report(
        "integrate",
        space=ex.format_space(space),
        expression=ex.format_expr(node),
        backend=args.backend,
        value=value,
        checks=checks,
    )
    return _emit(rep, args.json)


def _cmd_count(args) -> int:
    problem = HypersurfaceProblem(
        ambient_dim=args.ambient,
        degree=args.degree,
        curve_degree=1 if args.kind == "lines" else 2,
        insertion_codim=args.incidence,
    )
    symbolic = counts.count_curves(problem, "symbolic")
    localized = counts.count_curves(problem, "bott")
    space = (
        counts.line_space(problem.ambient_dim)
        if problem.curve_degree == 1
        else counts.conic_space(problem.ambient_dim)
    )
    checks = [
        Check("backend agreement", symbolic, localized),
        Check("integer count", 1, symbolic.denominator),
    ]
    rep = _report(
        "count",
        space=ex.format_space(space),
        expression=ex.format_expr(counts.count_integrand(problem)),
        backend="both",
        value=symbolic,
        checks=checks,
    )
    return _emit(rep, args.json)


def _cmd_ledger(args) -> int:
    rep = _report("ledger", checks=counts.dimension_ledger(),
                  extra={"notes": [counts.DEGENERATE_CONIC_ASSUMPTION]})
    return _emit(rep, args.json, show_value=False)


def _parse_table(text: str, label: str) -> gwdt.InvariantTable:
    values: dict[int, Fraction] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ExprSyntaxError(f"expected degree=value, found {item!r}", 0)
        deg, _, val = item.partition("=")
        try:
            degree, value = int(deg), Fraction(val)
        except (ValueError, ZeroDivisionError) as err:
            raise ExprSyntaxError(f"bad table entry {item!r}: {err}", 0) from err
        if degree in values:
            raise SemanticError(f"degree {degree} appears twice in the {label} table")
        values[degree] = value
    if not values:
        raise SemanticError(f"the {label} table is empty")
    try:
        return gwdt.InvariantTable(label, values)
    except ValueError as err:
        raise SemanticError(str(err)) from err


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
    p_int.add_argument("--backend", choices=("symbolic", "bott", "both"),
                       default="symbolic")
    p_int.add_argument("--json", action="store_true")
    p_int.set_defaults(func=_cmd_integrate)

    p_count = sub.add_parser("count", help="count lines or conics on a hypersurface")
    p_count.add_argument("kind", choices=("lines", "conics"))
    p_count.add_argument("--ambient", type=int, required=True,
                         help="dimension n of the ambient projective space")
    p_count.add_argument("--degree", type=int, required=True)
    p_count.add_argument("--incidence", type=int, choices=(0, 2), default=0,
                         help="codimension of the incidence condition")
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
    except (ValueError, gwdt.MissingDivisorError, bott.WeightCollisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


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
