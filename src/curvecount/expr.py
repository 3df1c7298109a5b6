"""Integrand expressions: a tiny shared tree for sums, products, powers,
Schubert classes, zeta, rational constants, and Chern/Euler factors, and the
one text form of these trees, of bundles and of spaces.

`parse` reads the text form into these nodes, the symbolic backend
evaluates them into Chow elements, and the localization backend
evaluates them at torus fixed points.  Keeping one tree for all three means
the two integration routes consume literally the same input.

Text form (whitespace-insensitive; ^ binds tighter than *, which binds
tighter than +):

    expr    := term {"+" term}
    term    := factor {"*" factor}
    factor  := atom ["^" int]
    atom    := "s[" int {"," int} "]" | int ["/" int] | "(" expr ")" | call
    call    := name ["(" arg {"," arg} ")"]
    arg     := int | call

Every call is one entry of `CONSTRUCTORS`: its name, the node class it
builds, the sort of that node (an expression atom, a bundle or a space) and
the node's fields in text order, each an int or a call of the sort it names.
A constructor without fields is written as its bare name.  So an atom is
`zeta`, `c(i,B)` or `e(B)`; a bundle B is `S`, `Q`, `triv(r)`, `dual(B)`,
`sym(d,B)`, `o(k)`, `tensor(B,L)` or `quot(B,A)`; a space is `gr(k,n)` or
`pbundle(B,space)`.  `sym(1,B)` is read as `B`.  Values are checked by the
node classes themselves, so a tree built in code is refused with the same
message as its text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import chern, chow, symfunc
from .bundles import (
    BundleExpr,
    Dual,
    Grassmannian,
    ProjBundle,
    RelO,
    Space,
    Sym,
    TautQuot,
    TautSub,
    TensorLine,
    Trivial,
    WhitneyQuotient,
    rank,
)
from .chow import ChowElement
from .symfunc import Partition


@dataclass(frozen=True)
class Rational:
    # `int` when integral (build through `rational`), so integer scalars keep
    # both engines in integer arithmetic
    value: int | Fraction


@dataclass(frozen=True)
class Schubert:
    parts: Partition

    def __post_init__(self):
        # stored as a canonical partition: trailing zeros dropped
        object.__setattr__(self, "parts", symfunc.partition(self.parts))


@dataclass(frozen=True)
class Zeta:
    pass


@dataclass(frozen=True)
class ChernClass:
    index: int
    bundle: BundleExpr

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("Chern index must be nonnegative")


@dataclass(frozen=True)
class EulerClass:
    bundle: BundleExpr


@dataclass(frozen=True)
class Power:
    base: "ExprAst"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")


@dataclass(frozen=True)
class Product:
    factors: tuple["ExprAst", ...]

    def __post_init__(self):
        # the text form has no empty product; 1 is `rational(1)`
        if not self.factors:
            raise ValueError("a product needs at least one factor")


@dataclass(frozen=True)
class Sum:
    terms: tuple["ExprAst", ...]

    def __post_init__(self):
        # the text form has no empty sum; 0 is `rational(0)`
        if not self.terms:
            raise ValueError("a sum needs at least one term")


ExprAst = Rational | Schubert | Zeta | ChernClass | EulerClass | Power | Product | Sum


def rational(num, den=1) -> Rational:
    """The scalar node num/den; an integral value is stored as `int`."""
    if den == 0:
        raise ValueError("denominator must be nonzero")
    q = Fraction(num, den)
    return Rational(q.numerator if q.denominator == 1 else q)


def evaluate(node: ExprAst, space: Space) -> ChowElement:
    """Evaluate an integrand expression into the Chow ring of `space`."""
    if isinstance(node, Rational):
        return node.value * chow.unit(space)
    if isinstance(node, Schubert):
        return chow.sigma(space, node.parts)
    if isinstance(node, Zeta):
        if not isinstance(space, ProjBundle):
            raise chow.SpaceMismatchError("zeta only lives on a projective bundle")
        return chow.zeta(space)
    if isinstance(node, ChernClass):
        cs = chern.chern_classes(node.bundle, space)
        if node.index >= len(cs):
            return chow.zero(space)
        return cs[node.index]
    if isinstance(node, EulerClass):
        return chern.euler_class(node.bundle, space)
    if isinstance(node, Power):
        return evaluate(node.base, space) ** node.exponent
    if isinstance(node, Product):
        out = chow.unit(space)
        for f in node.factors:
            out = out * evaluate(f, space)
        return out
    if isinstance(node, Sum):
        out = chow.zero(space)
        for t in node.terms:
            out = out + evaluate(t, space)
        return out
    raise TypeError(f"not an integrand expression: {node!r}")


def degree(node: ExprAst, space: Space) -> int:
    """The degree of an integrand on `space`, read off the tree: c(i,B) has
    degree i, e(B) the rank of B, zeta 1, s[lam] |lam| and a scalar 0; a
    product adds, a power multiplies and a sum takes its largest term."""
    if isinstance(node, Rational):
        return 0
    if isinstance(node, Schubert):
        return sum(node.parts)
    if isinstance(node, Zeta):
        return 1
    if isinstance(node, ChernClass):
        return node.index
    if isinstance(node, EulerClass):
        return rank(node.bundle, space)
    if isinstance(node, Power):
        return degree(node.base, space) * node.exponent
    if isinstance(node, Product):
        return sum(degree(f, space) for f in node.factors)
    if isinstance(node, Sum):
        return max((degree(t, space) for t in node.terms), default=0)
    raise TypeError(f"not an integrand expression: {node!r}")


# -- text form ------------------------------------------------------------

class Constructor(NamedTuple):
    """One call of the text form: the node class it builds, the sort of that
    node ("atom", "bundle" or "space") and, in text order, each argument as
    (field of the node, sort), where the sort may also be "int"."""

    node: type
    sort: str
    fields: tuple[tuple[str, str], ...] = ()


CONSTRUCTORS = {
    "zeta": Constructor(Zeta, "atom"),
    "c": Constructor(ChernClass, "atom", (("index", "int"), ("bundle", "bundle"))),
    "e": Constructor(EulerClass, "atom", (("bundle", "bundle"),)),
    "S": Constructor(TautSub, "bundle"),
    "Q": Constructor(TautQuot, "bundle"),
    "triv": Constructor(Trivial, "bundle", (("rank", "int"),)),
    "dual": Constructor(Dual, "bundle", (("arg", "bundle"),)),
    "sym": Constructor(Sym, "bundle", (("degree", "int"), ("arg", "bundle"))),
    "o": Constructor(RelO, "bundle", (("twist", "int"),)),
    "tensor": Constructor(TensorLine, "bundle", (("arg", "bundle"), ("line", "bundle"))),
    "quot": Constructor(WhitneyQuotient, "bundle", (("top", "bundle"), ("sub", "bundle"))),
    "gr": Constructor(Grassmannian, "space", (("k", "int"), ("n", "int"))),
    "pbundle": Constructor(ProjBundle, "space", (("bundle", "bundle"), ("base", "space"))),
}

_NAMES = {c.node: name for name, c in CONSTRUCTORS.items()}

# what a misplaced name is called in a syntax error, by the sort expected
_NOUNS = {"atom": "token", "bundle": "bundle", "space": "space"}

# the infix operators, loosest first, and the node each one joins into
_INFIX = (("+", Sum), ("*", Product))


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<sym>[-+*^()\[\],/])"
    r"|(?P<bad>\S))"
)


# most parentheses open at once: the parser and both engines recurse once
# per level, and far deeper input would exhaust Python's recursion limit
MAX_NESTING = 100


class _Tokens:
    """The (kind, value, position) tokens of one text and a read cursor."""

    def __init__(self, text: str):
        self.end, self.pos, self.items = len(text), 0, []
        depth = 0
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
            depth += (m[kind] == "(") - (m[kind] == ")")
            if depth > MAX_NESTING:
                raise ExprSyntaxError(
                    f"more than {MAX_NESTING} parentheses open", m.start(kind)
                )
            self.items.append((kind, m[kind], m.start(kind)))

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        """Step over the next token if it is `value`."""
        tok = self.peek()
        if tok is not None and tok[1] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ExprSyntaxError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def integer(self, error: str = "") -> int:
        kind, value, pos = self.next()
        if kind != "int":
            raise ExprSyntaxError(error or f"expected an integer, found {value!r}", pos)
        return int(value)


def parse(text: str, sort: str = "expr"):
    """Read `text` as an expression (sort "expr") or as one call of a
    constructor sort: "atom", "bundle" or "space"."""
    toks = _Tokens(text)
    node = _infix(toks) if sort == "expr" else _call(toks, sort, toks.next())
    if (tok := toks.peek()) is not None:
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return node


def _infix(toks: _Tokens, level: int = 0) -> ExprAst:
    if level == len(_INFIX):
        return _factor(toks)
    op, node = _INFIX[level]
    items = [_infix(toks, level + 1)]
    while toks.accept(op):
        items.append(_infix(toks, level + 1))
    return items[0] if len(items) == 1 else node(tuple(items))


def _factor(toks: _Tokens) -> ExprAst:
    atom = _atom(toks)
    if toks.accept("^"):
        return Power(atom, toks.integer("exponent must be an integer"))
    return atom


def _atom(toks: _Tokens) -> ExprAst:
    tok = toks.next()
    kind, value, _ = tok
    if kind == "int":
        if toks.accept("/"):
            return rational(int(value), toks.integer("denominator must be an integer"))
        return rational(int(value))
    if value == "(":
        node = _infix(toks)
        toks.expect(")")
        return node
    if value == "s":
        toks.expect("[")
        parts = [toks.integer()]
        while toks.accept(","):
            parts.append(toks.integer())
        toks.expect("]")
        return Schubert(tuple(parts))
    return _call(toks, "atom", tok)


def _call(toks: _Tokens, sort: str, tok: tuple[str, str, int]):
    """The node of the constructor named by `tok`, which must be of `sort`;
    reads its arguments from `toks`."""
    _, name, pos = tok
    entry = CONSTRUCTORS.get(name)
    if entry is None or entry.sort != sort:
        raise ExprSyntaxError(f"unexpected {_NOUNS[sort]} {name!r}", pos)
    args = {}
    for i, (field, arg_sort) in enumerate(entry.fields):
        toks.expect("," if i else "(")
        args[field] = (
            toks.integer() if arg_sort == "int" else _call(toks, arg_sort, toks.next())
        )
    if entry.fields:
        toks.expect(")")
    node = entry.node(**args)
    # Sym^1 B is B; built as Sym it would send the symbolic engine through
    # every Schur shape of weight up to the rank of B
    return node.arg if isinstance(node, Sym) and node.degree == 1 else node


_PREC_SUM, _PREC_PRODUCT, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4


def format_expr(node) -> str:
    """The text form of an expression, a bundle or a space; `parse` reads it
    back to an equal node."""
    return _fmt(node, _PREC_SUM)


def _fmt(node, context: int) -> str:
    name = _NAMES.get(type(node))
    if name is not None:
        fields = CONSTRUCTORS[name].fields
        args = ",".join(
            str(getattr(node, f)) if sort == "int" else _fmt(getattr(node, f), _PREC_SUM)
            for f, sort in fields
        )
        return f"{name}({args})" if fields else name
    if isinstance(node, Rational):
        text, prec = str(node.value), _PREC_ATOM
    elif isinstance(node, Schubert):
        inner = ",".join(str(p) for p in node.parts) if node.parts else "0"
        text, prec = f"s[{inner}]", _PREC_ATOM
    elif isinstance(node, Power):
        text, prec = f"{_fmt(node.base, _PREC_ATOM)}^{node.exponent}", _PREC_POWER
    elif isinstance(node, Product):
        text = "*".join(_fmt(f, _PREC_POWER) for f in node.factors)
        prec = _PREC_PRODUCT
    elif isinstance(node, Sum):
        text = " + ".join(_fmt(t, _PREC_PRODUCT) for t in node.terms)
        prec = _PREC_SUM
    else:
        raise TypeError(f"not an integrand expression: {node!r}")
    if prec < context:
        return f"({text})"
    return text
