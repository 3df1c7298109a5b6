"""Integrand expressions: a tiny shared tree for sums, products, powers,
Schubert classes, zeta, rational constants, and Chern/Euler factors.

The command-line front end parses text into these nodes, the symbolic
backend evaluates them into Chow elements, and the localization backend
evaluates them at torus fixed points.  Keeping one tree for all three means
the two integration routes consume literally the same input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import chern, chow
from .bundles import (
    BundleExpr,
    Dual,
    RelO,
    Sym,
    TautQuot,
    TautSub,
    TensorLine,
    Trivial,
    WhitneyQuotient,
)
from .chow import ChowElement, Grassmannian, ProjBundle, Space
from .symfunc import Partition


@dataclass(frozen=True)
class Rational:
    # `int` when integral (build through `rational`), so integer scalars keep
    # both engines in integer arithmetic
    value: int | Fraction


@dataclass(frozen=True)
class Schubert:
    parts: Partition


@dataclass(frozen=True)
class Zeta:
    pass


@dataclass(frozen=True)
class ChernClass:
    index: int
    bundle: BundleExpr


@dataclass(frozen=True)
class EulerClass:
    bundle: BundleExpr


@dataclass(frozen=True)
class Power:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class Product:
    factors: tuple["ExprAst", ...]


@dataclass(frozen=True)
class Sum:
    terms: tuple["ExprAst", ...]


ExprAst = Rational | Schubert | Zeta | ChernClass | EulerClass | Power | Product | Sum


def rational(value) -> Rational:
    """A scalar node; an integral value is stored as `int`."""
    q = Fraction(value)
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
        if node.index < 0:
            raise ValueError("Chern index must be nonnegative")
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


# -- canonical text form --------------------------------------------------

_PREC_SUM, _PREC_PRODUCT, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4


def format_expr(node: ExprAst) -> str:
    return _fmt(node, _PREC_SUM)


def _fmt(node: ExprAst, context: int) -> str:
    if isinstance(node, Rational):
        text, prec = str(node.value), _PREC_ATOM
    elif isinstance(node, Schubert):
        inner = ",".join(str(p) for p in node.parts) if node.parts else "0"
        text, prec = f"s[{inner}]", _PREC_ATOM
    elif isinstance(node, Zeta):
        text, prec = "zeta", _PREC_ATOM
    elif isinstance(node, ChernClass):
        text, prec = f"c({node.index},{format_bundle(node.bundle)})", _PREC_ATOM
    elif isinstance(node, EulerClass):
        text, prec = f"e({format_bundle(node.bundle)})", _PREC_ATOM
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


def format_bundle(expr: BundleExpr) -> str:
    if isinstance(expr, TautSub):
        return "S"
    if isinstance(expr, TautQuot):
        return "Q"
    if isinstance(expr, Trivial):
        return f"triv({expr.rank})"
    if isinstance(expr, Dual):
        return f"dual({format_bundle(expr.arg)})"
    if isinstance(expr, Sym):
        return f"sym({expr.degree},{format_bundle(expr.arg)})"
    if isinstance(expr, TensorLine):
        return f"tensor({format_bundle(expr.arg)},{format_bundle(expr.line)})"
    if isinstance(expr, WhitneyQuotient):
        return f"quot({format_bundle(expr.top)},{format_bundle(expr.sub)})"
    if isinstance(expr, RelO):
        return f"o({expr.twist})"
    raise TypeError(f"not a bundle expression: {expr!r}")


def format_space(space: Space) -> str:
    if isinstance(space, Grassmannian):
        return f"gr({space.k},{space.n})"
    return f"pbundle({format_bundle(space.bundle)},{format_space(space.base)})"
