"""Spaces and the vector-bundle expression trees read on them.

A space is a Grassmannian Gr(k, n) or a projective bundle P(E) over a space,
with E a bundle expression on the base; P(E) parametrizes the rank-one
subspaces of E.  A bundle expression is a small immutable tree built from the
tautological subbundle and quotient of the bottom Grassmannian, trivial
bundles, duals, symmetric powers, twists by a line bundle, quotients of an
inclusion, and the relative O(k) of a projective bundle.  Spaces and trees
only record *what* they are: both engines read them, and Chern classes and
equivariant weights live in the engines, so this module imports no other
module of the package.

Ranks depend on the space the expression is read on (the tautological ranks
come from the bottom Grassmannian), so `rank` takes the space as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb


class InvalidBundleError(ValueError):
    """A bundle expression is malformed for the space it is used on."""


@dataclass(frozen=True)
class TautSub:
    """Tautological subbundle S of the underlying Grassmannian."""


@dataclass(frozen=True)
class TautQuot:
    """Tautological quotient Q of the underlying Grassmannian."""


@dataclass(frozen=True)
class Trivial:
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise InvalidBundleError("trivial bundle rank must be nonnegative")


@dataclass(frozen=True)
class Dual:
    arg: "BundleExpr"


@dataclass(frozen=True)
class Sym:
    degree: int
    arg: "BundleExpr"

    def __post_init__(self):
        if self.degree < 0:
            raise InvalidBundleError("symmetric power degree must be nonnegative")


@dataclass(frozen=True)
class TensorLine:
    """arg tensored with a line bundle; the twist must have rank one."""

    arg: "BundleExpr"
    line: "BundleExpr"


@dataclass(frozen=True)
class WhitneyQuotient:
    """The quotient top/sub of a bundle inclusion sub -> top."""

    top: "BundleExpr"
    sub: "BundleExpr"


@dataclass(frozen=True)
class RelO:
    """O(twist) of the projective bundle the expression is evaluated on."""

    twist: int


BundleExpr = (
    TautSub | TautQuot | Trivial | Dual | Sym | TensorLine | WhitneyQuotient | RelO
)


def rank(expr: BundleExpr, space: Space) -> int:
    """Rank of the expression read on `space`, validating the tree shape."""
    if isinstance(expr, TautSub):
        g = bottom_grassmannian(space)
        return g.k
    if isinstance(expr, TautQuot):
        g = bottom_grassmannian(space)
        return g.n - g.k
    if isinstance(expr, Trivial):
        return expr.rank
    if isinstance(expr, Dual):
        return rank(expr.arg, space)
    if isinstance(expr, Sym):
        r = rank(expr.arg, space)
        if r == 0:
            raise InvalidBundleError("symmetric power of a rank-zero bundle")
        return comb(r + expr.degree - 1, expr.degree)
    if isinstance(expr, TensorLine):
        if rank(expr.line, space) != 1:
            raise InvalidBundleError("tensor twist must be a line bundle")
        return rank(expr.arg, space)
    if isinstance(expr, WhitneyQuotient):
        r = rank(expr.top, space) - rank(expr.sub, space)
        if r <= 0:
            raise InvalidBundleError("quotient rank must be positive")
        return r
    if isinstance(expr, RelO):
        if not isinstance(space, ProjBundle):
            raise InvalidBundleError("relative O(k) needs a projective bundle")
        return 1
    raise InvalidBundleError(f"not a bundle expression: {expr!r}")


def mentions_rel(expr: BundleExpr) -> bool:
    """Whether the expression involves the relative O(k) of the top level."""
    if isinstance(expr, RelO):
        return True
    if isinstance(expr, Dual):
        return mentions_rel(expr.arg)
    if isinstance(expr, Sym):
        return mentions_rel(expr.arg)
    if isinstance(expr, TensorLine):
        return mentions_rel(expr.arg) or mentions_rel(expr.line)
    if isinstance(expr, WhitneyQuotient):
        return mentions_rel(expr.top) or mentions_rel(expr.sub)
    return False


# -- spaces ------------------------------------------------------------------


@dataclass(frozen=True)
class Grassmannian:
    k: int
    n: int

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got Gr({self.k}, {self.n})")

    @property
    def rows(self) -> int:
        return self.k

    @property
    def cols(self) -> int:
        return self.n - self.k

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)

    def __repr__(self) -> str:
        return f"Gr({self.k},{self.n})"


@dataclass(frozen=True)
class ProjBundle:
    base: "Space"
    bundle: BundleExpr

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("projectivized bundle must have positive rank")

    # computed once per instance and kept out of equality, hash and repr,
    # which read only the dataclass fields
    @cached_property
    def rank(self) -> int:
        return rank(self.bundle, self.base)

    @property
    def dim(self) -> int:
        return self.base.dim + self.rank - 1

    def __repr__(self) -> str:
        return f"P({self.bundle!r} over {self.base!r})"


Space = Grassmannian | ProjBundle


def bottom_grassmannian(space: Space) -> Grassmannian:
    """The Grassmannian at the bottom of a tower; its n is the number of
    torus weights the space needs."""
    while isinstance(space, ProjBundle):
        space = space.base
    if not isinstance(space, Grassmannian):
        raise InvalidBundleError(f"no underlying Grassmannian in {space!r}")
    return space
