"""Chow rings with exact coefficients.

Two kinds of spaces are supported: Grassmannians Gr(k, n), whose ring is
written in the Schubert basis indexed by partitions in the k x (n-k) box, and
projective bundles P(E) over a supported space, whose elements are towers
(a_0, ..., a_{r-1}) standing for sum_i zeta^i * pullback(a_i) with r = rank E.

Conventions, pinned by the self-checks in the test suite:

- P(E) parametrizes rank-one subspaces of E; O(-1) is the tautological
  sub-line bundle and zeta = c1(O(1)).
- The defining relation is sum_{i=0}^{r} c_i(E) * zeta^(r-i) = 0.
- pushforward along P(E) -> base reads off the zeta^(r-1) slot, matching the
  Segre normalization s(E) = 1/c(E).
- On Gr(k, n): c_i(S) = (-1)^i sigma_{(1^i)} and c_i(Q) = sigma_{(i)}, so
  c(S)c(Q) = 1.

Schubert products use Littlewood-Richardson structure constants; partitions
leaving the box are dropped, which truncates every element at the dimension
of the space.  Elements are immutable once built and all operations are pure,
so values can be shared freely across threads.

Coefficients are plain Python numbers: the ring arithmetic never divides, so
they stay `int` unless a caller scales by a `Fraction`, which the numeric
tower then carries along.  `integrate` and `coefficient`, the public results,
return a `Fraction` either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import bundles, symfunc
from .symfunc import Partition


class SpaceMismatchError(ValueError):
    """Operands live on different spaces."""


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
    bundle: "bundles.BundleExpr"

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("projectivized bundle must have positive rank")

    # computed once per instance and kept out of equality, hash and repr,
    # which read only the dataclass fields
    @cached_property
    def rank(self) -> int:
        return bundles.rank(self.bundle, self.base)

    @property
    def dim(self) -> int:
        return self.base.dim + self.rank - 1

    def __repr__(self) -> str:
        return f"P({self.bundle!r} over {self.base!r})"


Space = Grassmannian | ProjBundle


def grassmannian(k: int, n: int) -> Grassmannian:
    """The Chow-ring descriptor of Gr(k, n); rejects invalid (k, n)."""
    return Grassmannian(k, n)


@lru_cache(maxsize=None)
def _relation_classes(space: ProjBundle):
    # local import: chern builds on this module, so the dependency is deferred
    from .chern import chern_classes

    return chern_classes(space.bundle, space.base)


class ChowElement:
    """An element of the Chow ring of `space`.

    On a Grassmannian, `data` is a dict mapping partitions to nonzero
    coefficients (`int`, or `Fraction` once a rational scalar enters).  On
    a projective bundle of rank r, `data` is a tuple of exactly r base
    elements, the zeta-power coefficients.  Treat instances as immutable.
    """

    __slots__ = ("space", "data")

    def __init__(self, space: Space, data):
        self.space = space
        if isinstance(space, Grassmannian):
            self.data = {
                lam: c for lam, c in dict(data).items() if c != 0
            }
        else:
            slots = tuple(data)
            if len(slots) != space.rank:
                raise ValueError(
                    f"tower needs exactly {space.rank} slots, got {len(slots)}"
                )
            for s in slots:
                if s.space != space.base:
                    raise SpaceMismatchError("tower slot lives on the wrong base")
            self.data = slots

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        if isinstance(self.space, Grassmannian):
            return not self.data
        return all(s.is_zero() for s in self.data)

    def coefficient(self, lam) -> Fraction:
        """Schubert coefficient (Grassmannian elements only)."""
        if not isinstance(self.space, Grassmannian):
            raise SpaceMismatchError("coefficient() needs a Grassmannian element")
        return Fraction(self.data.get(symfunc.partition(lam), 0))

    def degree_part(self, d: int) -> "ChowElement":
        if isinstance(self.space, Grassmannian):
            return ChowElement(
                self.space,
                {lam: c for lam, c in self.data.items() if symfunc.weight(lam) == d},
            )
        return ChowElement(
            self.space, tuple(s.degree_part(d - i) for i, s in enumerate(self.data))
        )

    def degrees(self) -> set[int]:
        """Degrees with a nonzero component."""
        if isinstance(self.space, Grassmannian):
            return {symfunc.weight(lam) for lam in self.data}
        out: set[int] = set()
        for i, s in enumerate(self.data):
            out |= {i + d for d in s.degrees()}
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "ChowElement") -> "ChowElement":
        self._check_same_space(other)
        if isinstance(self.space, Grassmannian):
            merged = dict(self.data)
            for lam, c in other.data.items():
                merged[lam] = merged.get(lam, 0) + c
            return ChowElement(self.space, merged)
        return ChowElement(
            self.space, tuple(a + b for a, b in zip(self.data, other.data))
        )

    def __neg__(self) -> "ChowElement":
        return self._scale(-1)

    def __sub__(self, other: "ChowElement") -> "ChowElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ChowElement):
            self._check_same_space(other)
            if isinstance(self.space, Grassmannian):
                return _gr_multiply(self, other)
            return _tower_multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "ChowElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = unit(self.space)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowElement)
            and self.space == other.space
            and self.data == other.data
        )

    def __repr__(self) -> str:
        if isinstance(self.space, Grassmannian):
            if not self.data:
                return "0"
            bits = []
            for lam in sorted(self.data, key=lambda p: (symfunc.weight(p), p)):
                c = self.data[lam]
                name = "s" + str(list(lam)) if lam else "1"
                bits.append(f"{c}*{name}")
            return " + ".join(bits)
        return "(" + ", ".join(repr(s) for s in self.data) + ")"

    # -- helpers ---------------------------------------------------------

    def _scale(self, c: int | Fraction) -> "ChowElement":
        if isinstance(self.space, Grassmannian):
            return ChowElement(
                self.space, {lam: v * c for lam, v in self.data.items()}
            )
        return ChowElement(self.space, tuple(s._scale(c) for s in self.data))

    def _check_same_space(self, other: "ChowElement") -> None:
        if not isinstance(other, ChowElement) or self.space != other.space:
            raise SpaceMismatchError(
                f"operands live on different spaces: {self.space!r} vs "
                f"{getattr(other, 'space', None)!r}"
            )


def _gr_multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    space = x.space
    out: dict[Partition, int | Fraction] = {}
    for lam, a in x.data.items():
        for mu, b in y.data.items():
            ab = a * b
            for nu, c in symfunc.schubert_product(lam, mu, space.rows, space.cols):
                out[nu] = out.get(nu, 0) + ab * c
    return ChowElement(space, out)


def _tower_multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    space = x.space
    r = space.rank
    raw = [zero(space.base) for _ in range(2 * r - 1)]
    for i, a in enumerate(x.data):
        if a.is_zero():
            continue
        for j, b in enumerate(y.data):
            if b.is_zero():
                continue
            raw[i + j] = raw[i + j] + a * b
    return reduce_tower(space, raw)


def reduce_tower(space: ProjBundle, slots) -> ChowElement:
    """Normalize a list of zeta-power coefficients of any length.

    Powers zeta^m with m >= r are eliminated with the defining relation
    zeta^r = -sum_{i=1}^{r} c_i(E) zeta^(r-i).  Normal-form input comes back
    unchanged, so the operation is idempotent.
    """
    slots = list(slots)
    for s in slots:
        if s.space != space.base:
            raise SpaceMismatchError("tower slot lives on the wrong base")
    r = space.rank
    cs = _relation_classes(space)
    while len(slots) > r:
        top = slots.pop()
        m = len(slots)
        if top.is_zero():
            continue
        for i in range(1, r + 1):
            slots[m - i] = slots[m - i] - cs[i] * top
    while len(slots) < r:
        slots.append(zero(space.base))
    return ChowElement(space, tuple(slots))


def unit(space: Space) -> ChowElement:
    if isinstance(space, Grassmannian):
        return ChowElement(space, {(): 1})
    return pullback(space, unit(space.base))


def zero(space: Space) -> ChowElement:
    if isinstance(space, Grassmannian):
        return ChowElement(space, {})
    return ChowElement(space, tuple(zero(space.base) for _ in range(space.rank)))


def sigma(space: Space, lam) -> ChowElement:
    """The Schubert class of the bottom Grassmannian, pulled back to `space`.

    Partitions outside the tautological box give the zero class.
    """
    lam = symfunc.partition(lam)
    if isinstance(space, Grassmannian):
        if not symfunc.fits_box(lam, space.rows, space.cols):
            return zero(space)
        return ChowElement(space, {lam: 1})
    return pullback(space, sigma(space.base, lam))


def zeta(space: ProjBundle) -> ChowElement:
    """c1(O(1)) of the top projective bundle."""
    if not isinstance(space, ProjBundle):
        raise SpaceMismatchError("zeta needs a projective bundle")
    return reduce_tower(space, [zero(space.base), unit(space.base)])


def pullback(space: ProjBundle, elt: ChowElement) -> ChowElement:
    """Pull a base element back to the projective bundle."""
    if not isinstance(space, ProjBundle):
        raise SpaceMismatchError("pullback target must be a projective bundle")
    if elt.space != space.base:
        raise SpaceMismatchError("element does not live on the base")
    rest = (zero(space.base) for _ in range(space.rank - 1))
    return ChowElement(space, (elt, *rest))


def pushforward(x: ChowElement) -> ChowElement:
    """Pushforward along P(E) -> base; drops degree by rank(E) - 1."""
    if not isinstance(x.space, ProjBundle):
        raise SpaceMismatchError("pushforward needs a projective-bundle element")
    return x.data[x.space.rank - 1]


def integrate(x: ChowElement) -> Fraction:
    """Degree of the top-dimensional part of x; lower terms contribute zero."""
    if isinstance(x.space, Grassmannian):
        top = (x.space.cols,) * x.space.rows
        return Fraction(x.data.get(top, 0))
    return integrate(pushforward(x))


def basis(space: Grassmannian) -> tuple[Partition, ...]:
    """Schubert-basis partitions of a Grassmannian, sorted by weight."""
    if not isinstance(space, Grassmannian):
        raise SpaceMismatchError("basis() needs a Grassmannian")
    return symfunc.enumerate_partitions(space.rows, space.cols)
