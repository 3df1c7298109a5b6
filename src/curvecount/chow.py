"""Chow rings with exact coefficients.

This module holds the ring only; the spaces it is taken on are described in
`bundles`.  The ring of a Grassmannian Gr(k, n) is written in the Schubert
basis indexed by partitions in the k x (n-k) box.  The ring of a projective
bundle P(E) over a space holds towers (a_0, ..., a_{r-1}) standing for
sum_i zeta^i * pullback(a_i) with r = rank E.

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

Products and sums of products (`sum_of_products`) share one private
multiply-accumulate: each product c * x * y is added, unreduced, into
mutable per-slot coefficient dicts, at any tower depth, and the tower
relation is applied once, to the finished sum.  A product is the sum of one
term, and `reduce_tower` is the sum of its slots.

Coefficients are plain Python numbers: the ring arithmetic never divides, so
they stay `int` unless a caller scales by a `Fraction`, which the numeric
tower then carries along.  `integrate` and `coefficient`, the public results,
return a `Fraction` either way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from . import symfunc
from .bundles import Grassmannian, ProjBundle, Space
from .symfunc import Partition


class SpaceMismatchError(ValueError):
    """Operands live on different spaces."""


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

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "ChowElement") -> "ChowElement":
        self._check_same_space(other)
        return sum_of_products(self.space, ((1, self, None), (1, other, None)))

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
        """self^n by the binomial theorem.  self = a + y, with a its degree-0
        coefficient and y of positive degree, hence nilpotent, so self^n is
        sum_j C(n, j) a^(n-j) y^j over the powers of y before the first zero
        one; with a = 0 only y^n is left."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        one, a = unit(self.space), self._constant()
        y = self
        if a:
            y = sum_of_products(self.space, ((1, self, None), (-a, one, None)))
        powers = [one]
        while len(powers) <= n:
            power = powers[-1] * y
            if power.is_zero():  # so is every higher power
                break
            powers.append(power)
        if not a:
            return powers[n] if len(powers) > n else zero(self.space)
        return sum_of_products(
            self.space,
            [(comb(n, j) * a ** (n - j), y_j, None) for j, y_j in enumerate(powers)],
        )

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

    def _constant(self) -> int | Fraction:
        """The degree-0 coefficient: on a tower, that of the zeta^0 slot."""
        x = self
        while not isinstance(x.space, Grassmannian):
            x = x.data[0]
        return x.data.get((), 0)

    def _scale(self, c: int | Fraction) -> "ChowElement":
        return sum_of_products(self.space, ((c, self, None),))

    def _check_same_space(self, other: "ChowElement") -> None:
        if not isinstance(other, ChowElement) or self.space != other.space:
            raise SpaceMismatchError(
                f"operands live on different spaces: {self.space!r} vs "
                f"{getattr(other, 'space', None)!r}"
            )


def sum_of_products(space: Space, terms) -> ChowElement:
    """The sum of c * x * y over the triples (c, x, y) of `terms`.

    `y` may be None, which stands for the unit.  Every product accumulates
    unreduced into one set of per-slot coefficient dicts, and the tower
    relation is applied once, to the finished sum.
    """
    acc = _empty(space)
    for c, x, y in terms:
        if x.space != space or (y is not None and y.space != space):
            raise SpaceMismatchError("summand lives on a different space")
        if c and not x.is_zero() and (y is None or not y.is_zero()):
            _accumulate(acc, c, x, y)
    return _normalize(space, acc)


def _empty(space: Space):
    # a Grassmannian accumulator is one dict; a tower accumulator is a list
    # of base accumulators, one per zeta power, grown on demand
    return {} if isinstance(space, Grassmannian) else []


def _accumulate(acc, c, x: ChowElement, y: ChowElement | None) -> None:
    """Add c * x * y (c * x when y is None) into the accumulator `acc`."""
    space = x.space
    if isinstance(space, Grassmannian):
        if y is None:
            for lam, a in x.data.items():
                acc[lam] = acc.get(lam, 0) + c * a
            return
        product, rows, cols = symfunc.schubert_product, space.rows, space.cols
        get = acc.get
        for lam, a in x.data.items():
            ca = c * a
            for mu, b in y.data.items():
                ab = ca * b
                for nu, k in product(lam, mu, rows, cols):
                    acc[nu] = get(nu, 0) + ab * k
        return
    base = space.base
    ys = [(0, None)] if y is None else [
        (j, b) for j, b in enumerate(y.data) if not b.is_zero()
    ]
    for i, a in enumerate(x.data):
        if a.is_zero():
            continue
        for j, b in ys:
            while len(acc) <= i + j:
                acc.append(_empty(base))
            _accumulate(acc[i + j], c, a, b)


def _normalize(space: Space, acc) -> ChowElement:
    """The element an accumulator stands for, in normal form.

    On a tower, zeta^m with m >= r = rank E is eliminated from the top down
    with the defining relation zeta^r = -sum_{i=1}^{r} c_i(E) zeta^(r-i),
    each top slot normalized once before it is folded into the slots below.
    """
    if isinstance(space, Grassmannian):
        return ChowElement(space, acc)
    base, r = space.base, space.rank
    if len(acc) > r:
        cs = _relation_classes(space)
        for m in range(len(acc) - 1, r - 1, -1):
            top = _normalize(base, acc[m])
            if top.is_zero():
                continue
            for i in range(1, r + 1):
                if not cs[i].is_zero():
                    _accumulate(acc[m - i], -1, cs[i], top)
    slots = [_normalize(base, a) for a in acc[:r]]
    slots.extend(zero(base) for _ in range(r - len(slots)))
    return ChowElement(space, slots)


# two names for one body, so that a profile tells the Grassmannian and the
# tower products apart
def _gr_multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    return sum_of_products(x.space, ((1, x, y),))


def _tower_multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    return sum_of_products(x.space, ((1, x, y),))


def reduce_tower(space: ProjBundle, slots) -> ChowElement:
    """Normalize a list of zeta-power coefficients of any length.

    Powers zeta^m with m >= r are eliminated with the defining relation
    zeta^r = -sum_{i=1}^{r} c_i(E) zeta^(r-i).  Normal-form input comes back
    unchanged, so the operation is idempotent.
    """
    acc = []
    for s in slots:
        if s.space != space.base:
            raise SpaceMismatchError("tower slot lives on the wrong base")
        acc.append(_empty(space.base))
        _accumulate(acc[-1], 1, s, None)
    return _normalize(space, acc)


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
