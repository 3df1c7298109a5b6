"""Chow rings with exact coefficients.

This module holds the ring only; the spaces it is taken on are described in
`bundles`.  The ring of a Grassmannian Gr(k, n) is written in the Schubert
basis indexed by partitions in the k x (n-k) box.  The ring of a projective
bundle P(E) over a space holds towers (a_0, a_1, ...) standing for
sum_m zeta^m * pullback(a_m).

Conventions, pinned by the self-checks in the test suite:

- P(E) parametrizes rank-one subspaces of E; O(-1) is the tautological
  sub-line bundle and zeta = c1(O(1)).
- The defining relation is sum_{i=0}^{r} c_i(E) * zeta^(r-i) = 0, r = rank E.
- pushforward along P(E) -> base takes zeta^m to the Segre class
  s_(m-r+1)(E), with s(E) = 1/c(E) (Fulton, Intersection Theory, 3.1).
- On Gr(k, n): c_i(S) = (-1)^i sigma_{(1^i)} and c_i(Q) = sigma_{(i)}, so
  c(S)c(Q) = 1.

Schubert products use Littlewood-Richardson structure constants; partitions
leaving the box are dropped, which truncates every element at the dimension
of the space.  Elements are immutable once built and all operations are pure,
so values can be shared freely across threads.

A tower element keeps its zeta-power slots unreduced: a slot list of any
length, with trailing empty slots dropped.  A product drops each term whose
zeta powers, over all tower levels, add up to more than the dimension of
the tower, as such a term is zero; the box bounds the rest.  Products and
sums of products (`sum_of_products`) share one private multiply-accumulate:
each product c * x * y is the slot convolution of x and y, added into
mutable per-slot coefficient dicts at any tower depth, and no relation is
applied.  `integrate` and `pushforward` read sum_m s_(m-r+1)(E) * a_m, so
integration never needs the relation; over a Grassmannian the last step is
the pairing int sigma_lam * sigma_mu = [mu = lam^vee], with no product.  A
normal form, which `==`, `is_zero` and `repr` read through `reduce_tower`,
comes off the same series: the pushforwards of zeta^j * x, j < r, fix its r
slots by back-substitution, so the relation itself is never applied.

Coefficients are plain Python numbers: the ring arithmetic never divides, so
they stay `int` unless a caller scales by a `Fraction`, which the numeric
tower then carries along.  `integrate` and `coefficient`, the public results,
return a `Fraction` either way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import repeat
from math import comb

from . import symfunc
from .bundles import Grassmannian, ProjBundle, Space


class SpaceMismatchError(ValueError):
    """Operands live on different spaces."""


# a local import: chern builds on this module, so the dependency is
# deferred; chern caches the classes.  s_0..s_(r-1) are all present, zeros
# past the base dimension, for the normal form's back-substitution
def _segre_classes(space: ProjBundle):
    from .chern import segre_classes

    return segre_classes(space.bundle, space.base, max(space.base.dim, space.rank - 1))


class ChowElement:
    """An element of the Chow ring of `space`.

    On a Grassmannian, `data` is a dict mapping partitions to nonzero
    coefficients (`int`, or `Fraction` once a rational scalar enters).  On
    a projective bundle, `data` is a tuple of base elements, the unreduced
    zeta-power coefficients, with no trailing empty slot, so an element
    that stores no term has empty `data`; `reduce_tower` gives the normal
    form, at most rank E slots.  Treat instances as immutable.
    """

    __slots__ = ("space", "data")

    def __init__(self, space: Space, data):
        self.space = space
        if isinstance(space, Grassmannian):
            self.data = {
                lam: c for lam, c in dict(data).items() if c != 0
            }
        else:
            slots = list(data)
            for s in slots:
                if s.space != space.base:
                    raise SpaceMismatchError("tower slot lives on the wrong base")
            while slots and not slots[-1].data:
                slots.pop()
            self.data = tuple(slots)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        if isinstance(self.space, Grassmannian):
            return not self.data
        return not reduce_tower(self.space, self.data).data

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
        sum_j C(n, j) a^(n-j) y^j over the powers of y before the first empty
        one: y^j has degree at least j, and a product keeps at most the
        tower's dimension in zeta powers and the box's in Schubert degree.
        With a = 0 only y^n is left."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        one, a = unit(self.space), self._constant()
        y = self
        if a:
            y = sum_of_products(self.space, ((1, self, None), (-a, one, None)))
        powers = [one]
        while len(powers) <= n:
            power = powers[-1] * y
            if not power.data:  # so is every higher power
                break
            powers.append(power)
        if not a:
            return powers[n] if len(powers) > n else zero(self.space)
        return sum_of_products(
            self.space,
            [(comb(n, j) * a ** (n - j), y_j, None) for j, y_j in enumerate(powers)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChowElement) or self.space != other.space:
            return False
        if isinstance(self.space, Grassmannian):
            return self.data == other.data
        return (self - other).is_zero()

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
        slots = reduce_tower(self.space, self.data).data
        slots += (zero(self.space.base),) * (self.space.rank - len(slots))
        return "(" + ", ".join(repr(s) for s in slots) + ")"

    # -- helpers ---------------------------------------------------------

    def _constant(self) -> int | Fraction:
        """The degree-0 coefficient: on a tower, that of the zeta^0 slot."""
        x = self
        while not isinstance(x.space, Grassmannian):
            if not x.data:
                return 0
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
    into one set of per-slot coefficient dicts, and tower slots stay
    unreduced.
    """
    acc = _empty(space)
    for c, x, y in terms:
        if x.space != space or (y is not None and y.space != space):
            raise SpaceMismatchError("summand lives on a different space")
        if c and x.data and (y is None or y.data):
            _accumulate(acc, c, x, y, space.dim)
    return _element(space, acc)


def _empty(space: Space):
    # a Grassmannian accumulator is one dict; a tower accumulator is a list
    # of base accumulators, one per zeta power, grown on demand
    return {} if isinstance(space, Grassmannian) else []


def _accumulate(acc, c, x: ChowElement, y: ChowElement | None, top: int) -> None:
    """Add c * x * y (c * x when y is None) into the accumulator `acc`,
    keeping only the terms whose zeta powers, over all tower levels, add up
    to at most `top`."""
    space = x.space
    if isinstance(space, Grassmannian):
        if y is not None and len(y.data) == 1 and () in y.data:
            # a multiple of the unit: a zeta power's coefficient, or s_0
            c, y = c * y.data[()], None
        if y is None:
            for lam, a in x.data.items():
                acc[lam] = acc.get(lam, 0) + c * a
            return
        product, rows, cols = symfunc.schubert_product, space.rows, space.cols
        get = acc.get
        # a pair past the box is zero, so it is never looked up; the others
        # are looked up heavier factor first, the order the product's cache
        # keeps, so no pair makes a second entry
        size = rows * cols
        for lam, a in x.data.items():
            ca, wl = c * a, sum(lam)
            for mu, b in y.data.items():
                wm = sum(mu)
                if wl + wm > size:
                    continue
                ab = ca * b
                if wm < wl or (wm == wl and mu <= lam):
                    terms = product(lam, mu, rows, cols)
                else:
                    terms = product(mu, lam, rows, cols)
                for nu, k in terms:
                    acc[nu] = get(nu, 0) + ab * k
        return
    base = space.base
    ys = [(0, None)] if y is None else [(j, b) for j, b in enumerate(y.data) if b.data]
    for i, a in enumerate(x.data):
        if i > top:
            break
        if not a.data:
            continue
        for j, b in ys:
            if i + j > top:
                break
            while len(acc) <= i + j:
                acc.append(_empty(base))
            _accumulate(acc[i + j], c, a, b, top - i - j)


def _element(space: Space, acc) -> ChowElement:
    """The element an accumulator stands for, slots unreduced."""
    if isinstance(space, Grassmannian):
        return ChowElement(space, acc)
    return ChowElement(space, map(partial(_element, space.base), acc))


# two names for one body, so that a profile tells the Grassmannian and the
# tower products apart
def _gr_multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    return sum_of_products(x.space, ((1, x, y),))


def _tower_multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    return sum_of_products(x.space, ((1, x, y),))


def reduce_tower(space: ProjBundle, slots) -> ChowElement:
    """The normal form sum_{m<r} zeta^m b_m, r = rank E, of a list of
    zeta-power coefficients of any length.

    It is read off the pushforwards p_j = pi_*(zeta^j x) =
    sum_{t<=j} s_(j-t)(E) b_(r-1-t), j < r.  The system is unit-triangular
    (s_0 = 1), so b_(r-1-j) = p_j - sum_{t<j} s_(j-t)(E) b_(r-1-t).  The r
    slots left are normalized on the base, so every tower level keeps at
    most its rank of slots.  Normal-form input comes back unchanged, so the
    operation is idempotent.
    """
    base, r = space.base, space.rank
    slots = ChowElement(space, slots).data[: space.dim + 1]
    if len(slots) > r:
        ss, bs = _segre_classes(space), []  # bs[t] = b_(r-1-t)
        for j in range(r):
            # p_j = sum_k s_k a_(k+r-1-j), less the b found so far
            terms = [(1, s, a) for s, a in zip(ss, slots[r - 1 - j:])]
            terms += [(-1, ss[j - t], b) for t, b in enumerate(bs)]
            bs.append(sum_of_products(base, terms))
        slots = bs[::-1]
    if isinstance(base, ProjBundle):
        slots = [reduce_tower(base, s.data) for s in slots]
    return ChowElement(space, slots)


def unit(space: Space) -> ChowElement:
    if isinstance(space, Grassmannian):
        return ChowElement(space, {(): 1})
    return pullback(space, unit(space.base))


def zero(space: Space) -> ChowElement:
    return ChowElement(space, {} if isinstance(space, Grassmannian) else ())


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
    return ChowElement(space, (zero(space.base), unit(space.base)))


def pullback(space: ProjBundle, elt: ChowElement) -> ChowElement:
    """Pull a base element back to the projective bundle."""
    if not isinstance(space, ProjBundle):
        raise SpaceMismatchError("pullback target must be a projective bundle")
    if elt.space != space.base:
        raise SpaceMismatchError("element does not live on the base")
    return ChowElement(space, (elt,))


def pushforward(x: ChowElement) -> ChowElement:
    """Pushforward along P(E) -> base, sum_m s_(m-r+1)(E) * a_m; drops degree
    by rank(E) - 1."""
    if not isinstance(x.space, ProjBundle):
        raise SpaceMismatchError("pushforward needs a projective-bundle element")
    # the triples (1, s_k(E), a_(k+r-1))
    terms = zip(repeat(1), _segre_classes(x.space), x.data[x.space.rank - 1:])
    return sum_of_products(x.space.base, terms)


def integrate(x: ChowElement) -> Fraction:
    """Degree of the top-dimensional part of x; lower terms contribute zero.

    Over a Grassmannian base, the pushforward's products are only read at
    the top class, so each s_k(E) * a_m is the Poincare pairing of the two.
    """
    space = x.space
    if isinstance(space, Grassmannian):
        return Fraction(x.data.get((space.cols,) * space.rows, 0))
    if isinstance(space.base, ProjBundle):
        return integrate(pushforward(x))
    rows, cols, total = space.base.rows, space.base.cols, 0
    for s, a in zip(_segre_classes(space), x.data[space.rank - 1:]):
        for lam, c in s.data.items():
            total += c * a.data.get(symfunc.box_complement(lam, rows, cols), 0)
    return Fraction(total)
