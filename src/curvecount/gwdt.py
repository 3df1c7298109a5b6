"""Genus-zero invariant tables and the multiple-cover combinatorics that
relates them.

Two labeled tables over positive curve degrees are supported, GW and DT.
They determine each other degree by degree:

    GW(m) = sum over k | m of DT(m/k) / k^2
    DT(m) = sum over k | m of moebius(k) * GW(m/k) / k^2

The k-th summand is the multiple-cover contribution of degree-(m/k) curves:
a k-fold cover carries the Aspinwall-Morrison factor 1/k^3, and the k
incidence choices on the cover bring it up to 1/k^2.

`am_localization_verify` recomputes the 1/d^3 factor from scratch for
d <= 3: it enumerates the torus-fixed loci of the space of degree-d
genus-zero maps to a line with two fixed points, and sums the Euler class
of the rank-2(d-1) obstruction with fiber H^1 of the pullback of
O(-1) + O(-1).  Each fixed locus is a tree whose vertices sit over the two
fixed points and whose edges are covers of the line; the standard vertex,
edge, node, and automorphism factors are assembled below with exact
rational arithmetic.  The sum is weight-independent, which the tests check
across several weight choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .bott import weight_search


class MissingDivisorError(KeyError):
    """A table lookup needs a divisor degree that is not present."""

    def __str__(self) -> str:
        # KeyError would print the message with its repr quotes
        return str(self.args[0])


@dataclass(frozen=True)
class InvariantTable:
    """Curve-degree indexed invariants; label is "GW" or "DT"."""

    label: str
    values: Mapping[int, Fraction]

    def __post_init__(self):
        if self.label not in ("GW", "DT"):
            raise ValueError('label must be "GW" or "DT"')
        if any(d < 1 for d in self.values):
            raise ValueError("curve degrees must be positive integers")

    def __getitem__(self, degree: int) -> Fraction:
        if degree not in self.values:
            raise MissingDivisorError(
                f"{self.label} table has no degree {degree}"
            )
        return Fraction(self.values[degree])


def _divisors(m: int) -> list[int]:
    return [k for k in range(1, m + 1) if m % k == 0]


def moebius(n: int) -> int:
    """Moebius function by trial factorization."""
    if n < 1:
        raise ValueError("moebius needs a positive integer")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def gw_from_dt(dt: InvariantTable) -> InvariantTable:
    """GW table on the same degrees; needs DT at every divisor."""
    if dt.label != "DT":
        raise ValueError("gw_from_dt wants a DT table")
    values = {}
    for m in dt.values:
        values[m] = sum(
            (dt[m // k] / Fraction(k * k) for k in _divisors(m)), Fraction(0)
        )
    return InvariantTable("GW", values)


def dt_from_gw(gw: InvariantTable) -> InvariantTable:
    """Inverts gw_from_dt by Moebius inversion over the divisor lattice."""
    if gw.label != "GW":
        raise ValueError("dt_from_gw wants a GW table")
    values = {}
    for m in gw.values:
        values[m] = sum(
            (moebius(k) * gw[m // k] / Fraction(k * k) for k in _divisors(m)),
            Fraction(0),
        )
    return InvariantTable("DT", values)


def aspinwall_morrison_factor(d: int) -> Fraction:
    """Contribution of degree-d multiple covers of a rigid rational curve."""
    if d < 1:
        raise ValueError("cover degree must be positive")
    return Fraction(1, d**3)


# -- localization verification of the 1/d^3 factor -------------------------


@dataclass(frozen=True)
class CoverGraph:
    """A torus-fixed stratum of degree-d genus-zero maps to the line.

    colors[v] is the target fixed point (0 or 1) of vertex v; edges are
    (vertex, vertex, cover degree) with adjacent vertices of opposite
    colors; aut is the order of the color- and degree-preserving graph
    automorphism group (edge deck transformations are accounted separately).
    """

    colors: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    aut: int


def cover_graphs(d: int) -> list[CoverGraph]:
    """All fixed-point graphs for degree d <= 3, both colorings included."""
    if d == 1:
        return [CoverGraph((0, 1), ((0, 1, 1),), 1)]
    if d == 2:
        return [
            CoverGraph((0, 1), ((0, 1, 2),), 1),
            CoverGraph((0, 1, 0), ((0, 1, 1), (1, 2, 1)), 2),
            CoverGraph((1, 0, 1), ((0, 1, 1), (1, 2, 1)), 2),
        ]
    if d == 3:
        return [
            CoverGraph((0, 1), ((0, 1, 3),), 1),
            # middle vertex with a degree-1 and a degree-2 leg
            CoverGraph((0, 1, 0), ((0, 1, 1), (1, 2, 2)), 1),
            CoverGraph((1, 0, 1), ((0, 1, 1), (1, 2, 2)), 1),
            # chain of three degree-1 edges; reversing the chain swaps the
            # two alternating colorings, so there is a single class
            CoverGraph((0, 1, 0, 1), ((0, 1, 1), (1, 2, 1), (2, 3, 1)), 1),
            # star with three degree-1 edges
            CoverGraph((0, 1, 1, 1), ((0, 1, 1), (0, 2, 1), (0, 3, 1)), 6),
            CoverGraph((1, 0, 0, 0), ((0, 1, 1), (0, 2, 1), (0, 3, 1)), 6),
        ]
    raise ValueError("localization verification only covers degrees 1..3")


def _graph_contribution(g: CoverGraph, lam0: Fraction, lam1: Fraction) -> Fraction:
    lam = (Fraction(lam0), Fraction(lam1))
    nverts = len(g.colors)
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(nverts)]
    for u, v, de in g.edges:
        if g.colors[u] == g.colors[v]:
            raise ValueError("edge endpoints must map to different fixed points")
        incident[u].append((u, v, de))
        incident[v].append((v, u, de))

    def leg_weight(v: int, other: int, de: int) -> Fraction:
        # tangent weight of the edge component at its vertex-v end
        return (lam[g.colors[other]] - lam[g.colors[v]]) / de

    # obstruction: H^1 of the pullback of O(-1), using the natural lift
    # whose fiber weight at fixed point i is lam_i; squared for the two
    # line-bundle factors
    ob = Fraction(1)
    for u, v, de in g.edges:
        for k in range(1, de):
            ob *= ((de - k) * lam[g.colors[u]] + k * lam[g.colors[v]]) / de
    for v in range(nverts):
        ob *= lam[g.colors[v]] ** (len(incident[v]) - 1)

    # virtual normal bundle
    en = Fraction(1)
    for u, v, de in g.edges:
        diff = lam[g.colors[u]] - lam[g.colors[v]]
        en *= (
            (-1) ** de * factorial(de) ** 2 * diff ** (2 * de) / Fraction(de ** (2 * de))
        )
    for v in range(nverts):
        n = len(incident[v])
        tau = lam[1 - g.colors[v]] - lam[g.colors[v]]
        legs = [leg_weight(v, other, de) for _v, other, de in incident[v]]
        en /= tau ** (n - 1)
        if n == 1:
            en /= legs[0]
        elif n == 2:
            en *= legs[0] + legs[1]
        else:
            # contracted component: integrate prod 1/(t - psi) over the
            # moduli of n-pointed rational curves
            psi_sum = sum((Fraction(1) / t for t in legs), Fraction(0))
            prod_t = Fraction(1)
            for t in legs:
                prod_t *= t
            en *= prod_t / psi_sum ** (n - 3)

    deck = 1
    for _u, _v, de in g.edges:
        deck *= de
    return ob * ob / en / (g.aut * deck)


def am_localization_verify(d: int, seed: int = 0) -> Fraction:
    """Sum of all fixed-locus contributions for degree-d covers; equals
    1/d^3 for any pair of distinct weights."""
    w0, w1 = weight_search(seed, 2)
    total = Fraction(0)
    for g in cover_graphs(d):
        total += _graph_contribution(g, Fraction(w0), Fraction(w1))
    return total
