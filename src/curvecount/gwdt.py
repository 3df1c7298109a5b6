"""Genus-zero invariant tables and the multiple-cover combinatorics that
relates them.

Two labeled tables over positive curve degrees are supported, GW and DT.
They determine each other degree by degree:

    GW(m) = sum over k | m of DT(m/k) / k^2
    DT(m) = sum over k | m of moebius(k) * GW(m/k) / k^2

The k-th summand is the multiple-cover contribution of degree-(m/k) curves:
a k-fold cover carries the Aspinwall-Morrison factor 1/k^3, and the k
incidence choices on the cover bring it up to 1/k^2.

`am_localization_verify` recomputes the 1/d^3 factor from scratch: it
enumerates the torus-fixed loci of the space of degree-d genus-zero maps to
a line with two fixed points, and sums the Euler class of the rank-2(d-1)
obstruction with fiber H^1 of the pullback of O(-1) + O(-1).  Each fixed
locus is a tree whose vertices sit over the two fixed points and whose edges
are covers of the line.  The trees are enumerated as labelled trees weighted
1/V! (V vertices), from Pruefer codes, the two colorings of each tree and
the splits of d into edge degrees; the standard vertex, edge and node
factors are assembled with exact rational arithmetic.  The sum is
weight-independent, which the tests check across several weight choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, isqrt, prod
from typing import Iterator, Mapping, NamedTuple

from .bott import weight_search


class MissingDivisorError(ValueError):
    """A table lookup needs a divisor degree that is not present."""


@dataclass(frozen=True)
class InvariantTable:
    """Curve-degree indexed invariants; label is "GW" or "DT"."""

    label: str
    values: Mapping[int, Fraction]

    def __post_init__(self):
        if self.label not in ("GW", "DT"):
            raise ValueError('label must be "GW" or "DT"')
        if any(not 1 <= d <= MAX_TABLE_DEGREE for d in self.values):
            raise ValueError(
                f"curve degrees must be integers from 1 to {MAX_TABLE_DEGREE}"
            )

    def __getitem__(self, degree: int) -> Fraction:
        if degree not in self.values:
            raise MissingDivisorError(f"{self.label} table has no degree {degree}")
        return Fraction(self.values[degree])


def _divisors(m: int) -> Iterator[int]:
    """The divisors of m in pairs (k, m // k), k <= sqrt(m), each pair
    yielded as it is found, so a sum that meets a missing degree stops
    there."""
    for k in range(1, isqrt(m) + 1):
        if m % k == 0:
            yield k
            if k * k != m:
                yield m // k


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
    return _cover_sum(dt, "GW", lambda k: 1)


def dt_from_gw(gw: InvariantTable) -> InvariantTable:
    """Inverts gw_from_dt by Moebius inversion over the divisor lattice."""
    if gw.label != "GW":
        raise ValueError("dt_from_gw wants a GW table")
    return _cover_sum(gw, "DT", moebius)


def _cover_sum(table: InvariantTable, label: str, weight) -> InvariantTable:
    """The `label` table of sums over k | m of weight(k) * table[m/k] / k^2."""
    values = {
        m: sum(
            (weight(k) * table[m // k] / Fraction(k * k) for k in _divisors(m)),
            Fraction(0),
        )
        for m in table.values
    }
    return InvariantTable(label, values)


def aspinwall_morrison_factor(d: int) -> Fraction:
    """Contribution of degree-d multiple covers of a rigid rational curve."""
    if d < 1:
        raise ValueError("cover degree must be positive")
    return Fraction(1, d**3)


# largest degree an InvariantTable accepts: the cover sums trial-divide up to
# the square root of a degree, about 0.4 s for a prime near 10^12 and 24 s
# near 10^16, and telling a large degree prime would need a primality test
MAX_TABLE_DEGREE = 10**12


# -- localization verification of the 1/d^3 factor -------------------------

# largest degree am_localization_verify accepts; the labelled fixed trees
# number 3810 at degree 5 and 49426 at degree 6, 13 times as many
MAX_COVER_DEGREE = 5


class FixedTree(NamedTuple):
    """A labelled torus-fixed tree: colors[v] is the target fixed point (0 or
    1) of vertex v, and edges are (vertex, vertex, cover degree)."""

    colors: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]


def _pruefer_trees(nverts: int):
    """The nverts^(nverts-2) labelled trees on range(nverts), each as its
    (child, parent) edges in Pruefer decoding order, rooted at nverts - 1."""
    for code in product(range(nverts), repeat=nverts - 2):
        valence = [1] * nverts
        for v in code:
            valence[v] += 1
        edges = []
        for parent in code:
            leaf = valence.index(1)
            edges.append((leaf, parent))
            valence[leaf] -= 1
            valence[parent] -= 1
        edges.append((valence.index(1), nverts - 1))
        yield edges


def _compositions(d: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to d."""
    for cuts in combinations(range(1, d), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, d)))


def fixed_trees(d: int) -> Iterator[FixedTree]:
    """Labelled torus-fixed loci of degree-d genus-zero maps to the line.

    Every tree on V = 2..d+1 vertices appears with both colorings, which
    give adjacent vertices opposite colors, and with every split of d into
    edge degrees; so an isomorphism class with automorphism group A appears
    V!/|A| times.
    """
    if not 1 <= d <= MAX_COVER_DEGREE:
        raise ValueError(
            f"localization verification covers degrees 1..{MAX_COVER_DEGREE}"
        )
    for nverts in range(2, d + 2):
        for links in _pruefer_trees(nverts):
            # each leaf is decoded before its parent, so walking the edges
            # backwards from the root colors every parent before its children
            colors = [0] * nverts
            for child, parent in reversed(links):
                colors[child] = 1 - colors[parent]
            for degrees in _compositions(d, nverts - 1):
                edges = tuple((u, v, de) for (u, v), de in zip(links, degrees))
                yield FixedTree(tuple(colors), edges)
                yield FixedTree(tuple(1 - c for c in colors), edges)


def _graph_contribution(tree: FixedTree, lam: tuple[int, int]) -> Fraction:
    """Contribution of one labelled fixed tree, weighted 1/V!.

    Every factor is an integer ratio; the Fraction is formed once, at the end.
    """
    colors, edges = tree
    num, den = 1, factorial(len(colors))
    flag_degrees: list[list[int]] = [[] for _ in colors]
    for u, v, de in edges:
        lu, lv = lam[colors[u]], lam[colors[v]]
        # the squared obstruction prod_k ((de-k) lu + k lv) / de, with the
        # lift of O(-1) whose fiber weight at fixed point i is lam_i, over
        # the normal bundle (-1)^de (de!)^2 (lu-lv)^(2 de) / de^(2 de) and
        # the de deck transformations
        ob = prod((de - k) * lu + k * lv for k in range(1, de))
        num *= (-1) ** de * de * ob**2
        den *= (factorial(de) * (lu - lv) ** de) ** 2
        flag_degrees[u].append(de)
        flag_degrees[v].append(de)
    for c, degrees in zip(colors, flag_degrees):
        # the n flags over fixed point c have degrees de_F and tangent
        # weights omega_F = tau/de_F, with tau the weight of the line at c.
        # For every n, the node smoothings and the contracted component
        # (prod 1/(omega_F - psi_F) over the moduli of n-pointed rational
        # curves) divide by prod omega_F * (sum 1/omega_F)^(3-n); with
        # tau^(n-1) from the target and lam_c^(2(n-1)) from the obstruction
        # this is lam_c^(2n-2) * prod de_F * tau^(2-n) * total^(n-3)
        n = len(degrees)
        tau, total = lam[1 - c] - lam[c], sum(degrees)
        num *= lam[c] ** (2 * n - 2) * prod(degrees) * tau**2 * total**n
        den *= tau**n * total**3
    return Fraction(num, den)


def am_localization_verify(d: int, seed: int = 0) -> Fraction:
    """Sum of all fixed-locus contributions for degree-d covers, 1 <= d <=
    MAX_COVER_DEGREE; equals 1/d^3 for any pair of distinct weights."""
    lam = weight_search(seed, 2)
    return sum((_graph_contribution(tree, lam) for tree in fixed_trees(d)), Fraction(0))
