"""Inputs of the benchmark workloads, with the values they must produce.

This module does not import curvecount: the driver builds every input here
and hands the program only the generated problems or integrand text.

Reference values come from two sources.  "classical" values are the
published counts (27 lines on the cubic surface, 2875 lines and 609250
conics on the quintic threefold, the sextic-fourfold incidence counts
60480 and 440884080).  "pinned" values are what both engines returned at
the commit that introduced this benchmark; conics on P^10 were also
confirmed once by the symbolic engine, which takes 16 to 25 s for that
rung and so is not run on every pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class Problem:
    """A `curvecount count` problem: curves of `curve_degree` on a generic
    degree-`degree` hypersurface in P^`ambient`, meeting a codimension
    `incidence` plane when `incidence` is 2."""

    ambient: int
    degree: int
    curve_degree: int
    incidence: int
    reference: int
    source: str

    def args(self) -> list[int]:
        return [self.ambient, self.degree, self.curve_degree, self.incidence]


# Lines on degree-(2n-3) hypersurfaces in P^n for n = 3..20.
_LINE_COUNTS = {
    3: (27, "classical"),
    4: (2875, "classical"),
    5: (698005, "classical"),
    6: (305093061, "classical"),
    7: (210480374951, "classical"),
    8: (210776836330775, "pinned"),
    9: (289139638632755625, "pinned"),
    10: (520764738758073845321, "pinned"),
    11: (1192221463356102320754899, "pinned"),
    12: (3381929766320534635615064019, "pinned"),
    13: (11643962664020516264785825991165, "pinned"),
    14: (47837786502063195088311032392578125, "pinned"),
    15: (231191601420598135249236900564098773215, "pinned"),
    16: (1298451577201796592589999161795264143531439, "pinned"),
    17: (8386626029512440725571736265773047172289922129, "pinned"),
    18: (61730844370508487817798328189038923397181280384657, "pinned"),
    19: (513687287764790207960329434065844597978401438841796875, "pinned"),
    20: (4798492409653834563672780605191070760393640761817269985515, "pinned"),
}

COUNT_LADDER: tuple[Problem, ...] = tuple(
    Problem(n, 2 * n - 3, 1, 0, value, source)
    for n, (value, source) in _LINE_COUNTS.items()
) + (
    Problem(4, 5, 2, 0, 609250, "classical"),
    Problem(5, 6, 1, 2, 60480, "classical"),
    Problem(5, 6, 2, 2, 440884080, "classical"),
    Problem(6, 8, 2, 0, 21553784182784, "pinned"),
    Problem(8, 11, 2, 0, 6879170927773883986896, "pinned"),
)

BOTT_LADDER: tuple[Problem, ...] = (
    Problem(10, 14, 2, 0, 10747520834813687952698384377664, "pinned, symbolic-confirmed"),
    Problem(12, 17, 2, 0, 59021903191837569868255555729696380344336, "pinned"),
    Problem(14, 20, 2, 0, 920032265690180037500975652055655958465040384000000, "pinned"),
)

# Run once before measuring, so that byte-code compilation and the first
# cold start of a checkout do not land in any measured pass.
WARMUP = Problem(4, 5, 2, 0, 609250, "classical")


# -- integrate-sweep ---------------------------------------------------------

SWEEP_SIZE = 600

_CONIC_FIBRE = "sym(2,dual(S))"


@dataclass(frozen=True)
class SweepSpace:
    """A space of the sweep: the bottom Grassmannian Gr(k, n), optionally
    with the conics-in-a-plane bundle P(Sym^2 S*) on top."""

    k: int
    n: int
    conic_bundle: bool = False
    # Sym^2 Q on Gr(2,8) is left out: its cold Chern classes alone take
    # about 2.6 s, which would swamp the warm-cache measurement.
    sym2_quotient: bool = True

    @property
    def text(self) -> str:
        base = f"gr({self.k},{self.n})"
        return f"pbundle({_CONIC_FIBRE},{base})" if self.conic_bundle else base

    @property
    def dim(self) -> int:
        base = self.k * (self.n - self.k)
        return base + comb(self.k + 1, 2) - 1 if self.conic_bundle else base

    def atoms(self) -> list[tuple[str, int | None]]:
        """(template, rank) pairs; rank None marks a degree-one class."""
        q, s = self.n - self.k, self.k
        out: list[tuple[str, int | None]] = [
            ("s[1]", None),
            ("c({i},Q)", q),
            ("c({i},dual(S))", s),
            ("c({i},sym(3,dual(S)))", comb(s + 2, 3)),
        ]
        if self.sym2_quotient:
            out.append(("c({i},sym(2,Q))", comb(q + 1, 2)))
        if self.conic_bundle:
            out += [
                ("zeta", None),
                ("c({i},tensor(dual(S),o(1)))", s),
                ("c({i},tensor(Q,o(-1)))", q),
            ]
        return out


SWEEP_SPACES: tuple[SweepSpace, ...] = (
    SweepSpace(2, 6),
    SweepSpace(2, 7),
    SweepSpace(2, 8, sym2_quotient=False),
    SweepSpace(3, 6),
    SweepSpace(3, 7),
    SweepSpace(3, 6, conic_bundle=True),
)


def sweep_integrands(seed: int, size: int = SWEEP_SIZE) -> list[tuple[str, str]]:
    """`size` (space, integrand) texts drawn from `seed`.

    Spaces take turns and the number of distinct atoms cycles through 2, 3
    and 4, so the cost of a sweep depends little on the seed.  Each
    integrand is a product of powers of atoms whose degrees add up to the
    dimension of its space, so both engines return its exact degree.
    """
    rng = random.Random(seed)
    out = []
    for idx in range(size):
        space = SWEEP_SPACES[idx % len(SWEEP_SPACES)]
        m = 2 + (idx // len(SWEEP_SPACES)) % 3
        cuts = sorted(rng.sample(range(1, space.dim), m - 1))
        shares = [b - a for a, b in zip([0, *cuts], [*cuts, space.dim])]
        factors = []
        for (template, rank), share in zip(rng.sample(space.atoms(), m), shares):
            if rank is None:
                atom, power = template, share
            else:
                index = rng.choice(
                    [i for i in range(1, min(rank, share) + 1) if share % i == 0]
                )
                atom, power = template.format(i=index), share // index
            factors.append(atom if power == 1 else f"{atom}^{power}")
        out.append((space.text, "*".join(factors)))
    return out
