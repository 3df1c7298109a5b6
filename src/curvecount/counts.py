"""Counting lines and conics on generic projective hypersurfaces.

A degree-d hypersurface in P^n is cut by a section of Sym^d of the dual
tautological bundle on the relevant parameter space.  Each curve family is
one entry of `FAMILIES`, keyed by curve degree:

- lines: Gr(2, n+1), obstruction bundle Sym^d(S*);
- conics: the P(Sym^2 S*) bundle over Gr(3, n+1), whose points are a plane
  together with a conic in it, with obstruction bundle
  Sym^d(S*) / (O(-1) ox Sym^(d-2)(S*)) of rank 2d + 1.

A `HypersurfaceProblem` reads its moduli space, obstruction and integrand
off its family.  The count is the integral of the Euler class of the
obstruction bundle, optionally cut down by the class of curves meeting a
fixed codimension-k linear subspace.  That class is derived, with no ring
arithmetic, from the family's universal curve [C] in P(S) over the moduli:
[C] * h^k pushed down by the projection formula, as an expression tree that
both engines integrate and neither built.  The acceptance checks compare it
with the same pushforward taken in the Chow ring.

Counts are computed by the symbolic Schubert backend or by fixed-point
localization; the two share no arithmetic, and the test suite insists they
agree.  No correction is applied along the locus of degenerate conics (line
pairs and double lines); the dimension ledger states this assumption
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from . import bott, bundles, chern, chow, gwdt
from . import expr as ex
from .bundles import (
    Dual,
    Grassmannian,
    ProjBundle,
    RelO,
    Space,
    Sym,
    TautQuot,
    TautSub,
    TensorLine,
    WhitneyQuotient,
)
from .chow import ChowElement


class DegreeMismatchError(ValueError):
    """Integrand degree does not match the parameter-space dimension."""


class CurveFamily(NamedTuple):
    """The geometry of one kind of rational curve in P^n."""

    name: str  # as the command line spells it
    space: Callable[[int], Space]  # the moduli of the curves in P^n, from n
    obstruction: Callable[[int], bundles.BundleExpr]  # sections of O(d) on a curve
    # the universal curve [C] in P(S) over the moduli, as the terms (c, a, b)
    # of sum c * zeta_M^a * h^b, where zeta_M is the relative hyperplane class
    # of the moduli and h the hyperplane class of the point
    curve: tuple[tuple[int, int, int], ...]


FAMILIES = {
    1: CurveFamily(
        "lines",
        lambda n: Grassmannian(2, n + 1),
        lambda d: Sym(d, Dual(TautSub())),
        # the universal line is all of P(S)
        ((1, 0, 0),),
    ),
    2: CurveFamily(
        "conics",
        # a plane of P^n and a conic in it
        lambda n: ProjBundle(Grassmannian(3, n + 1), Sym(2, Dual(TautSub()))),
        # degree-d forms on the plane modulo the ideal of the conic
        lambda d: WhitneyQuotient(
            Sym(d, Dual(TautSub())),
            TensorLine(Sym(d - 2, Dual(TautSub())), RelO(-1)),
        ),
        # the zero locus of the conic's equation at the point, a section of
        # O_fiber(1) ox O_point(2)
        ((1, 1, 0), (2, 0, 1)),
    ),
}


@dataclass(frozen=True)
class HypersurfaceProblem:
    """A counting problem: degree-`degree` hypersurfaces in P^`ambient_dim`,
    rational curves of degree `curve_degree`, cut by a codimension
    `insertion_codim` linear space (0 means no incidence condition)."""

    ambient_dim: int
    degree: int
    curve_degree: int
    insertion_codim: int = 0

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ValueError("ambient projective space must have dimension >= 2")
        if self.curve_degree not in FAMILIES:
            raise ValueError("only lines and conics are supported")
        if not 0 <= self.insertion_codim <= self.ambient_dim:
            raise ValueError(
                f"insertion codimension must be between 0 and {self.ambient_dim}"
            )
        if self.curve_degree == 2 and self.degree < 2:
            raise ValueError("conic problems need hypersurface degree >= 2")
        if self.curve_degree == 2 and self.ambient_dim < 3:
            # conics are parametrized over the planes Gr(3, n+1), which needs n >= 3
            raise ValueError("conic problems need ambient dimension >= 3")
        if self.degree < 1:
            raise ValueError("hypersurface degree must be positive")

    @property
    def family(self) -> CurveFamily:
        return FAMILIES[self.curve_degree]

    @property
    def space(self) -> Space:
        return self.family.space(self.ambient_dim)

    @property
    def obstruction(self) -> bundles.BundleExpr:
        return self.family.obstruction(self.degree)

    @property
    def incidence(self) -> ex.ExprAst:
        """Class of the curves meeting a fixed codimension-k linear subspace,
        k = `insertion_codim`: [C] * h^k pushed down from P(S) by the
        projection formula pi_*(zeta_M^a * h^b) = zeta_M^a * sigma_(b-r+1),
        with r = rank S and sigma_(i) = s_i(S) the special Schubert class."""
        r = bundles.rank(TautSub(), self.space)
        terms = []
        for c, a, b in self.family.curve:
            i = b + self.insertion_codim - r + 1
            if i >= 0:  # sigma_(i) vanishes for i < 0
                f = [ex.rational(c)] * (c != 1) + [ex.Zeta()] * a
                f += [ex.Schubert((i,))] * (i > 0)
                terms.append(f[0] if len(f) == 1 else ex.Product(tuple(f)))
        return terms[0] if len(terms) == 1 else ex.Sum(tuple(terms))

    @property
    def integrand(self) -> ex.ExprAst:
        """e(obstruction), times the incidence class when there is an insertion."""
        euler = (ex.EulerClass(self.obstruction),)
        return ex.Product(euler + (self.incidence,) if self.insertion_codim else euler)


# the families' spaces and bundles under their own names, read by bench/child.py
line_space, line_obstruction = FAMILIES[1].space, FAMILIES[1].obstruction
conic_space, conic_obstruction = FAMILIES[2].space, FAMILIES[2].obstruction


# -- the universal curve, in the Chow ring ---------------------------------


def universal_curve_space(problem: HypersurfaceProblem) -> ProjBundle:
    """Points-on-curves ambient: the plane P(S) over the curve moduli."""
    return ProjBundle(problem.space, TautSub())


def universal_curve_class(problem: HypersurfaceProblem) -> ChowElement:
    """The family's universal-curve class [C] in the Chow ring of P(S)."""
    amb = universal_curve_space(problem)
    h = chow.zeta(amb)
    out = chow.zero(amb)
    for c, a, b in problem.family.curve:
        term = c * h**b
        if a:  # only a moduli that is itself a projective bundle has a zeta
            term = term * chow.pullback(amb, chow.zeta(amb.base)) ** a
        out = out + term
    return out


def incidence_from_universal_curve(problem: HypersurfaceProblem) -> ChowElement:
    """The incidence class pushed down in the Chow ring: [C] * h^k on P(S),
    k = `insertion_codim`, with h the hyperplane class of the point."""
    amb = universal_curve_space(problem)
    cls = universal_curve_class(problem) * chow.zeta(amb) ** problem.insertion_codim
    return chow.pushforward(cls)


# -- the counts ------------------------------------------------------------


BACKENDS = ("symbolic", "bott")


def integral(space: Space, integrand: ex.ExprAst, backend: str = "symbolic") -> Fraction:
    """The integral of `integrand` over `space` on one engine of `BACKENDS`:
    "symbolic" evaluates it in the Chow ring and reads off the top class,
    "bott" sums it over the torus-fixed points.

    An integrand whose degree exceeds the dimension of the space is refused
    with DegreeMismatchError before either engine runs: the symbolic engine
    would read 0 and the localization sum would depend on the weights.  One
    below the top degree integrates to 0 on both engines.
    """
    top = ex.degree(integrand, space)
    if top > space.dim:
        raise DegreeMismatchError(
            f"integrand degree {top} exceeds dim {space.dim} of {ex.format_expr(space)}"
        )
    if backend == "symbolic":
        return chow.integrate(ex.evaluate(integrand, space))
    if backend == "bott":
        return bott.bott_integrate(space, integrand)
    raise ValueError(f"unknown backend {backend!r}")


def count_curves(problem: HypersurfaceProblem, backend: str = "symbolic") -> Fraction:
    """Curves of the problem's family on a generic hypersurface, optionally
    meeting a codim-k linear subspace: the integral of `problem.integrand`,
    which must have exactly the top degree."""
    space, integrand = problem.space, problem.integrand
    total = ex.degree(integrand, space)
    if total != space.dim:
        raise DegreeMismatchError(
            f"integrand degree {total} does not match dim {space.dim} of "
            f"{ex.format_expr(space)}; deficit {space.dim - total}"
        )
    return integral(space, integrand, backend)


# count_curves for one family, read by bench/child.py and bench/tracing.py
def count_lines(problem: HypersurfaceProblem, backend: str = "symbolic") -> Fraction:
    """Lines on a generic hypersurface, optionally meeting a codim-k linear subspace."""
    if problem.curve_degree != 1:
        raise ValueError("count_lines needs a line problem")
    return count_curves(problem, backend)


def count_conics(problem: HypersurfaceProblem, backend: str = "symbolic") -> Fraction:
    """Plane conics on a generic hypersurface, optionally meeting a codim-k linear subspace."""
    if problem.curve_degree != 2:
        raise ValueError("count_conics needs a conic problem")
    return count_curves(problem, backend)


# -- checks ----------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One exact comparison; it passes when `got` equals `expected`."""

    name: str
    expected: object
    got: object

    @property
    def passed(self) -> bool:
        return self.expected == self.got


DEGENERATE_CONIC_ASSUMPTION = (
    "counts assume the Euler-class integral needs no excess-intersection "
    "correction along degenerate conics (line pairs and double lines)"
)


def dimension_ledger() -> list[Check]:
    """Consistency checks for the sextic-fourfold conic count, each computed
    from the problem record and compared against its expected value."""
    problem = HypersurfaceProblem(5, 6, 2, 2)
    n, hilb = problem.ambient_dim, problem.space
    sections = comb(n + problem.degree, problem.degree)
    restriction = problem.curve_degree * problem.degree + 1
    through_conic = sections - 1 - restriction
    double_lines = hilb.base.dim + FAMILIES[1].space(2).dim
    line_pairs = n + 2 * (n - 1)
    obstruction_rank = bundles.rank(problem.obstruction, hilb)
    return [
        # degree-6 monomials in six variables: h^0 of O(6) on P^5
        Check("sextic_sections", 462, sections),
        # projective dimension of the family of sextic fourfolds
        Check("sextic_moduli_dim", 461, sections - 1),
        # h^0 of O(6) restricted to a conic: Hilbert polynomial 2t+1 at t=6
        Check("conic_restriction", 13, restriction),
        # projective dimension of sextics containing a fixed conic
        Check("sextics_through_conic", 448, through_conic),
        # planes in P^5 (9) plus conics in a plane (5)
        Check("conic_moduli_dim", 14, hilb.dim),
        # pairs (conic, sextic containing it)
        Check("conic_incidence_dim", 462, hilb.dim + through_conic),
        # double lines: a plane (9) plus a line inside it (2)
        Check("double_line_locus_dim", 11, double_lines),
        # pairs (double line, sextic containing it); codim 3 in the incidence
        Check("double_line_incidence_dim", 459, double_lines + through_conic),
        # intersecting line pairs: a point of P^5 plus two lines through it
        Check("line_pair_locus_dim", 13, line_pairs),
        # pairs (line pair, sextic containing it); codim 1 in the incidence
        Check("line_pair_incidence_dim", 461, line_pairs + through_conic),
        # degree-6 forms on a plane modulo the conic ideal: 28 - 15
        Check("conic_obstruction_rank", 13, obstruction_rank),
        # expected dimension of the conics on a generic sextic fourfold
        Check("generic_conic_family_dim", 1, hilb.dim - obstruction_rank),
    ]


def acceptance_checks() -> list[Check]:
    """The paper's values and the classical counts it rests on, each
    recomputed and compared against its literal: every count on both
    engines, the GW/DT relation, the 1/d^3 cover factor at three weight
    seeds, the dimension ledger and the incidence, Whitney and duality
    identities.  `curvecount selftest` reports this list."""
    checks = [
        Check(f"{name} ({backend})", expected, count_curves(problem, backend))
        for name, problem, expected in (
            ("lines on the sextic fourfold meeting a plane",
             HypersurfaceProblem(5, 6, 1, 2), 60480),
            ("conics on the sextic fourfold meeting a plane",
             HypersurfaceProblem(5, 6, 2, 2), 440884080),
            ("lines on a cubic surface", HypersurfaceProblem(3, 3, 1), 27),
            ("lines on a quintic threefold", HypersurfaceProblem(4, 5, 1), 2875),
            ("conics on a quintic threefold", HypersurfaceProblem(4, 5, 2), 609250),
        )
        for backend in BACKENDS
    ]

    dt = gwdt.InvariantTable("DT", {1: Fraction(60480), 2: Fraction(440884080)})
    gw = gwdt.gw_from_dt(dt)
    checks.append(Check("degree-2 GW from DT", 440899200, gw[2]))
    checks.append(Check("GW[2] = DT[2] + DT[1]/4", dt[2] + dt[1] / 4, gw[2]))
    checks.append(Check("Moebius inversion returns DT",
                        sorted(dt.values.items()),
                        sorted(gwdt.dt_from_gw(gw).values.items())))

    checks.extend(
        Check(f"multiple-cover factor, degree {d}, seed {seed}",
              Fraction(1, d**3), gwdt.am_localization_verify(d, seed))
        for d in range(1, gwdt.MAX_COVER_DEGREE + 1)
        for seed in (0, 1, 2)
    )

    checks.extend(Check("ledger " + c.name, c.expected, c.got) for c in dimension_ledger())

    for problem in (HypersurfaceProblem(5, 6, d, 2) for d in FAMILIES):
        checks.append(Check(
            f"incidence class derives from the universal curve ({problem.family.name})",
            ex.evaluate(problem.incidence, problem.space),
            incidence_from_universal_curve(problem),
        ))
    gr24 = Grassmannian(2, 4)
    whitney = chern.total_chern(TautSub(), gr24) * chern.total_chern(TautQuot(), gr24)
    checks.append(Check("Whitney: c(S)c(Q) = 1 on Gr(2,4)", chow.unit(gr24), whitney))
    checks.append(Check("duality: sigma_1^4 on Gr(2,4)", 2,
                        chow.integrate(chow.sigma(gr24, (1,)) ** 4)))
    return checks
