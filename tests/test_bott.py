import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import comb, prod
from operator import itemgetter, mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curvecount import bott, expr as ex
from curvecount.bott import (
    UnsupportedExpressionError,
    WeightCollisionError,
    bott_integrate,
    bundle_weights,
    fixed_points,
    tangent_weights,
    weight_search,
)
from curvecount.bundles import (
    Dual,
    Grassmannian,
    InvalidBundleError,
    ProjBundle,
    RelO,
    Sym,
    TautQuot,
    TautSub,
    TensorLine,
    Trivial,
    WhitneyQuotient,
    bottom_grassmannian,
    mentions_rel,
    rank,
)
from curvecount.chow import integrate
from curvecount.counts import HypersurfaceProblem, conic_space, line_space
from curvecount.symfunc import elementary_symmetric, sym_power_roots

GR24 = Grassmannian(2, 4)
GR36 = Grassmannian(3, 6)
CONICS = conic_space(5)

S1_4 = ex.Power(ex.Schubert((1,)), 4)


def test_weight_search_ladder_and_determinism():
    assert weight_search(0, 4) == (0, 1, 2, 3)
    w = weight_search(3, 6)
    assert w == weight_search(3, 6)
    assert len(set(w)) == 6
    assert all(x >= 1 for x in w)
    assert weight_search(3, 6) != weight_search(4, 6)
    # the bound is exclusive: seeds after 0 draw from 1..bound-1
    for bound in (7, 24, 10**6):
        for seed in (1, 2, 3):
            w = weight_search(seed, 6, bound)
            assert w == weight_search(seed, 6, bound)
            assert len(set(w)) == 6 and all(1 <= x < bound for x in w)
    # the default is the wide draw
    assert weight_search(3, 6, 10**6) == weight_search(3, 6)
    assert sorted(weight_search(1, 6, 7)) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        weight_search(-1, 3)
    with pytest.raises(ValueError):
        weight_search(0, 0)
    # range(1, 6) holds only five weights
    for seed in (0, 1):
        with pytest.raises(ValueError):
            weight_search(seed, 6, 6)


def test_fixed_points_of_grassmannian():
    pts = fixed_points(GR24, weight_search(0, 4))
    assert len(pts) == comb(4, 2)
    assert all(len(subset) == 2 and levels == () for subset, levels in pts)
    assert len(fixed_points(GR36, weight_search(1, 6))) == comb(6, 3)


def test_fixed_points_of_tower_add_an_eigenline():
    weights = weight_search(1, 6)
    pts = fixed_points(CONICS, weights)
    # each of the 20 planes carries 6 monomial conics
    assert len(pts) == comb(6, 3) * 6


@pytest.mark.parametrize("r", range(1, 7))
def test_sym_weights_are_the_sorted_exponent_dot_products(r):
    # the weights come unsorted, in the documented exponent order: one run
    # per vector m of sym_power_roots(d, r - 1), putting i = 0..m[-1] on the
    # second to last argument weight and m[-1] - i on the last.  Distinct
    # weights with a zero and negatives; the last two equal (a zero step),
    # negated through a dual; a trivial bundle's zeros
    space, pt = Grassmannian(r, r + 2), (tuple(range(r)), ())
    distinct = (3, -5, 0, 11, 7, -2, 9, 1)[: r + 2]
    last_two_equal = (distinct[: r - 1] + distinct[max(r - 2, 0):])[: r + 2]
    cases = [
        (TautSub(), distinct),
        (Dual(TautSub()), last_two_equal),
        (Trivial(r), distinct),
    ]
    orders = [
        [(d,)] if r == 1 else [
            m[:-1] + (i, m[-1] - i)
            for m in sym_power_roots(d, r - 1) for i in range(m[-1] + 1)
        ]
        for d in range(21)
    ]
    for d, order in enumerate(orders):
        assert sorted(order) == sorted(sym_power_roots(d, r))
    for arg, weights in cases:
        (ws,) = bundle_weights(arg, space)([pt], weights)
        ws = tuple(ws)
        for d, order in enumerate(orders):
            (got,) = bundle_weights(Sym(d, arg), space)([pt], weights)
            assert got == [sum(map(mul, m, ws)) for m in order]


def test_ladder_weights_collide_on_the_conic_tower():
    # with weights 0..5 two quadric monomials on the plane {0,1,2} share
    # the eigenvalue 2, so the fiber weights are not distinct
    with pytest.raises(WeightCollisionError):
        fixed_points(CONICS, weight_search(0, 6))


def test_sigma1_power_matches_symbolic():
    assert bott_integrate(GR24, S1_4) == 2
    weights = weight_search(2, 4)
    assert bott_integrate(GR24, S1_4, weights=weights) == 2


def test_weight_independence_across_explicit_seeds():
    integrand = HypersurfaceProblem(4, 5, 1).integrand
    space = line_space(4)
    # the wide draw and the small one bott_integrate takes on a Grassmannian
    values = {
        bott_integrate(space, integrand, weights=weight_search(seed, 5, bound))
        for seed in (1, 2, 3) for bound in (10**6, 4 * 5)
    }
    assert values == {Fraction(2875)}


def test_seeds_draw_small_weights_on_a_bare_grassmannian_only(monkeypatch):
    # distinct weights suffice on Gr(2,6), so the seed after the ladder
    # draws from 1..4n-1; the conic tower tries exactly the wide draws
    tried, run = [], bott._integrate_once

    def recorded(space, numerator, weights):
        tried.append(weights)
        return run(space, numerator, weights)

    monkeypatch.setattr(bott, "_integrate_once", recorded)
    lines = HypersurfaceProblem(5, 7, 1)
    assert bott_integrate(lines.space, lines.integrand) == 698005
    ladder, drawn = tried
    assert ladder == weight_search(0, 6)
    assert len(set(drawn)) == 6 and all(1 <= w < 4 * 6 for w in drawn)
    tried.clear()
    conics = HypersurfaceProblem(5, 6, 2, insertion_codim=2)
    assert conics.space == CONICS
    assert bott_integrate(CONICS, conics.integrand) == 440884080
    assert tried == [weight_search(seed, 6) for seed in (0, 1, 2)]


def test_cubic_surface_lines_by_localization():
    integrand = HypersurfaceProblem(3, 3, 1).integrand
    assert bott_integrate(line_space(3), integrand) == 27


def test_auto_mode_skips_colliding_seeds():
    # seed 0 collides on the conic tower; auto retry must still answer
    integrand = ex.EulerClass(
        WhitneyQuotient(
            Sym(6, Dual(TautSub())),
            TensorLine(Sym(4, Dual(TautSub())), RelO(-1)),
        )
    )
    full = ex.Product((integrand, ex.Sum((ex.Zeta(), ex.Product((ex.rational(2), ex.Schubert((1,))))))))
    value = bott_integrate(CONICS, full)
    assert value == 440884080


def test_general_schubert_classes_localize():
    # Giambelli lift det(e_{lam_i + j - i}) of the quotient weights, against
    # the symbolic engine and a pinned value
    cases = [
        (GR24, (ex.Schubert((2, 2)),), 1),
        (GR24, (ex.Schubert((2, 1)), ex.Schubert((1,))), 1),
        (GR24, (ex.Schubert((1, 1)), ex.Schubert((1, 1))), 1),
        (GR24, (ex.Schubert((2,)), ex.Schubert((1, 1))), 0),
        (GR36, (ex.Schubert((3, 1)), ex.Schubert((2, 2)), ex.Schubert((1,))), 1),
        (GR36, (ex.Schubert((2, 1)), ex.Schubert((2, 1)), ex.Schubert((2, 1))), 2),
        # outside the box: a fourth row on Gr(3,6), a fourth column on Gr(2,5)
        (GR36, (ex.Schubert((1, 1, 1, 1)), ex.Schubert((3, 2))), 0),
        (Grassmannian(2, 5), (ex.Schubert((4,)), ex.Schubert((1, 1))), 0),
        (CONICS, (ex.Power(ex.Zeta(), 5), ex.Schubert((3, 2, 1)), ex.Schubert((2, 1))), 1),
    ]
    for space, factors, value in cases:
        integrand = ex.Product(factors)
        assert integrate(ex.evaluate(integrand, space)) == value, factors
        assert bott_integrate(space, integrand) == value, factors
    # Q has the weights 1, 2, -3 at the point {0, 1, 2}, where the
    # determinant of sigma_{1,1,1} starts with the zero pivot e_1
    integrand = ex.Product((ex.Schubert((1, 1, 1)), ex.Schubert((2, 2, 2))))
    assert bott_integrate(GR36, integrand, weights=(0, 5, 7, 1, 2, -3)) == 1


def test_unsupported_atoms_are_refused_before_any_fixed_point(monkeypatch):
    def enumerate_nothing(space, weights):
        raise AssertionError("fixed points were built for a refused integrand")

    monkeypatch.setattr(bott, "fixed_points", enumerate_nothing)
    # Gr(10,20) has 184756 fixed points and Gr(15,30) about 1.6e8
    big = ex.Product((ex.Power(ex.Zeta(), 4), ex.Power(ex.Schubert((1,)), 96)))
    with pytest.raises(UnsupportedExpressionError):
        bott_integrate(Grassmannian(10, 20), big)
    with pytest.raises(UnsupportedExpressionError):
        bott_integrate(Grassmannian(15, 30), ex.Power(ex.Zeta(), 225))


def test_quotients_outside_their_ambient_are_refused_before_any_fixed_point(monkeypatch):
    def enumerate_nothing(space, weights):
        raise AssertionError("fixed points were built for a refused integrand")

    monkeypatch.setattr(bott, "fixed_points", enumerate_nothing)
    with pytest.raises(UnsupportedExpressionError, match="not contained"):
        bott_integrate(Grassmannian(2, 5), ex.parse("c(1,quot(Q,S))*s[1]^5"))
    # O(1) has minus the eigenline's weight, which is no weight of Sym^2 S*
    with pytest.raises(UnsupportedExpressionError, match="not contained"):
        bott_integrate(CONICS, ex.parse("c(1,quot(sym(2,dual(S)),o(1)))*zeta^13"))


def test_quotient_outside_its_ambient_is_rejected():
    # the symbolic engine reads c(Q)/c(S) formally; at a fixed point the
    # weights of S are not among those of Q, so there is no lift
    integrand = ex.Product((
        ex.ChernClass(1, WhitneyQuotient(TautQuot(), TautSub())),
        ex.Power(ex.Schubert((1,)), 5),
    ))
    with pytest.raises(UnsupportedExpressionError, match="not contained"):
        bott_integrate(Grassmannian(2, 5), integrand)


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]))


@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
)))
# a zero column at the first pivot, and one left by the first elimination
@example([[0, 1], [0, 2]])
@example([[1, 2, 3], [2, 4, 5], [3, 6, 7]])
@settings(max_examples=200, deadline=None)
def test_det_is_the_cofactor_expansion(rows):
    assert bott._det(rows) == _cofactor_det(rows)


def test_below_top_degree_localizes_to_zero():
    # equivariant pushforward of a class below top degree vanishes
    assert bott_integrate(GR24, ex.Power(ex.Schubert((1,)), 3)) == 0


def test_above_top_degree_integrand_is_rejected():
    # sigma_1^5 exceeds the dimension of Gr(2,4), where the sum would depend
    # on the weights; the degree is read off the tree before any seed is
    # tried, so a huge power costs nothing
    for exponent in (5, 10**6):
        start = time.perf_counter()
        with pytest.raises(UnsupportedExpressionError) as err:
            bott_integrate(GR24, ex.Power(ex.Schubert((1,)), exponent))
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == f"integrand degree {exponent} exceeds dim 4 of gr(2,4)"


def test_tangent_weight_count_matches_dimension():
    weights = weight_search(1, 6)
    for pt in fixed_points(CONICS, weights):
        assert len(tangent_weights(pt, weights)) == CONICS.dim


def test_euler_class_localizes_to_weight_products():
    # integral of e(S^dual) over Gr(1,2): the line bundle O(1) on P^1 has
    # one zero, and the two fixed-point terms must assemble it
    p1 = Grassmannian(1, 2)
    integrand = ex.EulerClass(Dual(TautSub()))
    assert bott_integrate(p1, integrand) == 1


def test_explicit_collision_surfaces_as_error():
    with pytest.raises(WeightCollisionError):
        bott_integrate(
            CONICS,
            ex.Power(ex.Zeta(), 14),
            weights=weight_search(0, 6),
        )


def test_explicit_weights_must_match_the_ambient_space():
    # Q reads every ambient weight outside the subset, so a spare weight
    # would enter the answer silently
    with pytest.raises(ValueError):
        bott_integrate(GR24, S1_4, weights=(1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        bott_integrate(GR24, S1_4, weights=(1, 2, 3))
    # equal ambient weights leave the fixed points non-isolated
    with pytest.raises(WeightCollisionError):
        bott_integrate(GR24, S1_4, weights=(1, 1, 2, 3))


# conics in P^5 with a point of their plane: the upper bundle S(1) reads
# the lower level's O(1), so both tower levels of each fixed point are used
NESTED = ProjBundle(CONICS, TensorLine(TautSub(), RelO(1)))


@pytest.mark.parametrize(
    "integrand, expected",
    [
        (ex.Power(ex.Zeta(), 16), -871920),
        (
            ex.Product((
                ex.Power(ex.Zeta(), 14),
                ex.ChernClass(2, TensorLine(TautQuot(), RelO(-1))),
            )),
            -1481382,
        ),
    ],
)
def test_nested_tower_engines_agree(integrand, expected):
    assert integrate(ex.evaluate(integrand, NESTED)) == expected
    assert bott_integrate(NESTED, integrand) == expected


# the level-by-level sum against the literal per-point sum; the pulled-back
# cases mix factors read once per subset with factors read at every point,
# and the over-degree case exceeds the dimension of Gr(2,5), so its value
# depends on the weights.  The bare Grassmannians run k = 1..5, over which
# the sign (-1)^C(k,2) of the base fold changes, and the last case reads a
# quotient's packed kept characters on a bare Grassmannian
@pytest.mark.parametrize(
    "space, integrand",
    [
        (Grassmannian(2, 5), ex.Product((ex.rational(Fraction(1, 3)), ex.Power(ex.Schubert((1,)), 6)))),
        (CONICS, ex.Product((ex.Power(ex.Zeta(), 5), ex.ChernClass(3, TautQuot()), ex.Power(ex.Schubert((1,)), 6)))),
        (NESTED, ex.Power(ex.Zeta(), 16)),
        (CONICS, ex.parse("c(3,Q)*s[1]^11 + zeta^5*c(2,dual(S))*s[1]^7")),
        (NESTED, ex.parse("c(6,sym(2,dual(S)))*c(2,tensor(Q,o(-1)))*zeta^8")),
        (Grassmannian(2, 5), ex.Power(ex.Schubert((1,)), 7)),
        (Grassmannian(1, 4), ex.parse("c(2,Q)*s[1]")),
        (GR36, ex.parse("c(3,Q)*s[2,1]*s[1]^3")),
        (Grassmannian(4, 8), ex.parse("e(sym(2,dual(S)))*c(2,Q)*s[1]^4")),
        (Grassmannian(5, 7), ex.parse("s[2,2]*c(1,dual(S))^6")),
        (Grassmannian(2, 5), ex.parse("e(quot(sym(2,dual(S)),triv(0)))*c(2,Q)*s[1]")),
    ],
    ids=["rational-scalar", "conic-tower", "nested-tower", "pulled-back-sum",
         "nested-pulled-back-sym", "over-degree", "gr14", "gr36", "gr48", "gr57",
         "grassmannian-quotient"],
)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_sum_equals_the_literal_per_point_sum(space, integrand, data):
    n = bottom_grassmannian(space).n
    weights = tuple(data.draw(st.lists(
        st.integers(-10**4, 10**4), min_size=n, max_size=n, unique=True
    )))
    try:
        pts = fixed_points(space, weights)
    except WeightCollisionError:
        with pytest.raises(WeightCollisionError):
            bott_integrate(space, integrand, weights=weights)
        return
    at = bott.evaluate_at(integrand, space)
    literal = sum(
        Fraction(at([pt], weights)[0]) / prod(tangent_weights(pt, weights)) for pt in pts
    )
    assert bott_integrate(space, integrand, weights=weights) == literal


def test_an_integer_integrand_builds_one_fraction_per_weight_vector(monkeypatch):
    # each fibre sum of an integer integrand is an integer, so the fold
    # forms one Fraction at each of the two admissible seeds and none per
    # subset; a p/q scalar takes the Fraction branch of the fibre sum
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(bott, "Fraction", counted)
    assert bott_integrate(CONICS, HypersurfaceProblem(5, 6, 2, 2).integrand) == 440884080
    assert len(built) == 2
    integrand = ex.parse("1/3*zeta^5*c(3,Q)*s[1]^6")
    assert bott_integrate(CONICS, integrand) == integrate(ex.evaluate(integrand, CONICS))


@pytest.mark.parametrize(
    "bundle, evaluations",
    [
        # pulled back from Gr(3,6): once per subset
        (TautQuot(), comb(6, 3)),
        # reads the eigenline: once per fixed point
        (TensorLine(TautQuot(), RelO(-1)), comb(6, 3) * 6),
    ],
    ids=["pulled-back", "twisted"],
)
def test_factors_pulled_back_from_the_base_are_evaluated_once_per_subset(
    monkeypatch, bundle, evaluations
):
    calls = []

    def counted(ws, k):
        calls.append(k)
        return elementary_symmetric(ws, k)

    monkeypatch.setattr(bott, "elementary_symmetric", counted)
    integrand = ex.Product((ex.ChernClass(3, bundle), ex.Power(ex.Zeta(), 11)))
    value = bott_integrate(CONICS, integrand)
    assert value == integrate(ex.evaluate(integrand, CONICS))
    # bott_integrate sums at two admissible weight vectors; a colliding one
    # is refused before any point is evaluated
    assert calls == [3] * (2 * evaluations)


def test_sym_weights_run_for_the_top_once_per_subset_and_never_for_the_sub(monkeypatch):
    # conics on the sextic fourfold: e(Sym^6 S* / Sym^4 S* (-1)); a first
    # sum fills the lru cache of `_kept`, so the counted one below
    # sees the calls of the sum only, whatever ran before this test
    integrand = HypersurfaceProblem(5, 6, 2, 2).integrand
    assert bott_integrate(CONICS, integrand) == 440884080
    sym_weights, degrees = bott._sym_weights, []

    def counted(degree, ws):
        degrees.append(degree)
        return sym_weights(degree, ws)

    monkeypatch.setattr(bott, "_sym_weights", counted)
    # the fibre Sym^2 S* is built once per point below, at every seed tried;
    # the quotient's weights are its kept characters dotted with the local
    # weights, so neither the top nor the sub is built at a fixed point
    assert bott_integrate(CONICS, integrand) == 440884080
    assert degrees.count(6) == 0
    assert 4 not in degrees


def test_each_factor_builds_its_sym_once_per_subset(monkeypatch):
    # e(Sym^6 S* / Sym^4 S* (-1)) * c_1(Sym^6 S*) on the conic tower over
    # Gr(3,6): the separate factor is pulled back from the base, so it builds
    # its Sym^6 once per subset, not once per eigenline, and the obstruction
    # reads its kept characters without building its top; a first sum fills
    # the lru cache of `_kept`
    integrand = ex.Product((
        ex.EulerClass(HypersurfaceProblem(5, 6, 2).obstruction),
        ex.ChernClass(1, Sym(6, Dual(TautSub()))),
    ))
    value = bott_integrate(CONICS, integrand)
    assert value == integrate(ex.evaluate(integrand, CONICS))
    sym_weights, degrees = bott._sym_weights, []

    def counted(degree, ws):
        degrees.append(degree)
        return sym_weights(degree, ws)

    monkeypatch.setattr(bott, "_sym_weights", counted)
    assert bott_integrate(CONICS, integrand) == value
    # 1 factor at 2 admissible seeds, 20 subsets each
    assert degrees.count(6) == 2 * comb(6, 3)


def test_cold_lift_builds_each_sym_once_per_subset_at_each_unit_vector(monkeypatch):
    # conics on P^14: e(Sym^20 S* / Sym^18 S* (-1)) over P(Sym^2 S*).  The
    # characters are read at the subset range(k) and the 15 unit weight
    # vectors; no Sym there mentions the relative O(k), so each is pulled
    # back and built once per unit vector: the top, the sub's Sym^18 and the
    # fibre's Sym^2 are each built 15 times
    problem = HypersurfaceProblem(14, 20, 2)
    bott._kept.cache_clear()
    sym_weights, degrees = bott._sym_weights, []

    def counted(degree, ws):
        degrees.append(degree)
        return sym_weights(degree, ws)

    monkeypatch.setattr(bott, "_sym_weights", counted)
    bundle_weights(problem.obstruction, problem.space)
    assert Counter(degrees) == {20: 15, 18: 15, 2: 15}


SEXTIC = HypersurfaceProblem(5, 6, 2, 2)
# the slot bound of the sextic's obstruction: its kept characters are
# exponent vectors of Sym^6 S*, so each of the 3 subset slots reaches 6
SLOT_BOUND = 18


@pytest.mark.parametrize("largest", [
    10**4,
    # packed while bound * largest is just under 2^63, row by row just past
    (1 << 63) // SLOT_BOUND,
    (1 << 63) // SLOT_BOUND + 1,
    # the largest kept weight, 6 * largest, just inside int64 and past it
    ((1 << 63) - 1) // 6,
    (1 << 63) // 6 + 1,
], ids=["small", "packed", "past-slot-bound", "kept-fits-int64", "kept-past-int64"])
def test_sextic_count_is_exact_on_each_side_of_the_slot_bound(largest):
    assert bott._kept(SEXTIC.obstruction, CONICS)[-1] == SLOT_BOUND
    # weights of mixed sign, so the kept weights run from -6 * largest to
    # 6 * largest; their pair sums are distinct, so every fibre is admissible
    weights = tuple((-1) ** i * (largest - o) for i, o in enumerate((0, 1, 3, 7, 12, 20)))
    assert bott_integrate(CONICS, SEXTIC.integrand, weights) == 440884080


@pytest.mark.parametrize("w", [(1 << 63) - 1, 1 << 63, -(1 << 63) + 1, -(1 << 63)])
def test_a_kept_weight_that_meets_the_slot_bound_reads_exactly(w):
    # on P^1, Q / 0 keeps one character, (0, 1), whose slot bound 1 is met:
    # its weight w fills a 64-bit slot to the edge while |w| < 2^63, and is
    # read row by row from 2^63 on; the integral of c_1(Q) is 1 either way
    quotient = WhitneyQuotient(TautQuot(), Trivial(0))
    assert bott._kept(quotient, Grassmannian(1, 2))[-1] == 1
    assert bott_integrate(Grassmannian(1, 2), ex.EulerClass(quotient), (0, w)) == 1
    assert bundle_weights(quotient, Grassmannian(1, 2))([((0,), ())], (0, w)) == [[w]]


def _bundles(space, depth):
    if isinstance(space, ProjBundle):
        line = st.builds(RelO, st.integers(-2, 2))
    else:
        line = st.just(Trivial(1))
    leaf = st.one_of(st.just(TautSub()), st.just(TautQuot()),
                     st.builds(Trivial, st.integers(1, 2)), line)
    if depth == 0:
        return leaf
    inner = _bundles(space, depth - 1)
    return st.one_of(
        leaf,
        st.builds(Dual, inner),
        st.builds(Sym, st.integers(0, 3), inner),
        st.builds(TensorLine, inner, line),
        st.builds(WhitneyQuotient, inner, inner),
    )


def _subtrees(bundle):
    yield bundle
    for field in ("arg", "line", "top", "sub"):
        if hasattr(bundle, field):
            yield from _subtrees(getattr(bundle, field))


# a two-level tower whose upper bundle mentions no O(k), unlike NESTED's
NESTED_PLAIN = ProjBundle(ProjBundle(GR24, Dual(TautSub())), TautQuot())


def _character(node, space, chain):
    # the weights of `node` at the local point `chain` as integer vectors
    # over the local slots: slot j is the weight at the j-th unit weight
    # vector, at the record over the subset range(k) whose eigenlines are
    # `chain`, built one tower level at a time
    base, tower = space, []
    while isinstance(base, ProjBundle):
        tower.insert(0, base)
        base = base.base
    lifted, columns = bundle_weights(node, space), []
    for j in range(base.n):
        e = tuple(int(i == j) for i in range(base.n))
        pt = (tuple(range(base.k)), ())
        for level, idx in zip(tower, chain):
            (fiber,) = bundle_weights(level.bundle, level.base)([pt], e)
            pt = (pt[0], pt[1] + ((tuple(fiber), idx),))
        columns.extend(lifted([pt], e))
    return list(zip(*columns))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_numeric_weights_are_the_character_dotted_with_the_local_weights(data):
    space = data.draw(st.sampled_from([
        Grassmannian(1, 3), GR24, ProjBundle(GR24, Dual(TautSub())),
        ProjBundle(Grassmannian(1, 3), Sym(2, TautQuot())), CONICS, NESTED, NESTED_PLAIN,
    ]))
    drawn = st.tuples(_bundles(space, 2), st.just(False))
    if isinstance(space, ProjBundle) and not mentions_rel(space.bundle):
        # contained by construction: Sym^d B (-1) sits in Sym^(d+1) B, as B
        # reads the same on the tower as on its base
        drawn |= st.builds(lambda d: (WhitneyQuotient(
            Sym(d + 1, space.bundle), TensorLine(Sym(d, space.bundle), RelO(-1))
        ), True), st.integers(0, 2))
    bundle, contained = data.draw(drawn)
    try:
        rank(bundle, space)
    except InvalidBundleError:
        assume(False)
    n = bottom_grassmannian(space).n
    weights = tuple(data.draw(st.lists(
        st.integers(-10**4, 10**4), min_size=n, max_size=n, unique=True
    )))
    try:
        pts = fixed_points(space, weights)
    except WeightCollisionError:
        assume(False)
    for node in _subtrees(bundle):
        try:
            lifted = bundle_weights(node, space)
        except UnsupportedExpressionError:
            if contained:
                raise
            continue  # a drawn quotient whose sub is not in its top
        for pt in pts:
            subset, levels = pt
            local = [weights[a] for a in subset] + [
                w for b, w in enumerate(weights) if b not in subset
            ]
            chain = tuple(idx for _, idx in levels)
            assert lifted([pt], weights) == [[
                sum(map(mul, v, local)) for v in _character(node, space, chain)
            ]], (node, pt)


# the towers whose bundle B mentions no O(k), so that B reads the same on
# the tower as on its base; NESTED's S(1) would read the upper O(1)
TOWERS = [ProjBundle(GR24, Dual(TautSub())), ProjBundle(Grassmannian(1, 3), Sym(2, TautQuot())),
          CONICS, NESTED_PLAIN]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_quotient_weights_are_the_top_less_the_sub(data):
    # read off the numeric weights alone, so the characters `_kept` keeps are
    # held to the multiset difference whatever characters it compares: the
    # quotients contained by construction, Sym^d B (-1) in Sym^(d+1) B, on
    # one- and two-level towers, and the conic obstructions on P^4..P^6
    space, bundle = data.draw(st.one_of(
        st.builds(lambda space, d: (space, WhitneyQuotient(
            Sym(d + 1, space.bundle), TensorLine(Sym(d, space.bundle), RelO(-1))
        )), st.sampled_from(TOWERS), st.integers(0, 2)),
        st.builds(HypersurfaceProblem, st.integers(4, 6), st.integers(2, 6), st.just(2))
        .map(lambda problem: (problem.space, problem.obstruction)),
    ))
    n = bottom_grassmannian(space).n
    weights = tuple(data.draw(st.lists(
        st.integers(-10**4, 10**4), min_size=n, max_size=n, unique=True
    )))
    try:
        pts = fixed_points(space, weights)
    except WeightCollisionError:
        assume(False)
    quot, top, sub = (bundle_weights(b, space) for b in (bundle, bundle.top, bundle.sub))
    for pt in pts:
        (q,), (s,), (t,) = (b([pt], weights) for b in (quot, sub, top))
        assert Counter(q) + Counter(s) == Counter(t), (bundle, pt)


@cache
def _group_bundles(space, depth):
    # `_bundles`, and on a tower whose bundle B mentions no O(k) also the
    # quotients Sym^(d+1) B / Sym^d B (-1), contained by construction, whose
    # kept positions differ from one eigenline to the next
    drawn = _bundles(space, depth)
    if not mentions_rel(space.bundle):
        drawn |= st.builds(lambda d: WhitneyQuotient(
            Sym(d + 1, space.bundle), TensorLine(Sym(d, space.bundle), RelO(-1))
        ), st.integers(0, 2))
    return drawn


@cache
def _integrands(space):
    # products, sums and powers of the atoms bott lifts; every space drawn
    # here is a projective bundle, where zeta lives
    atom = st.one_of(
        st.builds(ex.ChernClass, st.integers(0, 3), _group_bundles(space, 1)),
        st.builds(ex.EulerClass, _group_bundles(space, 1)),
        st.builds(ex.Schubert, st.sampled_from([(), (1,), (2, 1)])),
        st.builds(ex.rational, st.integers(-3, 3), st.integers(1, 3)),
        st.just(ex.Zeta()),
    )
    return st.recursive(atom, lambda inner: st.one_of(
        st.builds(ex.Power, inner, st.integers(0, 3)),
        st.builds(lambda fs: ex.Product(tuple(fs)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda ts: ex.Sum(tuple(ts)), st.lists(inner, min_size=2, max_size=3)),
    ), max_leaves=4)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_group_evaluates_as_each_of_its_records_alone(data):
    # a node pulled back from the base repeats one value over the group, and
    # a twisted one takes each eigenline's own; both must equal the value a
    # group of one record gives
    space = data.draw(st.sampled_from([CONICS, NESTED, NESTED_PLAIN]))
    bundle, integrand = data.draw(_group_bundles(space, 2)), data.draw(_integrands(space))
    try:
        rank(bundle, space)
        bott._check(integrand, space)
        numerator = bott.evaluate_at(integrand, space)
    except (InvalidBundleError, UnsupportedExpressionError):
        assume(False)
    n = bottom_grassmannian(space).n
    weights = tuple(data.draw(st.lists(
        st.integers(-10**4, 10**4), min_size=n, max_size=n, unique=True
    )))
    try:
        pts = fixed_points(space, weights)
    except WeightCollisionError:
        assume(False)
    lifts = [numerator]
    for node in _subtrees(bundle):
        try:
            lifts.append(bundle_weights(node, space))
        except UnsupportedExpressionError:
            continue  # a drawn quotient whose sub is not in its top
    for _, group in groupby(pts, itemgetter(0)):
        group = list(group)
        for lifted in lifts:
            assert lifted(group, weights) == [
                lifted([pt], weights)[0] for pt in group
            ], (integrand, bundle, group[0])
