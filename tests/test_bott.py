import time
from fractions import Fraction
from math import comb, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

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
        ws = tuple(bundle_weights(arg, space)(pt, weights, {}))
        for d, order in enumerate(orders):
            memo = {}
            got = bundle_weights(Sym(d, arg), space)(pt, weights, memo)
            assert got == [sum(map(mul, m, ws)) for m in order]
            assert memo == {(d, ws): got}


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
    values = {
        bott_integrate(space, integrand, weights=weight_search(seed, 5))
        for seed in (1, 2, 3)
    }
    assert values == {Fraction(2875)}


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
# and the last case exceeds the dimension of Gr(2,5), so its value depends
# on the weights
@pytest.mark.parametrize(
    "space, integrand",
    [
        (Grassmannian(2, 5), ex.Product((ex.rational(Fraction(1, 3)), ex.Power(ex.Schubert((1,)), 6)))),
        (CONICS, ex.Product((ex.Power(ex.Zeta(), 5), ex.ChernClass(3, TautQuot()), ex.Power(ex.Schubert((1,)), 6)))),
        (NESTED, ex.Power(ex.Zeta(), 16)),
        (CONICS, ex.parse("c(3,Q)*s[1]^11 + zeta^5*c(2,dual(S))*s[1]^7")),
        (NESTED, ex.parse("c(6,sym(2,dual(S)))*c(2,tensor(Q,o(-1)))*zeta^8")),
        (Grassmannian(2, 5), ex.Power(ex.Schubert((1,)), 7)),
    ],
    ids=["rational-scalar", "conic-tower", "nested-tower", "pulled-back-sum",
         "nested-pulled-back-sym", "over-degree"],
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
        Fraction(at(pt, weights, {})) / prod(tangent_weights(pt, weights)) for pt in pts
    )
    assert bott_integrate(space, integrand, weights=weights) == literal


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
    # sum fills the lru cache of `_character`, so the counted one below
    # sees the calls of the sum only, whatever ran before this test
    integrand = HypersurfaceProblem(5, 6, 2, 2).integrand
    assert bott_integrate(CONICS, integrand) == 440884080
    sym_weights, degrees = bott._sym_weights, []

    def counted(degree, ws):
        degrees.append(degree)
        return sym_weights(degree, ws)

    monkeypatch.setattr(bott, "_sym_weights", counted)
    # the fibre Sym^2 S* is built once per point below, at every seed tried
    assert bott_integrate(CONICS, integrand) == 440884080
    assert degrees.count(6) == 2 * comb(6, 3)
    assert 4 not in degrees


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


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_numeric_weights_are_the_character_dotted_with_the_local_weights(data):
    space = data.draw(st.sampled_from([
        Grassmannian(1, 3), GR24, ProjBundle(GR24, Dual(TautSub())),
        ProjBundle(Grassmannian(1, 3), Sym(2, TautQuot())), CONICS, NESTED,
    ]))
    bundle = data.draw(st.one_of(
        _bundles(space, 2),
        # contained by construction: Sym^d B (-1) sits in Sym^(d+1) B
        st.builds(lambda d: WhitneyQuotient(Sym(d + 1, space.bundle),
                                            TensorLine(Sym(d, space.bundle), RelO(-1))),
                  st.integers(0, 2)) if isinstance(space, ProjBundle) else st.nothing(),
    ))
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
            continue  # a quotient whose sub is not in its top
        for pt in pts:
            subset, levels = pt
            local = [weights[a] for a in subset] + [
                w for b, w in enumerate(weights) if b not in subset
            ]
            chain = tuple(idx for _, idx in levels)
            assert lifted(pt, weights, {}) == [
                sum(map(mul, v, local)) for v in bott._character(node, space, chain)
            ], (node, pt)
