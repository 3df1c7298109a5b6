from math import comb

import pytest
from hypothesis import assume, example, given, settings
from test_cli import bundle_nodes, space_nodes

from curvecount import chern, chow
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
    rank,
)
from curvecount.chern import chern_classes, euler_class, segre_classes, total_chern
from curvecount.chow import integrate, pullback, sigma, unit, zero, zeta
from curvecount.symfunc import expand_linear_product, weight

GR24 = Grassmannian(2, 4)
GR26 = Grassmannian(2, 6)
GR36 = Grassmannian(3, 6)
CONICS = ProjBundle(GR36, Sym(2, Dual(TautSub())))

SEXTIC_RESTRICTION = Sym(6, Dual(TautSub()))
SEXTIC_VANISHING = TensorLine(Sym(4, Dual(TautSub())), RelO(-1))
SEXTIC_OBSTRUCTION = WhitneyQuotient(SEXTIC_RESTRICTION, SEXTIC_VANISHING)


def test_ranks():
    assert rank(TautSub(), GR36) == 3
    assert rank(TautQuot(), GR36) == 3
    assert rank(SEXTIC_RESTRICTION, CONICS) == 28
    assert rank(SEXTIC_VANISHING, CONICS) == 15
    assert rank(SEXTIC_OBSTRUCTION, CONICS) == 13
    assert rank(Sym(6, Dual(TautSub())), GR26) == 7
    assert rank(Sym(2, Dual(TautSub())), GR36) == 6


def test_negative_rank_quotient_rejected():
    with pytest.raises(InvalidBundleError):
        rank(WhitneyQuotient(TautSub(), SEXTIC_RESTRICTION), CONICS)


def test_rel_o_needs_a_tower():
    with pytest.raises(InvalidBundleError):
        chern_classes(RelO(1), GR24)


def test_taut_classes():
    cs = chern_classes(TautSub(), GR24)
    assert cs[0] == unit(GR24)
    assert cs[1] == -1 * sigma(GR24, (1,))
    assert cs[2] == sigma(GR24, (1, 1))
    cq = chern_classes(TautQuot(), GR24)
    assert cq[1] == sigma(GR24, (1,))
    assert cq[2] == sigma(GR24, (2,))


@pytest.mark.parametrize("gr", [GR24, GR36])
def test_whitney_sum_of_tautological_sequence(gr):
    assert total_chern(TautSub(), gr) * total_chern(TautQuot(), gr) == unit(gr)


def test_dual_flips_odd_signs():
    cs = chern_classes(Dual(TautSub()), GR24)
    assert cs[1] == sigma(GR24, (1,))
    assert cs[2] == sigma(GR24, (1, 1))
    assert chern_classes(Dual(Dual(TautSub())), GR24) == chern_classes(TautSub(), GR24)


def test_sym_one_is_identity():
    assert chern_classes(Sym(1, TautQuot()), GR36) == chern_classes(TautQuot(), GR36)


def test_sym2_rank2_closed_forms():
    # c(Sym^2 E) = 1 + 3c1 + (2c1^2 + 4c2) + 4c1c2 for rank-2 E
    e = Dual(TautSub())
    c1 = sigma(GR24, (1,))
    c2 = sigma(GR24, (1, 1))
    cs = chern_classes(Sym(2, e), GR24)
    assert cs[1] == 3 * c1
    assert cs[2] == 2 * c1 * c1 + 4 * c2
    assert cs[3] == 4 * c1 * c2


def test_twist_by_line_bundle():
    # rank-2 E twisted by L: c1 += 2c1(L), c2 += c1 c1(L) + c1(L)^2
    e = Dual(TautSub())
    z = zeta(CONICS)
    cs = chern_classes(TensorLine(e, RelO(1)), CONICS)
    c1 = pullback(CONICS, sigma(GR36, (1,)))
    c2 = pullback(CONICS, sigma(GR36, (1, 1)))
    assert rank(e, CONICS) == 3
    # rank 3 here, so check against the root expansion instead of the
    # rank-2 formula: c1 picks up 3 z, c2 picks up 2 c1 z + 3 z^2
    assert cs[1] == c1 + 3 * z
    assert cs[2] == c2 + 2 * c1 * z + 3 * z * z


def test_trivial_bundle_has_no_chern():
    cs = chern_classes(Trivial(5), GR24)
    assert cs[0] == unit(GR24)
    assert all(c.is_zero() for c in cs[1:])


def test_rel_o_first_chern_is_twist_times_zeta():
    cs = chern_classes(RelO(-2), CONICS)
    assert cs[1] == -2 * zeta(CONICS)
    assert chern_classes(RelO(0), CONICS)[1].is_zero()


# a projective bundle over the conic tower whose own bundle mentions the
# conic tower's O(1); an o(k) in an expression on it is the top level's
TOWER2 = ProjBundle(CONICS, TensorLine(Dual(TautSub()), RelO(1)))
NESTED_TWIST = TensorLine(TensorLine(Dual(TautSub()), RelO(1)), RelO(1))


# each (top, sub, space) is an inclusion, or has a quotient rank of at least
# the dimension, so that the product rule drops no class
@pytest.mark.parametrize("top,sub,space", [
    pytest.param(SEXTIC_RESTRICTION, SEXTIC_VANISHING, CONICS, id="conic-twist"),
    # S* (x) O(-1) sits in Sym^3 S*; the sub does not mention O(k)
    pytest.param(TensorLine(Sym(3, Dual(TautSub())), RelO(1)), Dual(TautSub()),
                 CONICS, id="pullback"),
    # Sym^2 S* (x) O(-1) sits in Sym^4 S*, twisted by O(3)
    pytest.param(TensorLine(Sym(4, Dual(TautSub())), RelO(3)),
                 TensorLine(Sym(2, Dual(TautSub())), RelO(2)), CONICS, id="twist-o2"),
    pytest.param(Sym(5, Dual(TautSub())), NESTED_TWIST, TOWER2, id="nested-twist"),
    pytest.param(Trivial(6), Dual(TautQuot()), GR36, id="grassmannian"),
])
def test_whitney_quotient_classes(top, sub, space):
    # the defining sequence forces c(sub) c(quot) = c(total)
    sub_total = total_chern(sub, space)
    quot_total = total_chern(WhitneyQuotient(top, sub), space)
    assert sub_total * quot_total == total_chern(top, space)


@pytest.mark.parametrize("expr,space", [
    pytest.param(TautSub(), GR24, id="grassmannian"),
    # on Gr(1,4) the sub is a line, so the pulled-back class is a twist
    pytest.param(TensorLine(TautQuot(), Dual(TautSub())),
                 ProjBundle(Grassmannian(1, 4), TautQuot()), id="pullback"),
    pytest.param(SEXTIC_VANISHING, CONICS, id="conic-twist"),
    pytest.param(TensorLine(Dual(TautSub()), RelO(2)), CONICS, id="twist-o2"),
    pytest.param(NESTED_TWIST, TOWER2, id="nested-twist"),
    pytest.param(RelO(2), CONICS, id="o2"),
    pytest.param(RelO(-1), CONICS, id="o-1"),
    pytest.param(TautQuot(), GR36, id="Q"),
    pytest.param(Dual(TautQuot()), GR36, id="Q*"),
    pytest.param(Trivial(3), GR24, id="trivial"),
    pytest.param(SEXTIC_OBSTRUCTION, CONICS, id="sextic-obstruction"),
    # S is no sub of Q, so c(Q/S) stops at its rank, and s(Q) c(S) is not
    # its inverse
    pytest.param(WhitneyQuotient(TautQuot(), TautSub()), Grassmannian(2, 5), id="virtual"),
])
def test_segre_inverts_chern(expr, space):
    # c * s = 1, with every class above the dimension zero
    ss = segre_classes(expr, space, space.dim + 2)
    assert all(s.is_zero() for s in ss[space.dim + 1:])
    assert total_chern(expr, space) * sum(ss[1:], ss[0]) == unit(space)


@given(bundle_nodes(2), space_nodes(1))
@settings(max_examples=150, deadline=None)
# the argument has rank 20 and the space dimension 4: the Sym kernel
# expands in 4 of the 20 roots
@example(Sym(0, Sym(3, TautQuot())), Grassmannian(1, 5))
def test_segre_inverts_chern_on_any_tree(expr, space):
    # every constructor's rule for either sign, on a Grassmannian or a tower
    assume(space.dim <= 8)
    try:
        rank(expr, space)
    except InvalidBundleError:
        assume(False)
    ss = segre_classes(expr, space, space.dim)
    assert total_chern(expr, space) * sum(ss[1:], ss[0]) == unit(space)
    cs = chern_classes(expr, space)
    assert euler_class(expr, space) == cs[-1]
    # the pairing of two factors integrates their product
    for i, c in enumerate(cs[:space.dim + 1]):
        assert integrate(c, ss[space.dim - i]) == integrate(c * ss[space.dim - i])


def test_segre_of_sub_are_single_row_classes():
    ss = segre_classes(TautSub(), GR24, 2)
    c1 = -1 * sigma(GR24, (1,))
    c2 = sigma(GR24, (1, 1))
    assert ss[1] == sigma(GR24, (1,)) == -1 * c1
    assert ss[2] == sigma(GR24, (2,)) == c1 * c1 - c2


def test_euler_class_of_cubic_surface_bundle():
    # e(Sym^3 S^dual) = 18 c1^2 c2 + 9 c2^2 with c1 = sigma_1, c2 = sigma_11
    e = euler_class(Sym(3, Dual(TautSub())), GR24)
    c1 = sigma(GR24, (1,))
    c2 = sigma(GR24, (1, 1))
    assert e == 18 * c1 * c1 * c2 + 9 * c2 * c2
    assert integrate(e) == 27


@pytest.mark.parametrize(
    "bundle, space",
    [
        (WhitneyQuotient(Sym(3, Dual(TautSub())), Trivial(1)), GR24),
        # a virtual quotient, c(Q)/c(S)
        (WhitneyQuotient(TautQuot(), TautSub()), Grassmannian(2, 5)),
        # rank 4 above dim 2
        (WhitneyQuotient(Sym(4, TautQuot()), Trivial(1)), Grassmannian(1, 3)),
        (SEXTIC_OBSTRUCTION, CONICS),
        (WhitneyQuotient(Sym(2, Dual(TautSub())), TautSub()), CONICS),
        # rank 20 above dim 14
        (WhitneyQuotient(Sym(5, Dual(TautSub())), RelO(-1)), CONICS),
        # rank equal to the dimension, so chern reads the class off its
        # integral: the quintic's conic obstruction (609250) on a tower ...
        (WhitneyQuotient(Sym(5, Dual(TautSub())), TensorLine(Sym(3, Dual(TautSub())), RelO(-1))),
         ProjBundle(Grassmannian(3, 5), Sym(2, Dual(TautSub())))),
        # ... on a Grassmannian (27) ...
        (WhitneyQuotient(Sym(3, Dual(TautSub())), Trivial(0)), GR24),
        # ... and on a nested tower (276)
        (WhitneyQuotient(TensorLine(Sym(3, Dual(TautQuot())), RelO(2)), Trivial(0)),
         ProjBundle(ProjBundle(Grassmannian(1, 3), TautSub()), Sym(2, TautQuot()))),
    ],
    ids=["sym-by-trivial", "virtual", "above-dim", "sextic-obstruction", "pulled-back",
         "tower-above-dim", "top-rank-tower", "top-rank-grassmannian", "top-rank-nested"],
)
def test_euler_class_of_a_quotient_is_its_top_chern_class(bundle, space):
    # the reference is built here, sum_i c_(r-i)(top) s_i(sub), as one sum of
    # products that chern never reads off an integral
    r = rank(bundle, space)
    cs, ss = chern_classes(bundle.top, space), segre_classes(bundle.sub, space, r)
    built = chow.sum_of_products(space, ((1, cs[r - i], ss[i]) for i in range(r + 1)))
    e = euler_class(bundle, space)
    assert e == chern_classes(bundle, space)[-1] == built
    assert repr(e) == repr(built)


def test_chern_classes_pull_back_through_towers():
    base_cs = chern_classes(Sym(2, Dual(TautSub())), GR36)
    tower_cs = chern_classes(Sym(2, Dual(TautSub())), CONICS)
    assert tower_cs == tuple(pullback(CONICS, c) for c in base_cs)


def test_classes_above_the_dimension_are_zero():
    # the conic bundle over Gr(3,5) has dimension 11, below the ranks of the
    # twist (15) and of the quotient (13); the tuples still run to the rank
    conics = ProjBundle(Grassmannian(3, 5), Sym(2, Dual(TautSub())))
    assert conics.dim == 11
    twist = chern_classes(SEXTIC_VANISHING, conics)
    assert len(twist) == 16
    assert all(c.is_zero() for c in twist[12:])
    assert not twist[11].is_zero()
    quot = chern_classes(SEXTIC_OBSTRUCTION, conics)
    assert len(quot) == 14
    assert all(c.is_zero() for c in quot[12:])
    assert not quot[11].is_zero()


def _jacobi_trudi(lam, h, space):
    # s_lam = det(h_{lam_i - i + j}), expanded along the first row with ring
    # products; h_k is zero for k < 0
    def entry(i, j):
        k = lam[i] - i + j
        return h[k] if k >= 0 else zero(space)

    def minor(i, cols):
        if i == len(lam):
            return unit(space)
        total = zero(space)
        for pos, j in enumerate(cols):
            term = entry(i, j) * minor(i + 1, cols[:pos] + cols[pos + 1:])
            total = total + term if pos % 2 == 0 else total - term
        return total

    return minor(0, tuple(range(len(lam))))


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7)])
def test_sym_classes_match_jacobi_trudi(k, n):
    # c(Sym^d X) = sum_lam c_lam s_lam(X) with c_lam the Schur coefficients of
    # the root product and s_lam(X) the Jacobi-Trudi determinant in the
    # complete classes h_j = (-1)^j s_j(X), s_j the Segre classes
    space = Grassmannian(k, n)
    S, Q = TautSub(), TautQuot()
    for X in (S, Dual(S), Q, Dual(Q), Dual(Dual(S))):
        r = rank(X, space)
        h = [(-1) ** j * sj for j, sj in enumerate(segre_classes(X, space, space.dim))]
        schur = {}
        for d in (2, 3, 4):
            expected = [zero(space)] * (comb(r + d - 1, d) + 1)
            for lam, c in expand_linear_product(d, r, space.dim).items():
                if lam not in schur:
                    schur[lam] = _jacobi_trudi(lam, h, space)
                expected[weight(lam)] = expected[weight(lam)] + c * schur[lam]
            assert list(chern_classes(Sym(d, X), space)) == expected, (X, d)


@pytest.mark.parametrize("space,X,cols", [
    pytest.param(Grassmannian(3, 7), TautSub(), 4, id="S"),
    pytest.param(Grassmannian(3, 7), Dual(TautSub()), 4, id="S*"),
    pytest.param(Grassmannian(3, 7), Dual(Dual(TautSub())), 4, id="S**"),
    pytest.param(Grassmannian(3, 7), TautQuot(), 3, id="Q"),
    pytest.param(Grassmannian(3, 7), Dual(TautQuot()), 3, id="Q*"),
    pytest.param(Grassmannian(3, 7), Dual(Dual(TautQuot())), 3, id="Q**"),
    pytest.param(Grassmannian(2, 5), Sym(2, Dual(TautSub())), None, id="sym"),
    pytest.param(CONICS, TensorLine(Dual(TautSub()), RelO(1)), None, id="twist"),
])
def test_sym_classes_stop_at_the_box_only_under_giambelli(monkeypatch, space, X, cols):
    # S, Q and their duals read s_lam as a Schubert class, zero outside the
    # bottom Grassmannian's box, so their expansion stops at its width: n - k
    # for S and S*, k for Q and Q*; any other argument builds s_lam by Pieri
    # and takes the whole expansion.  Either way the classes are the
    # Jacobi-Trudi ones of the unbounded expansion.  Under Giambelli each
    # degree is written as Schubert coefficients, with no Schubert class
    # built and no sum taken; _sym_classes has no cache, so the count does
    # not depend on which test ran first
    r = rank(X, space)
    h = [(-1) ** j * sj for j, sj in enumerate(segre_classes(X, space, space.dim))]
    seen, calls = [], []

    def recording(d, r, truncation, cols=None):
        seen.append(cols)
        return expand_linear_product(d, r, truncation, cols)

    def counting(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)
        return counted

    monkeypatch.setattr(chern.symfunc, "expand_linear_product", recording)
    for name in ("sigma", "sum_of_products"):
        monkeypatch.setattr(chern.chow, name, counting(name, getattr(chern.chow, name)))
    for d in (2, 3, 4):
        expected = [zero(space)] * (comb(r + d - 1, d) + 1)
        for lam, c in expand_linear_product(d, r, space.dim).items():
            expected[weight(lam)] = expected[weight(lam)] + c * _jacobi_trudi(lam, h, space)
        calls.clear()
        got = list(chern._sym_classes(Sym(d, X), space))
        if cols is not None:
            assert calls == [], d
        assert got == expected, d
    assert seen == [cols] * 3


GIAMBELLI_ARGS = {
    "S": TautSub(), "S*": Dual(TautSub()), "S**": Dual(Dual(TautSub())),
    "Q": TautQuot(), "Q*": Dual(TautQuot()), "Q**": Dual(Dual(TautQuot())),
}


@pytest.mark.parametrize("space", [
    GR24, Grassmannian(2, 5), GR26, GR36, Grassmannian(3, 7), Grassmannian(3, 8),
    Grassmannian(3, 9), CONICS,
], ids=repr)
def test_giambelli_sym_segre_and_euler_classes_come_off_the_root_layers(space):
    # the Segre classes of a Sym of S, Q or a dual of either come from the
    # layered inverse root product, the Chern classes from the box-packed
    # one: they must be each other's inverse series, s_k = -sum c_i s_(k-i).
    # The Euler class is the top layer alone, equal to the top Chern class,
    # and zero when the rank exceeds the dimension
    for name, X in GIAMBELLI_ARGS.items():
        for d in range(7):
            if rank(X, space) > 4 and d > 2:
                continue  # Q of rank 5 or 6: each Sym^3 up takes 0.2 s or more
            expr = Sym(d, X)
            cs = chern_classes(expr, space)
            inverse = [unit(space)]
            for k in range(1, space.dim + 1):
                inverse.append(zero(space))
                for i in range(1, min(k, len(cs) - 1) + 1):
                    inverse[k] = inverse[k] - cs[i] * inverse[k - i]
            assert list(segre_classes(expr, space, space.dim)) == inverse, (name, d)
            euler = euler_class(expr, space)
            assert euler == cs[-1], (name, d)
            if rank(expr, space) > space.dim:
                assert euler.is_zero(), (name, d)
