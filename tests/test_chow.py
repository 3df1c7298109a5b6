import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from curvecount import chow, expr as ex
from curvecount.bundles import Dual, Grassmannian, ProjBundle, Sym, TautSub, Trivial
from curvecount.chern import chern_classes
from curvecount.chow import (
    ChowElement,
    SpaceMismatchError,
    integrate,
    pullback,
    pushforward,
    sigma,
    unit,
    zero,
    zeta,
)
from curvecount.symfunc import _partitions, box_complement, schubert_product, weight

GR24 = Grassmannian(2, 4)
GR25 = Grassmannian(2, 5)
GR36 = Grassmannian(3, 6)
PS = ProjBundle(GR24, TautSub())
PS_S = ProjBundle(PS, TautSub())
CONICS_35 = ProjBundle(Grassmannian(3, 5), Sym(2, Dual(TautSub())))
# rank - 1 exceeds the base dimension
P2_OVER_GR12 = ProjBundle(Grassmannian(1, 2), Trivial(3))


def test_grassmannian_validation():
    with pytest.raises(ValueError):
        Grassmannian(0, 4)
    with pytest.raises(ValueError):
        Grassmannian(4, 4)
    assert GR36.dim == 9
    assert repr(GR24) == "Gr(2,4)"


def test_sigma_outside_box_is_zero():
    assert sigma(GR24, (3,)).is_zero()
    assert sigma(GR24, (1, 1, 1)).is_zero()


def test_sigma1_squared():
    s1 = sigma(GR24, (1,))
    assert s1 * s1 == sigma(GR24, (2,)) + sigma(GR24, (1, 1))


def test_ring_unit_and_zero():
    s = sigma(GR36, (2, 1))
    assert s * unit(GR36) == s
    assert s + zero(GR36) == s
    assert s - s == zero(GR36)
    assert 0 * s == zero(GR36)


def test_scalar_multiplication_is_exact():
    s = sigma(GR24, (1,))
    assert Fraction(1, 2) * (2 * s) == s
    assert (s * Fraction(3, 7)).coefficient((1,)) == Fraction(3, 7)


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatchError):
        sigma(GR24, (1,)) * sigma(GR25, (1,))
    with pytest.raises(SpaceMismatchError):
        sigma(GR24, (1,)) + sigma(GR36, (1,))


def _iterated_pieri_integral(power: int, rows: int, cols: int) -> int:
    # walk sigma_1^power through the Pieri rule and read off the top class
    state = {(): 1}
    for _ in range(power):
        nxt: dict = {}
        for lam, c in state.items():
            for mu, _ in schubert_product(lam, (1,), rows, cols):
                nxt[mu] = nxt.get(mu, 0) + c
        state = nxt
    return state.get((cols,) * rows, 0)


def test_sigma1_power_integral_matches_pieri_walk():
    s1 = sigma(GR24, (1,))
    assert integrate(s1 ** 4) == 2
    assert integrate(s1 ** 4) == _iterated_pieri_integral(4, 2, 2)
    t1 = sigma(GR25, (1,))
    assert integrate(t1 ** 6) == _iterated_pieri_integral(6, 2, 3)
    u1 = sigma(GR36, (1,))
    assert integrate(u1 ** 9) == _iterated_pieri_integral(9, 3, 3)


def test_integrate_below_top_degree_is_zero():
    assert integrate(sigma(GR24, (2, 1))) == 0
    assert integrate(unit(GR24)) == 0


@pytest.mark.parametrize("gr", [GR24, GR25, GR36])
def test_poincare_duality(gr):
    top = gr.rows * gr.cols
    box = tuple(_partitions(gr.rows, gr.cols, top))
    for lam in box:
        for mu in box:
            if weight(lam) + weight(mu) != top:
                continue
            expected = 1 if mu == box_complement(lam, gr.rows, gr.cols) else 0
            assert integrate(sigma(gr, lam) * sigma(gr, mu)) == expected


def _random_element(space, rng):
    # a random normal form: random Schubert sums in every slot of every level
    if isinstance(space, ProjBundle):
        return ChowElement(
            space, [_random_element(space.base, rng) for _ in range(space.rank)]
        )
    out = zero(space)
    for lam in _partitions(space.rows, space.cols, space.dim):
        if rng.random() < 0.4:
            out = out + rng.randint(-3, 3) * sigma(space, lam)
    return out


def test_ring_axioms_on_random_elements():
    rng = random.Random(7)
    # a Grassmannian, towers of depth one and two, and the conic bundle
    for space, rounds in ((GR36, 12), (PS, 6), (PS_S, 4), (CONICS_35, 3)):
        for _ in range(rounds):
            a = _random_element(space, rng)
            b = _random_element(space, rng)
            c = _random_element(space, rng)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            # graded: the degree parts sum back to `a`, and a class of
            # degree one moves each part up by one
            parts = [a.degree_part(d) for d in range(space.dim + 1)]
            assert sum(parts[1:], parts[0]) == a
            h = zeta(space) if isinstance(space, ProjBundle) else sigma(space, (1,))
            for d, part in enumerate(parts):
                assert h * part == (h * a).degree_part(d + 1), (space, d)


def _repeated_power(x, n):
    out = unit(x.space)
    for _ in range(n):
        out = out * x
    return out


def test_power_is_the_repeated_product():
    # the binomial expansion around the degree-0 part, against n multiplies:
    # zero, integer and rational constant terms, on a Grassmannian and towers
    rng = random.Random(11)
    for space in (GR36, PS, PS_S):
        for a in (0, 1, -2, Fraction(1, 3)):
            x = a * unit(space) + _random_element(space, rng)
            for n in range(7):
                assert x ** n == _repeated_power(x, n), (space, a, n)
        assert (3 * unit(space)) ** 4 == 81 * unit(space)


def test_huge_power_of_one_plus_a_nilpotent_is_read_at_once():
    # only the powers of the positive-degree part below the dimension are
    # built, so a million-th power takes as long as a fourth
    n = 10**6
    start = time.perf_counter()
    power = ex.evaluate(ex.parse(f"(1+s[1])^{n}"), GR24)
    assert time.perf_counter() - start < 1.0
    assert integrate(power) == comb(n, 4) * integrate(sigma(GR24, (1,)) ** 4)
    start = time.perf_counter()
    power = (2 * unit(PS) + zeta(PS)) ** n
    assert time.perf_counter() - start < 1.0
    assert integrate(power) == comb(n, 5) * 2 ** (n - 5) * integrate(zeta(PS) ** 5)


# -- projective bundle towers ------------------------------------------------


def test_tower_dimensions():
    assert PS.rank == 2
    assert PS.dim == 5
    conics = ProjBundle(GR36, Sym(2, Dual(TautSub())))
    assert conics.rank == 6
    assert conics.dim == 14


def test_rank_zero_bundle_rejected():
    with pytest.raises(ValueError):
        ProjBundle(GR24, Trivial(0))


def test_zeta_squared_reduces_by_the_relation():
    # on P(S) over Gr(2,4): zeta^2 = sigma_1 zeta - sigma_11
    z = zeta(PS)
    s1 = pullback(PS, sigma(GR24, (1,)))
    s11 = pullback(PS, sigma(GR24, (1, 1)))
    assert z * z == s1 * z - s11
    assert z ** 3 == pullback(PS, sigma(GR24, (2,))) * z - pullback(PS, sigma(GR24, (2, 1)))


def test_grothendieck_relation_vanishes():
    # sum of c_i(S) zeta^(2-i) must die after reduction
    z = zeta(PS)
    c1 = pullback(PS, -1 * sigma(GR24, (1,)))
    c2 = pullback(PS, sigma(GR24, (1, 1)))
    assert (z * z + c1 * z + c2).is_zero()


def test_trivial_bundle_tower_is_projective_space():
    pn = ProjBundle(GR24, Trivial(3))
    z = zeta(pn)
    assert pushforward(z ** 2) == unit(GR24)
    assert pushforward(z ** 3).is_zero()
    assert (z ** 3).is_zero()


def test_rank_one_tower_zeta_is_minus_c1():
    # P(L) = base, and the tautological sub-line is L itself, so
    # zeta = c_1(L^dual) = -c_1(L)
    plane = Grassmannian(1, 3)
    line = ProjBundle(plane, TautSub())
    z = zeta(line)
    assert z == pullback(line, sigma(plane, (1,)))


def test_pushforward_reads_top_slot():
    z = zeta(PS)
    s2 = pullback(PS, sigma(GR24, (2,)))
    assert pushforward(z * s2) == sigma(GR24, (2,))
    assert pushforward(s2).is_zero()
    assert pushforward(unit(PS)).is_zero()


def test_pushforward_of_zeta_powers_gives_segre():
    # pi_*(zeta^(r-1+k)) = s_k; for S on Gr(2,4): s_1 = sigma_1, s_2 = sigma_2
    z = zeta(PS)
    assert pushforward(z) == unit(GR24)
    assert pushforward(z ** 2) == sigma(GR24, (1,))
    assert pushforward(z ** 3) == sigma(GR24, (2,))


def test_projection_formula():
    z = zeta(PS)
    a = sigma(GR24, (1, 1))
    assert pushforward(z ** 2 * pullback(PS, a)) == sigma(GR24, (1,)) * a


def test_tower_integration():
    conics = ProjBundle(GR36, Sym(2, Dual(TautSub())))
    z = zeta(conics)
    top = pullback(conics, sigma(GR36, (3, 3, 3)))
    assert integrate(z ** 5 * top) == 1
    # one zeta more picks up s_1(Sym^2 S^dual) = -4 sigma_1
    near = pullback(conics, sigma(GR36, (3, 3, 2)))
    assert integrate(z ** 6 * near) == -4


def test_two_level_tower():
    curve = ProjBundle(PS, TautSub())
    assert curve.dim == 6
    h = zeta(curve)
    zt = pullback(curve, zeta(PS))
    s22 = pullback(curve, pullback(PS, sigma(GR24, (2, 2))))
    assert integrate(h * zt * s22) == 1
    assert pushforward(pushforward(h * zt)) == unit(GR24)


def _reduce_by_hand(space, slots):
    # zeta^m = -sum_{i=1}^{r} c_i(E) zeta^(m-i), one top slot at a time,
    # then each slot the same way on a tower base
    cs = chern_classes(space.bundle, space.base)
    slots, r = list(slots), space.rank
    while len(slots) > r:
        top = slots.pop()
        m = len(slots)
        for i in range(1, r + 1):
            slots[m - i] = slots[m - i] - cs[i] * top
    if isinstance(space.base, ProjBundle):
        slots = [_reduce_by_hand(space.base, list(s.data)) for s in slots]
    return ChowElement(space, slots)


def test_tower_product_is_the_reduced_slot_convolution():
    rng = random.Random(11)
    for space in (PS, PS_S, CONICS_35):
        for _ in range(3):
            a = _random_element(space, rng)
            b = _random_element(space, rng)
            raw = [zero(space.base) for _ in range(2 * space.rank - 1)]
            for i, x in enumerate(a.data):
                for j, y in enumerate(b.data):
                    raw[i + j] = raw[i + j] + x * y
            assert a * b == chow.reduce_tower(space, raw)
            assert a * b == _reduce_by_hand(space, raw)


@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=7, deadline=None)
def test_reduction_is_idempotent(k):
    z = zeta(PS)
    elt = z ** k
    assert elt * unit(PS) == elt
    assert chow.reduce_tower(PS, list(elt.data)) == elt


def _gr_elements(gr):
    box = tuple(_partitions(gr.rows, gr.cols, gr.dim))
    return st.dictionaries(st.sampled_from(box), st.integers(-3, 3), max_size=6).map(
        lambda coeffs: ChowElement(gr, coeffs)
    )


def _slot_lists(space, max_size):
    base = space.base
    slots = _gr_elements(base) if isinstance(base, Grassmannian) else _slot_lists(base, 4).map(
        lambda data: ChowElement(base, data)
    )
    return st.lists(slots, max_size=max_size)


def _top_slot_by_hand(x):
    # the zeta^(r-1) slot of the normal form, read down to the Grassmannian
    while isinstance(x.space, ProjBundle):
        r = x.space.rank
        normal = _reduce_by_hand(x.space, list(x.data)).data
        x = normal[r - 1] if len(normal) >= r else zero(x.space.base)
    return x.coefficient((x.space.cols,) * x.space.rows)


def _plain(x):
    # the stored data, nested down to the Grassmannian's coefficient dicts
    return x.data if isinstance(x.space, Grassmannian) else tuple(map(_plain, x.data))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_segre_normal_form_is_the_relations_slot_for_slot(data):
    # reduce_tower back-substitutes Segre pushforwards; folding by the Chern
    # relation must give the same slots, compared as stored, not through ==
    space = data.draw(st.sampled_from([PS, CONICS_35, PS_S, P2_OVER_GR12]))
    slots = data.draw(_slot_lists(space, 2 * space.dim + 2))
    assert _plain(chow.reduce_tower(space, slots)) == _plain(_reduce_by_hand(space, slots))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_integrate_is_the_top_slot_of_the_normal_form(data):
    # slot lists of any length, past the relation and past the dimension:
    # the Segre pushforward reads what the relation would fold down
    space = data.draw(st.sampled_from([PS, CONICS_35, PS_S]))
    slots = data.draw(_slot_lists(space, 2 * space.dim + 2))
    x = ChowElement(space, slots)
    assert integrate(x) == _top_slot_by_hand(x)
