from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from curvecount.gwdt import (
    MAX_COVER_DEGREE,
    InvariantTable,
    MissingDivisorError,
    am_localization_verify,
    aspinwall_morrison_factor,
    dt_from_gw,
    fixed_trees,
    gw_from_dt,
    moebius,
)


def test_moebius_values():
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        moebius(0)


def test_table_validation():
    with pytest.raises(ValueError):
        InvariantTable("BPS", {1: Fraction(1)})
    with pytest.raises(ValueError):
        InvariantTable("GW", {0: Fraction(1)})
    table = InvariantTable("DT", {1: Fraction(5)})
    with pytest.raises(MissingDivisorError):
        table[2]


def test_conversion_requires_matching_label():
    gw = InvariantTable("GW", {1: Fraction(1)})
    with pytest.raises(ValueError):
        gw_from_dt(gw)
    dt = InvariantTable("DT", {1: Fraction(1)})
    with pytest.raises(ValueError):
        dt_from_gw(dt)


def test_degree_two_cover_sum():
    dt = InvariantTable("DT", {1: Fraction(60480), 2: Fraction(440884080)})
    gw = gw_from_dt(dt)
    assert gw[1] == 60480
    assert gw[2] == 440899200
    lines_only = gw_from_dt(InvariantTable("DT", {1: dt[1], 2: Fraction(0)}))
    assert gw[2] == dt[2] + lines_only[2]


def test_cover_component_contribution():
    # degree-2 covers of the lines alone contribute dt_line / 4 to GW
    lines = gw_from_dt(InvariantTable("DT", {1: Fraction(60480), 2: Fraction(0)}))
    assert lines[2] == 15120
    # two incidence choices times the 1/8 cover factor
    one_line = gw_from_dt(InvariantTable("DT", {1: Fraction(1), 2: Fraction(0)}))
    assert one_line[2] == 2 * aspinwall_morrison_factor(2)


def test_inversion_roundtrip_explicit():
    dt = InvariantTable("DT", {m: Fraction(m * m + 1, 3) for m in range(1, 13)})
    back = dt_from_gw(gw_from_dt(dt))
    for m in dt.values:
        assert back[m] == dt[m]


@given(st.dictionaries(st.integers(min_value=1, max_value=12),
                       st.fractions(), min_size=1))
@settings(max_examples=40, deadline=None)
def test_inversion_roundtrip(table):
    # close the degree set under divisors so every lookup lands
    full = dict(table)
    for m in list(full):
        for k in range(1, m + 1):
            if m % k == 0:
                full.setdefault(k, Fraction(0))
    dt = InvariantTable("DT", full)
    back = dt_from_gw(gw_from_dt(dt))
    for m in full:
        assert back[m] == dt[m]


def test_aspinwall_morrison_factor():
    assert aspinwall_morrison_factor(1) == 1
    assert aspinwall_morrison_factor(2) == Fraction(1, 8)
    assert aspinwall_morrison_factor(3) == Fraction(1, 27)
    with pytest.raises(ValueError):
        aspinwall_morrison_factor(0)


def test_fixed_tree_weights_match_automorphism_orders():
    # sum of 1/|Aut| over the isomorphism classes of colored, degree-labelled
    # trees; d = 3 has the edge, two legs of degrees 1 and 2 (both
    # colorings), the alternating chain, and two stars with |Aut| = 6
    for d, expected in ((1, 1), (2, 2), (3, Fraction(13, 3))):
        weights = (Fraction(1, factorial(len(colors))) for colors, _ in fixed_trees(d))
        assert sum(weights) == expected


def test_fixed_trees_are_bipartite_degree_d_trees():
    for d in range(1, MAX_COVER_DEGREE + 1):
        for colors, edges in fixed_trees(d):
            assert len(edges) == len(colors) - 1
            assert sum(de for _u, _v, de in edges) == d
            assert all(colors[u] != colors[v] and de > 0 for u, v, de in edges)


def test_cover_degree_out_of_range_is_rejected():
    for d in (0, MAX_COVER_DEGREE + 1):
        with pytest.raises(ValueError):
            list(fixed_trees(d))
        with pytest.raises(ValueError):
            am_localization_verify(d)


@pytest.mark.parametrize("d,expected", [
    (1, Fraction(1)), (2, Fraction(1, 8)), (3, Fraction(1, 27)),
    (4, Fraction(1, 64)), (5, Fraction(1, 125)),
])
def test_localization_reproduces_cover_factor(d, expected):
    for seed in (0, 1):
        assert am_localization_verify(d, seed) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_localization_is_weight_independent(seed):
    for d in (1, 2, 3):
        assert am_localization_verify(d, seed) == aspinwall_morrison_factor(d)
