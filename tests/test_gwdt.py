from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curvecount.gwdt import (
    CoverGraph,
    InvariantTable,
    MissingDivisorError,
    am_localization_verify,
    aspinwall_morrison_factor,
    cover_graphs,
    dt_from_gw,
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


def test_cover_graph_counts():
    assert len(cover_graphs(1)) == 1
    assert len(cover_graphs(2)) == 3
    assert len(cover_graphs(3)) == 6
    with pytest.raises(ValueError):
        cover_graphs(4)


def test_cover_graph_degrees_sum():
    for d in (1, 2, 3):
        for g in cover_graphs(d):
            assert sum(de for _u, _v, de in g.edges) == d


def test_graphs_reject_equal_colored_edge():
    bad = CoverGraph((0, 0), ((0, 1, 1),), 1)
    from curvecount.gwdt import _graph_contribution

    with pytest.raises(ValueError):
        _graph_contribution(bad, Fraction(0), Fraction(1))


@pytest.mark.parametrize("d,expected", [(1, Fraction(1)), (2, Fraction(1, 8)), (3, Fraction(1, 27))])
def test_localization_reproduces_cover_factor(d, expected):
    assert am_localization_verify(d) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_localization_is_weight_independent(seed):
    for d in (1, 2, 3):
        assert am_localization_verify(d, seed) == aspinwall_morrison_factor(d)
