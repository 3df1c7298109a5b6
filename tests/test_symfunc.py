import time
from fractions import Fraction
from itertools import permutations
from math import comb, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from curvecount import symfunc
from curvecount.symfunc import (
    box_complement,
    contains,
    elementary_symmetric,
    expand_linear_product,
    fits_box,
    partition,
    schubert_product,
    sym_power_roots,
    weight,
)


@st.composite
def partitions_in_box(draw, rows=3, cols=3):
    parts = []
    prev = cols
    for _ in range(rows):
        nxt = draw(st.integers(min_value=0, max_value=prev))
        parts.append(nxt)
        prev = nxt
    return partition(parts)


def test_partition_normalizes_trailing_zeros():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition([]) == ()
    assert partition((2,)) == (2,)


def test_partition_rejects_increasing():
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])


def test_weight():
    assert weight((3, 1)) == 4


def test_contains():
    assert contains((3, 2), (2, 2))
    assert contains((3, 2), ())
    assert not contains((3, 2), (2, 2, 1))
    assert not contains((3, 2), (4,))


def test_box_complement():
    assert box_complement((3, 1), 2, 3) == (2,)
    assert box_complement((), 2, 2) == (2, 2)
    assert box_complement((2, 2), 2, 2) == ()


def _box(rows, cols):
    return tuple(symfunc._partitions(rows, cols, rows * cols))


def _lr(lam, mu, nu):
    # c^nu_{lam,mu}, read off the product in the smallest box that holds nu
    return dict(schubert_product(lam, mu, len(nu), nu[0] if nu else 0)).get(nu, 0)


def _pieri(lam, i, rows, cols):
    # the Pieri step of chern._schur_classes: the shapes of sigma_lam * sigma_i
    return [nu for nu, _ in schubert_product(lam, partition([i]), rows, cols)]


def test_box_partition_count_matches_binomial():
    # partitions in a k x (n-k) box index the Schubert basis of Gr(k, n)
    assert len(_box(3, 3)) == comb(6, 3)
    assert len(_box(2, 2)) == comb(4, 2)
    assert len(_box(2, 3)) == comb(5, 2)


def test_box_partitions_small():
    assert set(_box(2, 2)) == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}


def test_pieri_horizontal_strips():
    assert set(_pieri((1,), 1, 2, 2)) == {(2,), (1, 1)}
    assert set(_pieri((2,), 2, 2, 2)) == {(2, 2)}
    assert _pieri((2, 2), 1, 2, 2) == []
    assert set(_pieri((2, 1), 1, 3, 3)) == {(3, 1), (2, 2), (2, 1, 1)}


def test_pieri_zero_row_is_identity():
    assert _pieri((2, 1), 0, 3, 3) == [(2, 1)]


def test_lr_small_values():
    assert _lr((2,), (1,), (2, 1)) == 1
    assert _lr((1, 1), (2,), (2, 2)) == 0
    assert _lr((1,), (1,), (2,)) == 1
    assert _lr((1,), (1,), (1, 1)) == 1
    assert _lr((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_weight_mismatch_is_zero():
    assert _lr((2,), (1,), (2, 2)) == 0


@given(partitions_in_box(), partitions_in_box())
@settings(max_examples=60, deadline=None)
def test_lr_commutes(lam, mu):
    # schubert_product serves both orders from one walk, so the walk itself
    # runs in both orders here
    outer = (3, 3, 3)
    assert symfunc._strip_walk(lam, mu, outer) == symfunc._strip_walk(mu, lam, outer)


def _horizontal_strip(nu, lam, rows):
    # nu/lam is a horizontal strip when the rows interlace:
    # nu_1 >= lam_1 >= nu_2 >= lam_2 >= ...
    lam, nu = lam + (0,) * (rows - len(lam)), nu + (0,) * (rows + 1 - len(nu))
    return all(nu[j + 1] <= lam[j] <= nu[j] for j in range(rows))


@given(partitions_in_box(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_lr_agrees_with_pieri(lam, i):
    # multiplying by a one-row shape must reproduce the Pieri expansion: one
    # of every shape in the box that adds a horizontal strip of i cells
    for nu in _box(3, 3):
        expected = weight(nu) == weight(lam) + i and _horizontal_strip(nu, lam, 3)
        assert _lr(lam, partition([i]), nu) == expected


def _reference_lr(lam, mu, nu):
    # Littlewood-Richardson by direct search: column-strict fillings of nu/lam
    # with content mu whose reverse reading word is a lattice word, cell by
    # cell in reading order (rows top to bottom, each row right to left)
    if weight(lam) + weight(mu) != weight(nu) or not contains(nu, lam):
        return 0
    if not mu:
        return 1
    nrows = len(nu)
    lam_p = list(lam) + [0] * (nrows - len(lam))
    cells = [(r, c) for r in range(nrows) for c in range(nu[r] - 1, lam_p[r] - 1, -1)]
    mlen = len(mu)
    counts = [0] * mlen
    filling = [[0] * nu[r] for r in range(nrows)]
    total = 0

    def place(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        right = filling[r][c + 1] if c + 1 < nu[r] else mlen
        above = filling[r - 1][c] if r > 0 and c >= lam_p[r - 1] else 0
        for v in range(above + 1, min(right, mlen) + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            # after placing v the count of v may not exceed the count of v-1
            if v >= 2 and counts[v - 1] >= counts[v - 2]:
                continue
            counts[v - 1] += 1
            filling[r][c] = v
            place(idx + 1)
            counts[v - 1] -= 1
            filling[r][c] = 0

    place(0)
    return total


@pytest.mark.parametrize("rows,cols", [(2, 5), (3, 4), (3, 6), (4, 4)])
def test_schubert_product_matches_the_skew_tableau_search(rows, cols):
    box = _box(rows, cols)
    for lam in box:
        for mu in box:
            expected = {}
            for nu in box:
                c = _reference_lr(lam, mu, nu)
                if c:
                    expected[nu] = c
            assert dict(schubert_product(lam, mu, rows, cols)) == expected, (lam, mu)


def test_lr_numbers_match_the_skew_tableau_search():
    # every triple with |lam| + |mu| = |nu| <= 8; other weights are zero by
    # test_lr_weight_mismatch_is_zero
    by_weight = [[lam for lam in _box(n, n) if weight(lam) == n]
                 for n in range(9)]
    for n in range(9):
        for nu in by_weight[n]:
            for a in range(n + 1):
                for lam in by_weight[a]:
                    for mu in by_weight[n - a]:
                        got = _lr(lam, mu, nu)
                        assert got == _reference_lr(lam, mu, nu), (lam, mu, nu)


def test_schubert_product_expands_in_box():
    prods = dict(schubert_product((1,), (1,), 2, 2))
    assert prods == {(2,): 1, (1, 1): 1}
    top = dict(schubert_product((2, 1), (1,), 2, 2))
    assert top == {(2, 2): 1}


def test_schubert_product_truncates_outside_box():
    assert dict(schubert_product((2, 2), (1,), 2, 2)) == {}
    # a factor outside the box, a row too long or one row too many, in
    # either order
    for lam in ((3,), (1, 1, 1)):
        assert dict(schubert_product(lam, (1,), 2, 2)) == {}
        assert dict(schubert_product((1,), lam, 2, 2)) == {}


def test_sym_power_roots():
    assert sorted(sym_power_roots(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(sym_power_roots(3, 3)) == comb(3 + 3 - 1, 3)
    assert sym_power_roots(0, 2) == ((0, 0),)


def test_elementary_symmetric():
    vals = [Fraction(1), Fraction(2), Fraction(3)]
    assert elementary_symmetric(vals, 0) == 1
    assert elementary_symmetric(vals, 1) == 6
    assert elementary_symmetric(vals, 2) == 11
    assert elementary_symmetric(vals, 3) == 6
    assert elementary_symmetric(vals, 4) == 0


def _product_coefficient(values, k):
    # the t^k coefficient of prod(1 + v t), one factor at a time
    poly = [1]
    for v in values:
        poly = [a + v * b for a, b in zip(poly + [0], [0] + poly)]
    return poly[k] if k < len(poly) else 0


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=9))
@example([])
@settings(max_examples=60, deadline=None)
def test_elementary_symmetric_is_the_product_coefficient(values):
    for k in range(len(values) + 2):
        assert elementary_symmetric(values, k) == _product_coefficient(values, k)


def test_expand_linear_product_sym2_rank2():
    # roots a, b give factors (1+2a)(1+a+b)(1+2b)
    # = 1 + 3s_1 + (2s_2 + 6s_11) + 4s_21
    out = expand_linear_product(2, 2, 3)
    assert out == {(): 1, (1,): 3, (2,): 2, (1, 1): 6, (2, 1): 4}


def test_expand_linear_product_sym3_rank2_top_degree():
    # top degree of (1+3a)(1+2a+b)(1+a+2b)(1+3b) is 9ab(2a^2+5ab+2b^2)
    # = 18 s_31 + 27 s_22
    out = expand_linear_product(3, 2, 4)
    top = {lam: c for lam, c in out.items() if weight(lam) == 4}
    assert top == {(3, 1): 18, (2, 2): 27}


def _det(rows):
    n = len(rows)
    total = 0
    for w in permutations(range(n)):
        sign = (-1) ** sum(w[j] > w[i] for i in range(n) for j in range(i))
        total += sign * prod(rows[i][w[i]] for i in range(n))
    return total


def test_expand_linear_product_matches_bialternant_at_points():
    # untruncated, the product of the forms equals
    # sum_lam c_lam * det(x_i^(lam_j + r - j)) / det(x_i^(r - j)) at any point
    for r in (1, 2, 3):
        for d in (1, 2, 3):
            forms = sym_power_roots(d, r)
            out = expand_linear_product(d, r, len(forms))
            for xs in ((2, 3, 5)[:r], (-1, 4, 7)[:r]):
                lhs = prod(1 + sum(m * x for m, x in zip(f, xs)) for f in forms)
                vandermonde = _det([[x ** (r - 1 - j) for j in range(r)] for x in xs])
                rhs = Fraction(0)
                for lam, c in out.items():
                    parts = list(lam) + [0] * (r - len(lam))
                    alt = _det([[x ** (parts[j] + r - 1 - j) for j in range(r)] for x in xs])
                    rhs += c * Fraction(alt, vandermonde)
                assert rhs == lhs, (d, r, xs)


def _reference_expand(forms, nvars, truncation):
    # the monomial dict product, one factor at a time, and the bialternant
    # read-off c_lam = sum_w sgn(w) [x^(lam + w - id)]
    poly = {(0,) * nvars: 1}
    for m in forms:
        new = dict(poly)
        for ex, c in poly.items():
            if sum(ex) + 1 > truncation:
                continue
            for j, mj in enumerate(m):
                if mj:
                    ex2 = ex[:j] + (ex[j] + 1,) + ex[j + 1:]
                    new[ex2] = new.get(ex2, 0) + c * mj
        poly = {k: v for k, v in new.items() if v}
    out = {}
    for rows in range(nvars + 1):
        for lam in _box(rows, truncation):
            if len(lam) != rows or weight(lam) > truncation:
                continue
            c = 0
            for w in permutations(range(rows)):
                sign = (-1) ** sum(w[j] > w[i] for i in range(rows) for j in range(i))
                ex = tuple(lam[i] + w[i] - i for i in range(rows)) + (0,) * (nvars - rows)
                c += sign * poly.get(ex, 0)
            if c:
                out[lam] = c
    return out


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_expand_linear_product_matches_the_dict_product(nvars):
    # the whole Sym^d product for d = 0..3, which the box test below reads
    # only up to degree 11 when the rank is above 10; truncation 0 keeps 1
    for d in range(4):
        forms = sym_power_roots(d, nvars)
        for truncation in (len(forms), len(forms) + 1):
            got = expand_linear_product(d, nvars, truncation)
            assert got == _reference_expand(forms, nvars, truncation), (d, truncation)
        assert expand_linear_product(d, nvars, 0) == {(): 1}


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_expand_linear_product_in_a_box_is_the_dict_product_inside_it(nvars):
    # Sym^d for d = 0..3 at every truncation up to one past the rank of
    # Sym^d (up to 11 for the ranks above 10): a box width drops exactly the
    # partitions with lam_1 > cols, and the packed product stays exact inside
    for d in range(4):
        forms = sym_power_roots(d, nvars)
        for truncation in range(min(len(forms), 10) + 2):
            expected = _reference_expand(forms, nvars, truncation)
            for cols in (None, 0, 1, 2, 3):
                got = expand_linear_product(d, nvars, truncation, cols)
                inside = {lam: c for lam, c in expected.items()
                          if cols is None or not lam or lam[0] <= cols}
                assert got == inside, (d, truncation, cols)


@pytest.mark.parametrize("truncation", [1, 2])
def test_expand_linear_product_slots_hold_the_degree_past_the_truncation(truncation):
    # a multiply carries every slot one degree past the truncation before the
    # mask drops it, and here those coefficients dwarf the kept ones: a slot
    # sized for the kept degrees alone would carry into a kept slot, for
    # Sym^36 of rank 3 at truncation 1 and Sym^60 of rank 2 at truncation 2
    d, r = {1: (36, 3), 2: (60, 2)}[truncation]
    assert expand_linear_product(d, r, truncation) == _reference_expand(
        sym_power_roots(d, r), r, truncation
    )


def test_expand_linear_product_refuses_a_packed_size_beyond_memory():
    # Sym^2 of a rank-15 bundle up to degree 25 would take some 55 PB per
    # packed integer: refused from its size, before any monomial is listed
    start = time.perf_counter()
    with pytest.raises(MemoryError, match="120 forms in 15 roots"):
        expand_linear_product(2, 15, 25)
    assert time.perf_counter() - start < 0.5


def test_expand_linear_product_rejects_asymmetric(monkeypatch):
    # the Sym^d roots are closed under permuting the roots, so an asymmetric
    # product means the packing went wrong: fed a root set that is not
    # closed, the symmetry check refuses it
    monkeypatch.setattr(symfunc, "sym_power_roots", lambda d, r: ((1, 0), (0, 2)))
    with pytest.raises(ValueError, match="not symmetric"):
        expand_linear_product(1, 2, 2)


def test_fits_box():
    assert fits_box((2, 2), 2, 2)
    assert not fits_box((3,), 2, 2)
    assert not fits_box((1, 1, 1), 2, 2)
