"""Chern, Segre, and Euler classes of bundle expressions.

Chern and Segre classes are one walk over the expression tree: it builds
c(E)^sign, the Chern classes c(E) for sign = 1 and the Segre classes
s(E) = 1 / c(E) for sign = -1, with one rule per constructor:

- a bundle that does not mention the relative O(k) of a projective bundle
  is evaluated on the base and pulled back, for either sign, so the root
  expansion always runs at the smallest possible truncation;
- tautological classes on Gr(k, n): c_i(S) = (-1)^i sigma_{(1^i)} and
  c_i(Q) = sigma_{(i)}; since c(S) c(Q) = 1, s(S) = c(Q) and s(Q) = c(S);
- a dual flips the sign of the odd classes, and a trivial bundle has 1;
- a twist by a line bundle L, with e = rank E and l = c1(L), is the
  degree-k part of sum_i x_i (1 + l)^(sign * e - i), with x = c(E)^sign; for
  Segre classes the binomial has a negative top, so the twisted bundle's
  own Chern classes are never built;
- the relative O(k) has c = 1 + l and s = sum_j (-l)^j, with l = k * zeta;
- a quotient has c(top / sub) = c(top) s(sub), read up to its rank;
- symmetric powers go through Chern roots: given the degree d and the
  rank of the argument, `symfunc.expand_linear_product` expands the
  product of the Sym^d root forms in the Schur basis as one packed integer,
  box-bounded, and each s_lam of the argument is a class of the space.
  When the argument is S, Q or a dual of either, s_lam is read off by
  Giambelli as a signed Schubert class, s_lam(S*) = sigma_lam and
  s_lam(Q) = sigma_lam', with (-1)^|lam| per dual, so the class is one
  linear combination and needs no ring product; the expansion then stops at
  the box of the bottom Grassmannian, lam_1 <= n - k for S and S* and
  lam_1 <= k for Q and Q*, outside which the Schubert class is zero.  Any
  other argument builds s_lam by the Pieri rule from the complete classes
  h_j = (-1)^j s_j, s_j its Segre classes, with no box.

Only symmetric powers and quotients take the inverse series for their
Segre classes, s_k = -sum_{i>=1} c_i s_(k-i).  A quotient must: when the
sub is not contained in the top, the quotient is virtual, its Chern classes
stop at its rank, and s(top) c(sub) is not their inverse.

On a tower the twist's x_i and the quotient's c(top) are mostly pulled-back
classes, and a pulled-back class times a tower element costs one base
product per slot.  Tower slots stay unreduced, so a power of
l = c1(O(k)) = k * zeta is one slot shifted, and the twist's series takes no
Schubert product.  Classes above the dimension of the space are zero: they
are not computed, and the Chern tuple is padded with zero classes up to the
rank.  Each class is built as one `chow.sum_of_products`, and the tower
relation is never applied.  The walk is cached per (expression, space,
sign).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import bundles, chow, symfunc
from .bundles import (
    BundleExpr,
    Dual,
    ProjBundle,
    RelO,
    Space,
    Sym,
    TautQuot,
    TautSub,
    TensorLine,
    Trivial,
    WhitneyQuotient,
)
from .chow import ChowElement


# cached apart from the walk, so that its cache counts only the calls from
# outside; bench/tracing.py reads them
@lru_cache(maxsize=None)
def chern_classes(expr: BundleExpr, space: Space) -> tuple[ChowElement, ...]:
    """The tuple (c_0, ..., c_rank) of `expr` on `space`."""
    return _classes(expr, space, 1)


def segre_classes(expr: BundleExpr, space: Space, up_to: int) -> tuple[ChowElement, ...]:
    """(s_0, ..., s_up_to), the inverse power series of the total Chern class."""
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    ss = _classes(expr, space, -1)
    return ss[: up_to + 1] + (chow.zero(space),) * (up_to + 1 - len(ss))


def euler_class(expr: BundleExpr, space: Space) -> ChowElement:
    """Top Chern class; of a quotient, only that class is built."""
    if not isinstance(expr, WhitneyQuotient):
        return chern_classes(expr, space)[-1]
    rq = bundles.rank(expr, space)
    if rq > space.dim:
        return chow.zero(space)
    return _product_part(_classes(expr.top, space, 1), _classes(expr.sub, space, -1), rq, space)


def total_chern(expr: BundleExpr, space: Space) -> ChowElement:
    return chow.sum_of_products(
        space, ((1, c, None) for c in chern_classes(expr, space))
    )


@lru_cache(maxsize=None)
def _classes(expr: BundleExpr, space: Space, sign: int) -> tuple[ChowElement, ...]:
    """c(expr)^sign on `space`: (c_0, ..., c_rank) for sign 1, the Chern
    classes, and (s_0, ..., s_dim) for sign -1, the Segre classes."""
    r = bundles.rank(expr, space)
    n = (r if sign > 0 else space.dim) + 1
    if isinstance(space, ProjBundle) and not bundles.mentions_rel(expr):
        out = tuple(chow.pullback(space, x) for x in _classes(expr, space.base, sign))
    elif isinstance(expr, (TautSub, TautQuot)):
        # c(S) c(Q) = 1: c_i(S) = (-1)^i sigma_(1^i) = s_i(Q) and
        # c_i(Q) = sigma_(i) = s_i(S), zero outside the box
        if isinstance(expr, TautQuot) == (sign > 0):
            out = tuple(chow.sigma(space, (i,)) for i in range(n))
        else:
            out = tuple((-1) ** i * chow.sigma(space, (1,) * i) for i in range(n))
    elif isinstance(expr, Trivial):
        out = (chow.unit(space),)
    elif isinstance(expr, Dual):
        out = tuple((-1) ** i * x for i, x in enumerate(_classes(expr.arg, space, sign)))
    elif isinstance(expr, TensorLine):
        out = _twist_classes(expr.arg, expr.line, space, sign)
    elif isinstance(expr, RelO):
        # 1 + l and sum_j (-l)^j, with l = twist * zeta
        ell = sign * expr.twist * chow.zeta(space)
        out = [chow.unit(space), ell]
        while len(out) < n:
            out.append(out[-1] * ell)
    elif sign < 0:
        # Sym and quotients take the inverse series, s_k = -sum_{i>=1} c_i s_(k-i)
        cs, out = _classes(expr, space, 1), [chow.unit(space)]
        for k in range(1, n):
            out.append(chow.sum_of_products(
                space, ((-1, cs[i], out[k - i]) for i in range(1, min(k, r) + 1))
            ))
    elif isinstance(expr, Sym):
        out = _sym_classes(expr, space)
    else:  # bundles.rank rejected anything but a quotient
        out = _quotient_classes(expr.top, expr.sub, space)
    return tuple(out) + (chow.zero(space),) * (n - len(out))


def _sym_classes(expr: Sym, space: Space) -> tuple[ChowElement, ...]:
    r, ra = bundles.rank(expr, space), bundles.rank(expr.arg, space)
    cols, schur = _schur_classes(expr.arg, space, min(space.dim, r))
    coeffs = symfunc.expand_linear_product(expr.degree, ra, space.dim, cols)
    by_weight: list[list] = [[] for _ in range(r + 1)]
    for lam, c in coeffs.items():
        sign, x = schur(lam)
        by_weight[symfunc.weight(lam)].append((sign * c, x, None))
    return tuple(chow.sum_of_products(space, terms) for terms in by_weight)


def _schur_classes(arg: BundleExpr, space: Space, top: int):
    """(cols, schur): schur(lam) = (sign, x) with s_lam(arg) = sign * x, for
    |lam| <= top.  When cols is not None, s_lam(arg) is zero for lam_1 > cols."""
    inner, duals = arg, 0
    while isinstance(inner, Dual):
        inner, duals = inner.arg, duals + 1
    if isinstance(inner, (TautSub, TautQuot)):
        # Giambelli: s_lam(S*) = sigma_lam and s_lam(Q) = sigma_lam', and
        # s_lam(E*) = (-1)^|lam| s_lam(E); S is the dual of S*.  A Schubert
        # class outside the k x (n - k) box is zero, so lam_1 <= n - k for
        # S and S*, and lam_1 <= k for Q and Q*
        g = bundles.bottom_grassmannian(space)
        transpose = isinstance(inner, TautQuot)
        duals += not transpose
        return g.k if transpose else g.n - g.k, lambda lam: (
            (-1) ** (duals * symfunc.weight(lam)),
            chow.sigma(space, symfunc.conjugate(lam) if transpose else lam),
        )

    h = [(-1) ** j * sj for j, sj in enumerate(segre_classes(arg, space, top))]
    schur = {symfunc.partition([j]): hj for j, hj in enumerate(h)}

    def s(lam: symfunc.Partition) -> ChowElement:
        # Pieri: h_last * s_head is s_lam plus s_nu for the other strips nu,
        # each of which has a shorter last row
        if lam not in schur:
            head, last = lam[:-1], lam[-1]
            strips = [nu for nu, _ in symfunc.schubert_product(head, (last,), len(lam), space.dim)]
            schur[lam] = chow.sum_of_products(
                space,
                [(1, h[last], s(head))]
                + [(-1, s(nu), None) for nu in strips if nu != lam],
            )
        return schur[lam]

    return None, lambda lam: (1, s(lam))


def _twist_classes(
    arg: BundleExpr, line: BundleExpr, space: Space, sign: int
) -> tuple[ChowElement, ...]:
    # c(E ox L)^sign = sum_i x_i (1 + l)^(sign e - i), with x = c(E)^sign,
    # e = rank E and l = c1(L); bundles.rank checked that L is a line
    e, xs = bundles.rank(arg, space), _classes(arg, space, sign)
    top = min(len(xs) - 1, space.dim)
    ell, pows = _classes(line, space, 1)[1], [chow.unit(space)]
    for _ in range(top):
        pows.append(pows[-1] * ell)
    return tuple(
        chow.sum_of_products(
            space, ((_binomial(sign * e - i, k - i), xs[i], pows[k - i]) for i in range(k + 1))
        )
        for k in range(top + 1)
    )


def _binomial(top: int, j: int) -> int:
    """binom(top, j) for a top of either sign: (-1)^j binom(j - top - 1, j)
    when top < 0."""
    return comb(top, j) if top >= 0 else (-1) ** j * comb(j - top - 1, j)


def _quotient_classes(top: BundleExpr, sub: BundleExpr, space: Space) -> tuple[ChowElement, ...]:
    # c(top / sub) = c(top) s(sub), read up to the rank of the quotient,
    # which is at most the rank of top
    rq = bundles.rank(top, space) - bundles.rank(sub, space)
    cs, ss = _classes(top, space, 1), _classes(sub, space, -1)
    return tuple(_product_part(cs, ss, k, space) for k in range(min(rq, space.dim) + 1))


def _product_part(xs, ys, k: int, space: Space) -> ChowElement:
    """The degree-k class of the product of two series, sum_i x_(k-i) y_i."""
    return chow.sum_of_products(space, ((1, xs[k - i], ys[i]) for i in range(k + 1)))
