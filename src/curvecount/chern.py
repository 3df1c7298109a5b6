"""Chern, Segre, and Euler classes of bundle expressions.

Evaluation rules:

- tautological classes on Gr(k, n): c_i(S) = (-1)^i sigma_{(1^i)},
  c_i(Q) = sigma_{(i)};
- duals flip the sign of odd classes;
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
  h_j = (-1)^j s_j, s_j its Segre classes, with no box;
- twists by a line bundle use c_k(E ox L) =
  sum_i binom(rank E - i, k - i) c_i(E) c1(L)^(k-i);
- quotients multiply by the Segre series of the sub:
  c_k(top / sub) = sum_i c_(k-i)(top) s_i(sub), for k up to the rank;
- the relative O(k) of a projective bundle has c1 = k * zeta.

Segre classes, s = 1 / c, follow three rules:

- a bundle that does not mention the relative O(k) takes the series of the
  base, pulled back;
- a twist uses s_k(E ox L) = sum_j (-1)^(k-j) binom(e+k-1, k-j) s_j(E) l^(k-j),
  with e = rank E and l = c1(L), the degree-k part of
  sum_j s_j(E) (1 + l)^(-e-j), so the twisted bundle's own Chern classes are
  never built;
- any other bundle takes the inverse series, s_k = -sum_{i>=1} c_i s_(k-i).

On a tower the twist's s_j(E) and the quotient's c(top) are then mostly
pulled-back classes, and a pulled-back class times a tower element costs one
base product per slot instead of one per pair of slots.

Everything on a projective bundle that does not mention the relative O(k) is
evaluated on the base and pulled back, so the root expansion always runs at
the smallest possible truncation.  Classes above the dimension of the space
are zero: they are not computed, and the tuple is padded with zero classes
up to the rank.  Each class is built as one `chow.sum_of_products`, so the
tower relation is applied once per class.  Chern classes and Segre series
are cached per (expression, space).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import bundles, chow, symfunc
from .bundles import (
    BundleExpr,
    Dual,
    Grassmannian,
    InvalidBundleError,
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


@lru_cache(maxsize=None)
def chern_classes(expr: BundleExpr, space: Space) -> tuple[ChowElement, ...]:
    """The tuple (c_0, ..., c_rank) of `expr` on `space`."""
    r = bundles.rank(expr, space)

    if isinstance(space, ProjBundle) and not bundles.mentions_rel(expr):
        return tuple(
            chow.pullback(space, c) for c in chern_classes(expr, space.base)
        )

    if isinstance(expr, TautSub):
        assert isinstance(space, Grassmannian)
        return tuple(
            (-1) ** i * chow.sigma(space, (1,) * i) for i in range(r + 1)
        )
    if isinstance(expr, TautQuot):
        assert isinstance(space, Grassmannian)
        return tuple(chow.sigma(space, (i,)) for i in range(r + 1))
    if isinstance(expr, Trivial):
        return (chow.unit(space),) + (chow.zero(space),) * r
    if isinstance(expr, Dual):
        inner = chern_classes(expr.arg, space)
        return tuple((-1) ** i * c for i, c in enumerate(inner))
    if isinstance(expr, Sym):
        return _sym_classes(expr, space)
    if isinstance(expr, TensorLine):
        return _twist_classes(expr.arg, expr.line, space)
    if isinstance(expr, WhitneyQuotient):
        return _quotient_classes(expr.top, expr.sub, space)
    if isinstance(expr, RelO):
        return (chow.unit(space), expr.twist * chow.zeta(space))
    raise InvalidBundleError(f"not a bundle expression: {expr!r}")


def euler_class(expr: BundleExpr, space: Space) -> ChowElement:
    """Top Chern class; of a quotient, only that class is built."""
    if not isinstance(expr, WhitneyQuotient):
        return chern_classes(expr, space)[-1]
    rq = bundles.rank(expr, space)
    if rq > space.dim:
        return chow.zero(space)
    return _quotient_class(expr.top, expr.sub, space, rq)


def total_chern(expr: BundleExpr, space: Space) -> ChowElement:
    return chow.sum_of_products(
        space, ((1, c, None) for c in chern_classes(expr, space))
    )


def segre_classes(expr: BundleExpr, space: Space, up_to: int) -> tuple[ChowElement, ...]:
    """(s_0, ..., s_up_to), the inverse power series of the total Chern class."""
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    ss = _segre_series(expr, space)
    return ss[: up_to + 1] + (chow.zero(space),) * (up_to + 1 - len(ss))


@lru_cache(maxsize=None)
def _segre_series(expr: BundleExpr, space: Space) -> tuple[ChowElement, ...]:
    """(s_0, ..., s_dim) of `expr` on `space`; higher classes are zero."""
    if isinstance(space, ProjBundle) and not bundles.mentions_rel(expr):
        base = tuple(chow.pullback(space, s) for s in _segre_series(expr, space.base))
        return base + (chow.zero(space),) * (space.dim + 1 - len(base))

    if isinstance(expr, TensorLine):
        # s(E ox L) = sum_j s_j(E) (1 + l)^(-e-j); bundles.rank checks that
        # L is a line, and e = rank E
        e = bundles.rank(expr, space)
        arg_ss = _segre_series(expr.arg, space)
        ell_pows = _line_powers(expr.line, space, space.dim)
        return (chow.unit(space),) + tuple(
            chow.sum_of_products(space, (
                ((-1) ** (k - j) * comb(e + k - 1, k - j), arg_ss[j], ell_pows[k - j])
                for j in range(k + 1)
            ))
            for k in range(1, space.dim + 1)
        )

    # the inverse series: s_k = -sum_{i=1}^{k} c_i s_(k-i)
    cs = chern_classes(expr, space)
    out = [chow.unit(space)]
    for k in range(1, space.dim + 1):
        out.append(
            chow.sum_of_products(
                space, ((-1, cs[i], out[k - i]) for i in range(1, min(k, len(cs) - 1) + 1))
            )
        )
    return tuple(out)


def _line_powers(line: BundleExpr, space: Space, top: int) -> list[ChowElement]:
    """[1, l, ..., l^top] for l = c1(line)."""
    ell = chern_classes(line, space)[1]
    pows = [chow.unit(space)]
    for _ in range(top):
        pows.append(pows[-1] * ell)
    return pows


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
            strips = symfunc.pieri_multiply(head, last, (len(lam), space.dim))
            schur[lam] = chow.sum_of_products(
                space,
                [(1, h[last], s(head))]
                + [(-1, s(nu), None) for nu in strips if nu != lam],
            )
        return schur[lam]

    return None, lambda lam: (1, s(lam))


def _twist_classes(arg: BundleExpr, line: BundleExpr, space: Space) -> tuple[ChowElement, ...]:
    # chern_classes validated the tree through bundles.rank: `line` has rank 1
    re = bundles.rank(arg, space)
    top = min(re, space.dim)
    arg_cs = chern_classes(arg, space)
    ell_pows = _line_powers(line, space, top)
    out = [
        chow.sum_of_products(
            space,
            ((comb(re - i, k - i), arg_cs[i], ell_pows[k - i]) for i in range(k + 1)),
        )
        for k in range(top + 1)
    ]
    return tuple(out) + (chow.zero(space),) * (re - top)


def _quotient_classes(top: BundleExpr, sub: BundleExpr, space: Space) -> tuple[ChowElement, ...]:
    # c(top / sub) = c(top) s(sub), read up to the rank of the quotient,
    # which is at most the rank of top
    rq = bundles.rank(top, space) - bundles.rank(sub, space)
    last = min(rq, space.dim)
    out = tuple(_quotient_class(top, sub, space, k) for k in range(last + 1))
    return out + (chow.zero(space),) * (rq - last)


def _quotient_class(top: BundleExpr, sub: BundleExpr, space: Space, k: int) -> ChowElement:
    """c_k(top / sub) = sum_i c_(k-i)(top) s_i(sub), for k <= rank, dim."""
    top_cs, sub_ss = chern_classes(top, space), _segre_series(sub, space)
    return chow.sum_of_products(space, ((1, top_cs[k - i], sub_ss[i]) for i in range(k + 1)))
