"""Torus fixed-point integration on Grassmannians and projective bundles.

A torus acts on the ambient n-space with distinct integer weights.  Fixed
points of Gr(k, n) are the k-element coordinate subsets; a projective bundle
adds one fixed point per eigenline of the fiber at each fixed point below,
which requires the fiber weights there to be pairwise distinct.  When they
are not, the weight vector is inadmissible and a retry with fresh weights is
signalled.

A fixed point is one flat record `(subset, levels)`, built only by
`fixed_points`.  `subset` is the k-subset of ambient coordinates; `levels`
holds one pair per tower level, bottom up: the fiber weights at the point
below and the index of the chosen eigenline.  All points over one base point
share one fiber tuple.  Everything else reads the record: S and Q take their
weights from `subset`, O(k) and zeta from the top level's eigenline, and the
tangent weights from `subset` plus each level's fiber.

The integrand is lifted once per `bott_integrate` call, after one walk,
`_check`, refuses zeta off a projective bundle, where it has no lift (an
unsupported expression, not a wrong answer), and every bundle `rank`
rejects, in walk order as the symbolic engine does.  `evaluate_at` and
`bundle_weights` walk the expression once and return per-point evaluators,
functions of (pt, weights, memo), and refuse an atom with no lift, so a
refusal comes before any fixed point is built.  `fixed_points` lifts each
tower level's bundle the same way, so every weight comes from one path.
Supported atoms are rational constants, Schubert classes, zeta (lifted as
minus the weight of the chosen eigenline), and Chern or Euler factors of
bundle expressions.  sigma_1 is c1 of the tautological quotient, the sum of
its weights; any other sigma_lam is the Giambelli determinant
det(c_{lam_i + j - i}(Q)), with c_k(Q) the k-th elementary symmetric
function of the quotient weights.

Each bundle node has a formal character (Ellingsrud-Stromme): its weights
as integer vectors over local slots.  At the subset I of Gr(k, n), slot
j < k is the j-th element of I and slot k + j the j-th of the complement,
both increasing; a weight is its vector dotted with these local weights.
Each rule of `bundle_weights`, the one rule set, is linear in the weights,
so `_character` reads the vectors off it at the unit weight vectors, once
per (node, space) for all chains of eigenline indices (one per level), the
chains sharing one memo per unit vector.  A quotient's weights at a point
are the top's at the positions `_kept` leaves for the chain; a sub not
contained in the top is refused at lift time.

Sym powers are the largest bundles of the integrand (Sym^20 S* has 231
weights at each conic point of P^14), and their weights depend only on the
argument's weights.  `_integrate_once` keeps one memo per `subset`, emptied
when the subset changes.  The evaluators read it at a Sym node, keyed by
(degree, argument weights).  Because the key holds the weights, a Sym of a
twisted argument such as S(1) stays right at every eigenline.  Sym weights
are built by `_sym_weights`, one dot product per exponent vector of all but
the last two argument weights and one arithmetic progression in those two,
so Sym^20 S* takes 21 dot products, not 231.  The memo also holds the
values of the nodes pulled back from the base: on a projective bundle, a
node that mentions neither zeta nor a relative O(k) has one value at every
point over a subset, at any tower depth (the projection formula, localized).
That is decided once, when the integrand is lifted, so such a factor, say
c_3(Q) or sigma_1, is evaluated once per subset rather than once per
eigenline.

The integral is the exact rational sum over fixed points of (numerator
weights) / (product of tangent weights).  Numerators are plain integers,
rational only when the integrand carries a p/q scalar.  The sum is taken one
tower level at a time, each over one Vandermonde product.  A fibre with
weights f_0..f_{r-1} has the tangent product T_i = prod_{m != i}(f_m - f_i)
at its eigenline i, which divides V_f = prod_{a<b}(f_b - f_a); the r points
over one point below sum as the integer sum_i (V_f // T_i) * value_i over
one `Fraction` by V_f.  Points over one point below arrive contiguous from
`fixed_points`, so the tower folds from the top level down, and the base
Grassmannian ends the fold the same way: each base tangent product
T_I = prod_{a in I, b not in I} (w_b - w_a) divides V = prod_{a<b}
(w_b - w_a), so the total is sum_I (V // T_I) * F_I over V, where F_I is
the numerator itself on a Grassmannian and the folded fibre sum on a tower.
So one `Fraction` is formed per point below a fibre, and none is shared by
all fixed points: a least common multiple accumulated over all of them is
slower on a tower, where the fibre denominators never cancel.

This module deliberately shares no ring arithmetic with the symbolic Chow
backend, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from math import prod
from operator import itemgetter, mul

from . import expr as ex
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
    bottom_grassmannian,
    mentions_rel,
    rank,
)
from .symfunc import elementary_symmetric, sym_power_roots

# weight vectors tried by bott_integrate before it gives up
MAX_SEED = 64


class WeightCollisionError(ValueError):
    """The weight vector degenerates a fixed-point fiber; retry with fresh weights."""


class UnsupportedExpressionError(ValueError):
    """The integrand has no equivariant lift in this backend."""


def weight_search(seed: int, n: int) -> tuple[int, ...]:
    """Deterministic candidate weight vectors: seed 0 is the ladder 0..n-1,
    larger seeds draw distinct pseudo-random integers."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if n < 1:
        raise ValueError("need at least one weight")
    if seed == 0:
        return tuple(range(n))
    rng = random.Random(seed)
    return tuple(rng.sample(range(1, 10**6), n))


def fixed_points(space: Space, weights: tuple[int, ...]) -> list:
    """Isolated fixed points as records (subset, levels); see the module notes."""
    if isinstance(space, Grassmannian):
        if len(weights) != space.n:
            raise ValueError(f"need {space.n} weights, got {len(weights)}")
        if len(set(weights)) != len(weights):
            raise WeightCollisionError("ambient weights must be distinct")
        return [(subset, ()) for subset in combinations(range(space.n), space.k)]
    fiber_at = bundle_weights(space.bundle, space.base)
    pts = []
    for base_pt in fixed_points(space.base, weights):
        fiber = tuple(fiber_at(base_pt, weights, {}))
        if len(set(fiber)) != len(fiber):
            raise WeightCollisionError(
                f"fiber weights collide at base point {base_pt!r}: {sorted(fiber)}"
            )
        subset, levels = base_pt
        pts.extend((subset, levels + ((fiber, idx),)) for idx in range(len(fiber)))
    return pts


def bundle_weights(expr: BundleExpr, space: Space):
    """Lift a bundle expression read on `space` to its weights at a fixed point.

    Returns a function (pt, weights, memo) -> list, the equivariant weights
    at the fixed point `pt` of `space`, in the order of `_character`.  `memo`
    holds, for the points with this `subset`, the weights of the Sym nodes
    met so far, keyed by (degree, argument weights), and the values of the
    integrand's pulled-back nodes; see the module notes.  Its lists are
    shared, so callers only read them.  A quotient is the top's weights at
    the positions `_kept` gives, and is refused here if it has none.
    """
    if isinstance(expr, TautSub):
        return lambda pt, weights, memo: [weights[a] for a in pt[0]]
    if isinstance(expr, TautQuot):
        return lambda pt, weights, memo: [
            w for b, w in enumerate(weights) if b not in pt[0]
        ]
    if isinstance(expr, Trivial):
        zeros = [0] * expr.rank
        return lambda pt, weights, memo: zeros
    if isinstance(expr, Dual):
        arg = bundle_weights(expr.arg, space)
        return lambda pt, weights, memo: [-w for w in arg(pt, weights, memo)]
    if isinstance(expr, Sym):
        degree, arg = expr.degree, bundle_weights(expr.arg, space)

        def sym(pt, weights, memo):
            ws = tuple(arg(pt, weights, memo))
            key = (degree, ws)
            if key not in memo:
                memo[key] = _sym_weights(degree, ws)
            return memo[key]

        return sym
    if isinstance(expr, TensorLine):
        arg, line = bundle_weights(expr.arg, space), bundle_weights(expr.line, space)

        def tensor(pt, weights, memo):
            (t,) = line(pt, weights, memo)
            return [w + t for w in arg(pt, weights, memo)]

        return tensor
    if isinstance(expr, WhitneyQuotient):
        top = bundle_weights(expr.top, space)
        kept = {chain: _kept(expr, space, chain) for chain in _chains(space)}
        return lambda pt, weights, memo: list(map(
            top(pt, weights, memo).__getitem__, kept[tuple(i for _, i in pt[1])]
        ))
    if isinstance(expr, RelO):
        if not isinstance(space, ProjBundle):
            raise InvalidBundleError("relative O(k) needs a projective bundle")
        twist = expr.twist

        def rel_o(pt, weights, memo):
            fiber, idx = pt[1][-1]
            # the sub-line has the eigenvalue itself; O(k) is its (-k)-th power
            return [-twist * fiber[idx]]

        return rel_o
    raise InvalidBundleError(f"not a bundle expression: {expr!r}")


def _chains(space: Space) -> list:
    """The local points of `space`: one eigenline index per tower level."""
    if isinstance(space, Grassmannian):
        return [()]
    return [c + (i,) for c in _chains(space.base) for i in range(space.rank)]


def _character(expr: BundleExpr, space: Space, chain: tuple) -> tuple:
    """The weights of `expr` at the local point `chain` as integer vectors
    over the local slots, in the order `bundle_weights` lists them: slot j
    is the weight at the j-th unit weight vector over the subset range(k)."""
    if isinstance(space, ProjBundle) and not mentions_rel(expr):
        return _character(expr, space.base, chain[:-1])
    return _characters(expr, space)[chain]


@lru_cache(maxsize=None)
def _characters(expr: BundleExpr, space: Space) -> dict:
    """`_character` at every chain of `space`.  The chains share one memo
    per unit weight vector, which is exact because the memo keys hold the
    weights, so each Sym node is built once per unit vector."""
    lifted, n, out = bundle_weights(expr, space), bottom_grassmannian(space).n, {}
    for j in range(n):
        e, memo = (0,) * j + (1,) + (0,) * (n - 1 - j), {}
        for chain in _chains(space):
            out.setdefault(chain, []).append(lifted(_local_point(space, chain, e, memo), e, memo))
    for chain, columns in out.items():
        out[chain] = tuple(zip(*columns))
    return out


def _local_point(space: Space, chain: tuple, weights: tuple[int, ...], memo: dict) -> tuple:
    """The record over the subset range(k) with the eigenlines `chain`,
    built level by level as `fixed_points` does; `memo` as in
    `bundle_weights`."""
    if isinstance(space, Grassmannian):
        return tuple(range(space.k)), ()
    subset, levels = _local_point(space.base, chain[:-1], weights, memo)
    fiber = tuple(bundle_weights(space.bundle, space.base)((subset, levels), weights, memo))
    return subset, levels + ((fiber, chain[-1]),)


def _kept(expr: WhitneyQuotient, space: Space, chain: tuple) -> tuple:
    """The positions in the top's character that remain once each vector of
    the sub's is removed, in the top's order."""
    left = Counter(_character(expr.sub, space, chain))
    out = []
    for i, v in enumerate(_character(expr.top, space, chain)):
        if left[v]:
            left[v] -= 1
        else:
            out.append(i)
    if +left:
        raise UnsupportedExpressionError(
            "quotient weights are not contained in the ambient bundle"
        )
    return tuple(out)


def _sym_weights(degree: int, ws: tuple[int, ...]) -> list:
    """The weights sum_j m_j * ws[j] of Sym^degree, in the order of the
    exponent vectors m[:-1] + (i, m[-1] - i), i = 0..m[-1], over the vectors
    m of `sym_power_roots(degree, len(ws) - 1)`.

    Each such run gives the progression s + i * (a - b), i = 0..k, with a, b
    the last two weights, k = m[-1] and s the dot product of m with
    (ws[:-2], b).  So one dot product per vector m gives s and k, and a
    `range` fills the rest; a repeated weight (step 0) fills k + 1 copies of
    s.  Each weight is linear in `ws`, as `_character` needs.
    """
    if len(ws) == 1:
        return [degree * ws[0]]
    a, b = ws[-2:]
    head = ws[:-2] + (b,)
    step, out = a - b, []
    for mono in sym_power_roots(degree, len(head)):
        s, k = sum(map(mul, mono, head)), mono[-1]
        out.extend(range(s, s + (k + 1) * step, step) if step else [s] * (k + 1))
    return out


def tangent_weights(pt, weights) -> list:
    """Tangent weights at a fixed point: the base Grassmannian's, then each
    tower level's.  A record with no levels gives the base part alone."""
    subset, levels = pt
    quot = [w for b, w in enumerate(weights) if b not in subset]
    out = [w - weights[a] for a in subset for w in quot]
    for fiber, idx in levels:
        out.extend(w - fiber[idx] for m, w in enumerate(fiber) if m != idx)
    return out


def evaluate_at(node: ex.ExprAst, space: Space):
    """Lift an integrand on `space` to its value at a fixed point.

    Returns a function (pt, weights, memo) -> int | Fraction; `memo` as in
    `bundle_weights`.  `bott_integrate` runs `_check` first, and the walk
    refuses an atom with no lift, so both happen before any fixed point is
    built.  On a projective bundle a node that `_check` finds reads nothing
    of the fibre is pulled back from the base: its value is kept in `memo`,
    keyed by its own evaluator, and computed once per subset.
    """
    value = _lift(node, space)
    if not isinstance(space, ProjBundle) or _check(node, space):
        return value

    def pulled_back(pt, weights, memo):
        try:
            return memo[value]
        except KeyError:
            memo[value] = out = value(pt, weights, memo)
            return out

    return pulled_back


def _check(node: ex.ExprAst, space: Space) -> bool:
    """Refuse, in walk order as the symbolic engine does, zeta off a
    projective bundle and every bundle `rank` rejects; quotients come later.
    Return whether the node reads the top level's eigenline: zeta, or a
    bundle that mentions the relative O(k)."""
    if isinstance(node, ex.Zeta):
        if not isinstance(space, ProjBundle):
            raise UnsupportedExpressionError("zeta only lives on a projective bundle")
        return True
    if isinstance(node, (ex.ChernClass, ex.EulerClass)):
        rank(node.bundle, space)
        return mentions_rel(node.bundle)
    if isinstance(node, ex.Power):
        return _check(node.base, space)
    if isinstance(node, (ex.Product, ex.Sum)):
        children = node.factors if isinstance(node, ex.Product) else node.terms
        # a list, not a generator: every child is checked
        return any([_check(child, space) for child in children])
    return False


def _lift(node: ex.ExprAst, space: Space):
    """The evaluator of `node` itself; its children are lifted by `evaluate_at`."""
    if isinstance(node, ex.Rational):
        value = node.value
        return lambda pt, weights, memo: value
    if isinstance(node, ex.Schubert):
        if node.parts == ():
            return lambda pt, weights, memo: 1
        quot = bundle_weights(TautQuot(), space)
        if node.parts == (1,):
            return lambda pt, weights, memo: sum(quot(pt, weights, memo))
        lam = node.parts
        ell = len(lam)

        def schubert(pt, weights, memo):
            # Giambelli: sigma_lam = det(c_{lam_i + j - i}(Q)), c_k(Q) = e_k
            # of the quotient weights
            ws = quot(pt, weights, memo)
            e = [elementary_symmetric(ws, k) for k in range(lam[0] + ell)]
            return _det([
                [e[lam[i] + j - i] if lam[i] + j >= i else 0 for j in range(ell)]
                for i in range(ell)
            ])

        return schubert
    if isinstance(node, ex.Zeta):
        # zeta is c1 of O(1)
        line = bundle_weights(RelO(1), space)
        return lambda pt, weights, memo: line(pt, weights, memo)[0]
    if isinstance(node, ex.ChernClass):
        if node.index > rank(node.bundle, space):
            return lambda pt, weights, memo: 0
        index, ws = node.index, bundle_weights(node.bundle, space)
        return lambda pt, weights, memo: elementary_symmetric(ws(pt, weights, memo), index)
    if isinstance(node, ex.EulerClass):
        ws = bundle_weights(node.bundle, space)
        return lambda pt, weights, memo: prod(ws(pt, weights, memo))
    if isinstance(node, ex.Power):
        base, exponent = evaluate_at(node.base, space), node.exponent
        return lambda pt, weights, memo: base(pt, weights, memo) ** exponent
    if isinstance(node, ex.Product):
        factors = [evaluate_at(f, space) for f in node.factors]
        return lambda pt, weights, memo: prod([f(pt, weights, memo) for f in factors])
    if isinstance(node, ex.Sum):
        terms = [evaluate_at(t, space) for t in node.terms]
        return lambda pt, weights, memo: sum([t(pt, weights, memo) for t in terms])
    raise TypeError(f"not an integrand expression: {node!r}")


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact: Bareiss's division leaves an integer
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _integrate_once(space: Space, numerator, weights) -> Fraction:
    """The localized sum of a lifted numerator, one tower level at a time,
    over the base Vandermonde V; see the module notes."""
    vandermonde = prod(wb - wa for wa, wb in combinations(weights, 2))
    total = 0
    # points arrive grouped by subset; the memo holds one subset's values
    for subset, pts in groupby(fixed_points(space, weights), itemgetter(0)):
        memo = {}
        pts = list(pts)
        values = [numerator(pt, weights, memo) for pt in pts]
        # fold the tower from the top: the r points over one point below
        # are contiguous, and sum to one value there
        for level in reversed(range(len(pts[0][1]))):
            r = len(pts[0][1][level][0])
            values = [
                _fibre_sum(pts[j][1][level][0], values[j:j + r])
                for j in range(0, len(pts), r)
            ]
            pts = pts[::r]
        (above,) = values
        if above:
            total += vandermonde // prod(tangent_weights((subset, ()), weights)) * above
    return Fraction(total, vandermonde)


def _fibre_sum(fiber, values) -> Fraction | int:
    """sum_i values[i] / T_i over the eigenlines of one fibre, where
    T_i = prod_{m != i} (f_m - f_i) divides V_f = prod_{a<b} (f_b - f_a):
    the integer sum_i (V_f // T_i) * values[i] over one `Fraction` by V_f."""
    v = prod(fb - fa for fa, fb in combinations(fiber, 2))
    s = sum([
        v // prod([fm - fi for fm in fiber if fm != fi]) * x
        for fi, x in zip(fiber, values) if x
    ])
    return Fraction(s, v) if s else 0


def bott_integrate(
    space: Space,
    integrand: ex.ExprAst,
    weights: tuple[int, ...] | None = None,
) -> Fraction:
    """Localized integral of `integrand` over `space`.

    The integrand is lifted once, before any fixed point is built, so an
    unsupported atom or a malformed bundle is refused at no cost.  With
    explicit `weights` a single evaluation runs and a degenerate choice
    raises WeightCollisionError so the caller can retry.  Without weights an
    integrand above the top degree is refused at once, one below it
    integrates to zero without a fixed point built, and otherwise the
    seeds below MAX_SEED are walked until two admissible vectors agree;
    disagreement means the integrand has no well-defined ordinary integral
    and is reported as unsupported.
    """
    _check(integrand, space)
    numerator = evaluate_at(integrand, space)
    if weights is not None:
        return _integrate_once(space, numerator, tuple(weights))
    top = ex.degree(integrand, space)
    if top > space.dim:
        raise UnsupportedExpressionError(
            f"integrand degree {top} exceeds dim {space.dim} of {ex.format_expr(space)}"
        )
    if top < space.dim:
        return Fraction(0)
    n = bottom_grassmannian(space).n
    values = []
    for seed in range(MAX_SEED):
        try:
            values.append(_integrate_once(space, numerator, weight_search(seed, n)))
        except WeightCollisionError:
            continue
        if len(values) == 2:
            break
    if len(values) < 2:
        raise WeightCollisionError(
            f"no two admissible weight vectors among seeds 0..{MAX_SEED - 1}"
        )
    if values[0] != values[1]:
        raise UnsupportedExpressionError(
            "localization result depends on the weights; integrand is not a "
            "well-defined top-degree class"
        )
    return values[0]
