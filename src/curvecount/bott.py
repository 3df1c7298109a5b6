"""Torus fixed-point integration on Grassmannians and projective bundles.

A torus acts on the ambient n-space with distinct integer weights.  Fixed
points of Gr(k, n) are the k-element coordinate subsets; a projective bundle
adds one fixed point per eigenline of the fiber at each fixed point below,
which requires the fiber weights there to be pairwise distinct.  When they
are not, the weight vector is inadmissible and a retry with fresh weights is
signalled.  So `bott_integrate` draws its seeds after the ladder 0..n-1 from
range(1, 4n) on a bare Grassmannian, where distinct weights suffice and small
ones keep the Vandermonde products short, and from the wide range(1, 10**6)
on a tower, whose fibres small weights would often make collide.

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
`bundle_weights` walk the expression once and return group evaluators,
functions of (pts, weights) that take the records over one subset and return
one value or weight list per record.  They refuse an atom with no lift, so a
refusal comes before any fixed point is built.  `fixed_points` lifts each
tower level's bundle the same way, so every weight comes from one path.
Supported atoms are rational constants, Schubert classes, zeta (lifted as
minus the weight of the chosen eigenline), and Chern or Euler factors of
bundle expressions.  sigma_1 is c1 of the tautological quotient, the sum of
its weights; any other sigma_lam is the Giambelli determinant
det(c_{lam_i + j - i}(Q)), with c_k(Q) the k-th elementary symmetric
function of the quotient weights.

A quotient's weights come from formal characters (Ellingsrud-Stromme):
weights as integer vectors over local slots.  At the subset I of Gr(k, n),
slot j < k is the j-th element of I and slot k + j the j-th of the
complement, both increasing; a weight is its vector dotted with these local
weights.  Each rule of `bundle_weights`, the one rule set, is linear in the
weights, so `_kept` reads the vectors of top and sub off it at the unit
weight vectors, in one group call each per unit vector at the records over
the subset range(k), and removes the sub's vectors from the top's for each
chain of eigenline indices, once per (quotient, space); a sub not contained
in the top is refused at lift time.  The kept vectors of every chain are
packed as one integer per slot, 64 bits per vector, so at a subset one dot
product of those integers with the local weights gives every chain's
weights, each a signed 64-bit field of the result; when a field could
overflow, only with huge explicit weights, the vectors are dotted one by
one.  So the top is read only at the unit vectors, and neither top nor sub
is built at a fixed point.

On a projective bundle, a node that mentions neither zeta nor a relative
O(k) has one value at every point over a subset, at any tower depth (the
projection formula, localized).  That is decided once, at the lift: such a
node, say c_3(Q) or c_1(Sym^6 S*), is lifted on the bottom Grassmannian,
evaluated once per group and its value repeated for every record.  That is
the only work a group shares: a Sym that mentions no relative O(k) is
pulled back, so each node that reads it builds it once per subset, and a
Sym of a twisted argument such as S(1) is built at every eigenline, where
it stays right.  Sym weights are built by `_sym_weights`, one dot product
per exponent vector of all but the last two argument weights and one
arithmetic progression in those two, so Sym^20 S* (231 weights) takes 21
dot products.

The integral is the exact rational sum over fixed points of (numerator
weights) / (product of tangent weights).  Numerators are plain integers,
rational only when the integrand carries a p/q scalar.  The sum is taken one
tower level at a time, each over one Vandermonde product.  A fibre with
weights f_0..f_{r-1} has the tangent product T_i = prod_{m != i}(f_m - f_i)
at its eigenline i, which divides V_f = prod_{a<b}(f_b - f_a); the r points
over one point below sum to s / V_f, s = sum_i (V_f // T_i) * value_i.  For
integer numerators V_f divides s, since the fibre sum is the pushforward of
an equivariant class, so `_fibre_sum` returns an integer, and a `Fraction`
only when a p/q scalar leaves a remainder.  The tower folds from the top
level down, and the base Grassmannian ends the fold over V = prod_{a<b}
(w_b - w_a): the total is sum_I (V // T_I) * F_I over V, where F_I is the
numerator on a Grassmannian and the folded fibre sum on a tower, and
T_I = prod_{a in I, b not in I} (w_b - w_a).  V // T_I is read off
per-coordinate products, taken once per weight vector: p_a = prod_{c != a}
(w_c - w_a) and q_a = V // p_a.  The product of p_a over I counts each pair
inside I twice, so T_I = (-1)^C(k,2) prod_{a in I} p_a / Delta(I)^2, with
Delta(I) = prod_{i<j} (w_{a_j} - w_{a_i}), and at I = (a_1 < ... < a_k)
V // T_I = (-1)^C(k,2) q_{a_1} Delta(I)^2 // prod_{j>=2} p_{a_j}, exact.  The
sign is the same at every subset, so it is applied to the total.  An
integer integrand thus forms one `Fraction` per weight vector, and no
denominator is accumulated over the fixed points.

This module deliberately shares no ring arithmetic with the symbolic Chow
backend, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from math import comb, prod
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
# exclusive bound of the wide draw, which a tower's fibres need
WIDE_DRAW = 10**6


class WeightCollisionError(ValueError):
    """The weight vector degenerates a fixed-point fiber; retry with fresh weights."""


class UnsupportedExpressionError(ValueError):
    """The integrand has no equivariant lift in this backend."""


def weight_search(seed: int, n: int, bound: int = WIDE_DRAW) -> tuple[int, ...]:
    """Deterministic candidate weight vectors: seed 0 is the ladder 0..n-1,
    larger seeds draw n distinct pseudo-random integers from range(1, bound).

    Distinct weights are all a bare Grassmannian needs, so `bott_integrate`
    passes bound 4n there; a tower also needs distinct weights in every
    fibre, which small weights often break, so it keeps the wide default.
    A bound that leaves fewer than n integers to draw is refused."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if n < 1:
        raise ValueError("need at least one weight")
    if bound <= n:
        raise ValueError(f"range(1, {bound}) holds fewer than {n} distinct weights")
    if seed == 0:
        return tuple(range(n))
    rng = random.Random(seed)
    return tuple(rng.sample(range(1, bound), n))


def fixed_points(space: Space, weights: tuple[int, ...]) -> list:
    """Isolated fixed points as records (subset, levels); see the module notes.
    The records over one subset are contiguous, eigenlines in lexicographic order."""
    if isinstance(space, Grassmannian):
        if len(weights) != space.n:
            raise ValueError(f"need {space.n} weights, got {len(weights)}")
        if len(set(weights)) != len(weights):
            raise WeightCollisionError("ambient weights must be distinct")
        return [(subset, ()) for subset in combinations(range(space.n), space.k)]
    fiber_at = bundle_weights(space.bundle, space.base)
    pts = []
    for _, below in groupby(fixed_points(space.base, weights), itemgetter(0)):
        below = list(below)
        for (subset, levels), fiber in zip(below, fiber_at(below, weights)):
            fiber = tuple(fiber)
            if len(set(fiber)) != len(fiber):
                raise WeightCollisionError(
                    f"fiber weights collide at base point {(subset, levels)!r}: {sorted(fiber)}"
                )
            pts.extend((subset, levels + ((fiber, idx),)) for idx in range(len(fiber)))
    return pts


def bundle_weights(expr: BundleExpr, space: Space):
    """Lift a bundle expression read on `space` to its weights at a group.

    Returns a function (pts, weights) -> list: `pts` lists `fixed_points`
    records sharing one subset, and the result one list of equivariant
    weights per record, listed alike at all weights.  The lists are shared,
    so callers only read them.  A quotient's weights are its kept
    characters, packed by `_kept`, dotted with the local weights; it is
    refused here if its sub is not contained in its top.
    """
    if isinstance(space, ProjBundle) and not mentions_rel(expr):
        return _pulled_back(bundle_weights(expr, bottom_grassmannian(space)))
    # the records of a group share their subset, so S and Q are read once
    if isinstance(expr, TautSub):
        return lambda pts, weights: [[weights[a] for a in pts[0][0]]] * len(pts)
    if isinstance(expr, TautQuot):
        return lambda pts, weights: [_outside(weights, pts[0][0])] * len(pts)
    if isinstance(expr, Trivial):
        zeros = [0] * expr.rank
        return lambda pts, weights: [zeros] * len(pts)
    if isinstance(expr, Dual):
        arg = bundle_weights(expr.arg, space)
        return lambda pts, weights: [[-w for w in ws] for ws in arg(pts, weights)]
    if isinstance(expr, Sym):
        degree, arg = expr.degree, bundle_weights(expr.arg, space)
        return lambda pts, weights: [_sym_weights(degree, tuple(ws)) for ws in arg(pts, weights)]
    if isinstance(expr, TensorLine):
        arg, line = bundle_weights(expr.arg, space), bundle_weights(expr.line, space)
        return lambda pts, weights: [
            [w + t for w in ws]
            for ws, (t,) in zip(arg(pts, weights), line(pts, weights))
        ]
    if isinstance(expr, WhitneyQuotient):
        rows, spans, columns, mask, bound = _kept(expr, space)

        def quotient(pts, weights):
            subset = pts[0][0]
            local = [weights[a] for a in subset] + _outside(weights, subset)
            if bound * max(map(abs, local)) < 1 << 63:
                # each row's weight w is the 64-bit field w + 2^63, which
                # neither carries nor borrows; the xor reads it as signed
                x = mask + sum([column * local[s] for s, column in columns])
                ws = memoryview(
                    (x ^ mask).to_bytes(8 * len(rows), sys.byteorder)
                ).cast("q").tolist()
            else:
                ws = [sum(map(mul, row, local)) for row in rows]
            return [ws[spans[tuple(map(itemgetter(1), pt[1]))]] for pt in pts]

        return quotient
    if isinstance(expr, RelO):
        if not isinstance(space, ProjBundle):
            raise InvalidBundleError("relative O(k) needs a projective bundle")
        twist = expr.twist
        # the sub-line has the eigenvalue itself; O(k) is its (-k)-th power
        return lambda pts, weights: [
            [-twist * fiber[idx]] for fiber, idx in (pt[1][-1] for pt in pts)
        ]
    raise InvalidBundleError(f"not a bundle expression: {expr!r}")


def _pulled_back(lifted):
    """Read `lifted`, a lift on the bottom Grassmannian, once per group."""
    return lambda pts, weights: lifted([(pts[0][0], ())], weights) * len(pts)


@lru_cache(maxsize=None)
def _kept(expr: WhitneyQuotient, space: Space) -> tuple:
    """A quotient's kept characters, read once per (quotient, space).

    Returns (rows, spans, columns, mask, bound).  `rows` are the characters
    left in the top's once the sub's are removed, in the top's order, as
    vectors over the local slots (see the module notes), one run per chain
    of eigenline indices, and `spans` maps each chain to its run's slice.
    The rows are packed: `columns` holds (slot, column) for each nonzero
    slot, the column an integer with row r at bits 64r..64r+63; `mask` sets
    bit 63 of every row; and no row's dot product with the local weights
    exceeds `bound` = sum_s max |column_s| times their largest absolute
    value.  Top and sub are read at the records over the subset range(k),
    built level by level as `fixed_points` builds them, at each unit weight
    vector.
    """
    top, sub = bundle_weights(expr.top, space), bundle_weights(expr.sub, space)
    base, tower, tops, subs = space, [], [], []
    while isinstance(base, ProjBundle):
        tower.insert(0, base)
        base = base.base
    for j in range(base.n):
        e = (0,) * j + (1,) + (0,) * (base.n - 1 - j)
        pts = [(tuple(range(base.k)), ())]
        for level in tower:
            fibers = bundle_weights(level.bundle, level.base)(pts, e)
            pts = [(subset, levels + ((tuple(f), i),))
                   for (subset, levels), f in zip(pts, fibers) for i in range(len(f))]
        tops.append(top(pts, e))
        subs.append(sub(pts, e))
    rows, spans = [], {}
    # at a record, a weight's character is its column over the unit vectors
    for pt, ts, ss in zip(pts, zip(*tops), zip(*subs)):
        left, start = Counter(zip(*ss)), len(rows)
        for v in zip(*ts):
            if left[v]:
                left[v] -= 1
            else:
                rows.append(v)
        if +left:
            raise UnsupportedExpressionError(
                "quotient weights are not contained in the ambient bundle"
            )
        spans[tuple(map(itemgetter(1), pt[1]))] = slice(start, len(rows))
    columns, bound = [], 0
    for s, column in enumerate(zip(*rows)):
        if any(column):
            columns.append((s, sum(c << 64 * r for r, c in enumerate(column))))
            bound += max(map(abs, column))
    mask = sum(1 << 64 * r + 63 for r in range(len(rows)))
    return rows, spans, columns, mask, bound


def _sym_weights(degree: int, ws: tuple[int, ...]) -> list:
    """The weights sum_j m_j * ws[j] of Sym^degree, in the order of the
    exponent vectors m[:-1] + (i, m[-1] - i), i = 0..m[-1], over the vectors
    m of `sym_power_roots(degree, len(ws) - 1)`.

    Each such run gives the progression s + i * (a - b), i = 0..k, with a, b
    the last two weights, k = m[-1] and s the dot product of m with
    (ws[:-2], b).  So one dot product per vector m gives s and k, and a
    `range` fills the rest; a repeated weight (step 0) fills k + 1 copies of
    s.  Each weight is linear in `ws`, as `_kept` needs.
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


def _outside(weights, subset) -> list:
    """The weights at the positions outside the increasing `subset`."""
    out = list(weights)
    for a in reversed(subset):
        del out[a]
    return out


def tangent_weights(pt, weights) -> list:
    """Tangent weights at a fixed point: the base Grassmannian's, then each
    tower level's.  A record with no levels gives the base part alone."""
    subset, levels = pt
    quot = _outside(weights, subset)
    out = [w - weights[a] for a in subset for w in quot]
    for fiber, idx in levels:
        out.extend(w - fiber[idx] for m, w in enumerate(fiber) if m != idx)
    return out


def evaluate_at(node: ex.ExprAst, space: Space):
    """Lift an integrand on `space` to its values at a group.

    Returns a function (pts, weights) -> list, one int or Fraction per
    record; `pts` as in `bundle_weights`.  `bott_integrate` runs
    `_check` first, and the walk refuses an atom with no lift, so both
    happen before any fixed point is built.  On a projective bundle a node
    that `_check` finds reads no eigenline is read once per group.
    """
    if isinstance(space, ProjBundle) and not _check(node, space):
        return _pulled_back(evaluate_at(node, bottom_grassmannian(space)))
    if isinstance(node, ex.Rational):
        value = node.value
        return lambda pts, weights: [value] * len(pts)
    if isinstance(node, ex.Schubert):
        if node.parts == ():
            return lambda pts, weights: [1] * len(pts)
        quot = bundle_weights(TautQuot(), space)
        if node.parts == (1,):
            return lambda pts, weights: list(map(sum, quot(pts, weights)))
        lam = node.parts
        ell = len(lam)

        def schubert(ws):
            # Giambelli: sigma_lam = det(c_{lam_i + j - i}(Q)), c_k(Q) = e_k
            # of the quotient weights
            e = [elementary_symmetric(ws, k) for k in range(lam[0] + ell)]
            return _det([
                [e[lam[i] + j - i] if lam[i] + j >= i else 0 for j in range(ell)]
                for i in range(ell)
            ])

        return lambda pts, weights: list(map(schubert, quot(pts, weights)))
    if isinstance(node, ex.Zeta):
        # zeta is c1 of O(1)
        line = bundle_weights(RelO(1), space)
        return lambda pts, weights: [t for (t,) in line(pts, weights)]
    if isinstance(node, ex.ChernClass):
        # not lifted: a quotient outside its top has no lift, yet this is 0
        if node.index > rank(node.bundle, space):
            return lambda pts, weights: [0] * len(pts)
        index, lifted = node.index, bundle_weights(node.bundle, space)
        return lambda pts, weights: [
            elementary_symmetric(ws, index) for ws in lifted(pts, weights)
        ]
    if isinstance(node, ex.EulerClass):
        lifted = bundle_weights(node.bundle, space)
        return lambda pts, weights: list(map(prod, lifted(pts, weights)))
    if isinstance(node, ex.Power):
        base, exponent = evaluate_at(node.base, space), node.exponent
        return lambda pts, weights: [v ** exponent for v in base(pts, weights)]
    if isinstance(node, (ex.Product, ex.Sum)):
        product = isinstance(node, ex.Product)
        fold, children = (prod, node.factors) if product else (sum, node.terms)
        children = [evaluate_at(child, space) for child in children]
        return lambda pts, weights: list(map(
            fold, zip(*[child(pts, weights) for child in children])
        ))
    raise TypeError(f"not an integrand expression: {node!r}")


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
    # built first: it refuses a repeated weight, which would make a p_a zero
    records = fixed_points(space, weights)
    vandermonde = prod(wb - wa for wa, wb in combinations(weights, 2))
    # p_a = prod_{c != a} (w_c - w_a) and q_a = V // p_a, once per weight vector
    outer = [prod([wc - wa for wc in weights if wc != wa]) for wa in weights]
    inner = [vandermonde // p for p in outer]
    total = 0
    # one group per subset
    for subset, pts in groupby(records, itemgetter(0)):
        pts = list(pts)
        values = numerator(pts, weights)
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
            # V // T_I up to the sign (-1)^C(k,2), applied to the total
            first, *rest = subset
            delta = prod([weights[b] - weights[a] for a, b in combinations(subset, 2)])
            total += inner[first] * (delta * delta) // prod([outer[b] for b in rest]) * above
    if comb(bottom_grassmannian(space).k, 2) % 2:
        total = -total
    return Fraction(total, vandermonde)


def _fibre_sum(fiber, values):
    """sum_i values[i] / T_i over the eigenlines of one fibre, where
    T_i = prod_{m != i} (f_m - f_i) divides V_f = prod_{a<b} (f_b - f_a):
    the sum s = sum_i (V_f // T_i) * values[i] divided by V_f, as an integer
    when V_f divides s and as a `Fraction` otherwise."""
    v = prod(fb - fa for fa, fb in combinations(fiber, 2))
    s = sum([
        v // prod([fm - fi for fm in fiber if fm != fi]) * x
        for fi, x in zip(fiber, values) if x
    ])
    q, rest = divmod(s, v)
    return Fraction(s, v) if rest else q


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
    `weight_search` seeds below MAX_SEED, at bound 4n on a bare Grassmannian
    and the wide draw on a tower (see the module notes), are walked until two
    admissible vectors agree; disagreement means the integrand has no
    well-defined ordinary integral and is reported as unsupported.
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
    bound = 4 * n if isinstance(space, Grassmannian) else WIDE_DRAW
    values = []
    for seed in range(MAX_SEED):
        try:
            values.append(_integrate_once(space, numerator, weight_search(seed, n, bound)))
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
