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

Sym powers dominate the integrand (Sym^20 S* has 231 weights at each conic
point of P^14), and their weights depend only on the argument's weights.
`_integrate_once` keeps one memo per `subset`, emptied when the subset
changes, and passes it through `evaluate_at` to `bundle_weights`, which reads
it only at a Sym node, keyed by (degree, argument weights).  Because the key
holds the weights, a Sym of a twisted argument such as S(1) stays right at
every eigenline.  Memoized weights are kept sorted.  A quotient bundle's
weights are the multiset difference top - sub, taken by one merge of the two
sorted lists; a sub not contained in top has no lift and is refused as
unsupported.

The integral of a supported integrand is the exact rational sum over fixed
points of (numerator weights) / (product of tangent weights).  Numerators
are plain integers, rational only when the integrand carries a p/q scalar;
the quotient at each fixed point is the one place a `Fraction` is formed.
Supported numerator atoms are rational constants, sigma_1 (lifted as c1 of the
tautological quotient), zeta (lifted as minus the weight of the chosen
eigenline), and Chern or Euler factors of bundle expressions.  General
Schubert classes have no lift here; requesting one is an unsupported
expression, not a wrong answer.

This module deliberately shares no ring arithmetic with the symbolic Chow
backend, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import mul

from . import expr as ex
from .bundles import (
    BundleExpr,
    Dual,
    InvalidBundleError,
    RelO,
    Sym,
    TautQuot,
    TautSub,
    TensorLine,
    Trivial,
    WhitneyQuotient,
    rank,
)
from .chow import Grassmannian, Space
from .symfunc import elementary_symmetric, sym_power_roots

# weight vectors tried by bott_integrate before it gives up
MAX_SEED = 64


class WeightCollisionError(RuntimeError):
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


def ambient_size(space: Space) -> int:
    """Number of torus weights needed: the n of the bottom Grassmannian,
    read off as rank S + rank Q."""
    return rank(TautSub(), space) + rank(TautQuot(), space)


def fixed_points(space: Space, weights: tuple[int, ...]) -> list:
    """Isolated fixed points as records (subset, levels); see the module notes."""
    if isinstance(space, Grassmannian):
        if len(weights) != space.n:
            raise ValueError(f"need {space.n} weights, got {len(weights)}")
        if len(set(weights)) != len(weights):
            raise WeightCollisionError("ambient weights must be distinct")
        return [(subset, ()) for subset in combinations(range(space.n), space.k)]
    pts = []
    for base_pt in fixed_points(space.base, weights):
        fiber = tuple(bundle_weights(space.bundle, base_pt, weights, {}))
        if len(set(fiber)) != len(fiber):
            raise WeightCollisionError(
                f"fiber weights collide at base point {base_pt!r}: {sorted(fiber)}"
            )
        subset, levels = base_pt
        pts.extend((subset, levels + ((fiber, idx),)) for idx in range(len(fiber)))
    return pts


def bundle_weights(expr: BundleExpr, pt, weights, memo: dict) -> list:
    """Multiset of equivariant weights of a bundle expression at a fixed point.

    `memo` holds the sorted weights of the Sym nodes met so far at points
    with this `subset`, keyed by (degree, argument weights); see the module
    notes.  Its lists are shared, so callers only read them.  A quotient is
    the multiset difference of the sorted top and sub weights, by one merge.
    """
    subset, levels = pt
    if isinstance(expr, TautSub):
        return [weights[a] for a in subset]
    if isinstance(expr, TautQuot):
        return [w for b, w in enumerate(weights) if b not in subset]
    if isinstance(expr, Trivial):
        return [0] * expr.rank
    if isinstance(expr, Dual):
        return [-w for w in bundle_weights(expr.arg, pt, weights, memo)]
    if isinstance(expr, Sym):
        ws = tuple(bundle_weights(expr.arg, pt, weights, memo))
        key = (expr.degree, ws)
        if key not in memo:
            memo[key] = sorted([
                sum(map(mul, mono, ws))
                for mono in sym_power_roots(expr.degree, len(ws))
            ])
        return memo[key]
    if isinstance(expr, TensorLine):
        (t,) = bundle_weights(expr.line, pt, weights, memo)
        return [w + t for w in bundle_weights(expr.arg, pt, weights, memo)]
    if isinstance(expr, WhitneyQuotient):
        return _difference(
            bundle_weights(expr.top, pt, weights, memo),
            bundle_weights(expr.sub, pt, weights, memo),
        )
    if isinstance(expr, RelO):
        if not levels:
            raise InvalidBundleError("relative O(k) needs a projective bundle")
        fiber, idx = levels[-1]
        # the sub-line has the eigenvalue itself; O(k) is its (-k)-th power
        return [-expr.twist * fiber[idx]]
    raise InvalidBundleError(f"not a bundle expression: {expr!r}")


def _difference(top, sub) -> list:
    """The multiset top - sub, by one merge of the two lists sorted."""
    sub = sorted(sub)
    n, i, out = len(sub), 0, []
    for w in sorted(top):
        if i < n and sub[i] == w:
            i += 1
        else:
            out.append(w)
    if i < n:
        raise UnsupportedExpressionError(
            "quotient weights are not contained in the ambient bundle"
        )
    return out


def tangent_weights(pt, weights) -> list:
    subset, levels = pt
    quot = [w for b, w in enumerate(weights) if b not in subset]
    out = [w - weights[a] for a in subset for w in quot]
    for fiber, idx in levels:
        out.extend(w - fiber[idx] for m, w in enumerate(fiber) if m != idx)
    return out


def evaluate_at(node: ex.ExprAst, pt, weights, memo: dict) -> int | Fraction:
    """Equivariant value of an integrand at one fixed point; `memo` as in
    `bundle_weights`."""
    if isinstance(node, ex.Rational):
        return node.value
    if isinstance(node, ex.Schubert):
        if node.parts == ():
            return 1
        if node.parts == (1,):
            return sum(bundle_weights(TautQuot(), pt, weights, memo))
        raise UnsupportedExpressionError(
            f"no equivariant lift for sigma_{list(node.parts)}; only sigma_1 is supported"
        )
    if isinstance(node, ex.Zeta):
        levels = pt[1]
        if not levels:
            raise UnsupportedExpressionError("zeta only lives on a projective bundle")
        fiber, idx = levels[-1]
        return -fiber[idx]
    if isinstance(node, ex.ChernClass):
        ws = bundle_weights(node.bundle, pt, weights, memo)
        if node.index > len(ws):
            return 0
        return elementary_symmetric(ws, node.index)
    if isinstance(node, ex.EulerClass):
        return prod(bundle_weights(node.bundle, pt, weights, memo))
    if isinstance(node, ex.Power):
        return evaluate_at(node.base, pt, weights, memo) ** node.exponent
    if isinstance(node, ex.Product):
        return prod(evaluate_at(f, pt, weights, memo) for f in node.factors)
    if isinstance(node, ex.Sum):
        return sum(evaluate_at(t, pt, weights, memo) for t in node.terms)
    raise TypeError(f"not an integrand expression: {node!r}")


def _integrate_once(space: Space, integrand: ex.ExprAst, weights) -> Fraction:
    total = Fraction(0)
    subset, memo = None, {}
    for pt in fixed_points(space, weights):
        # points arrive grouped by subset; the memo holds one subset's Sym weights
        if pt[0] != subset:
            subset, memo = pt[0], {}
        numerator = evaluate_at(integrand, pt, weights, memo)
        if numerator == 0:
            continue
        # Fraction first: an int numerator over an int product would be a float
        total += Fraction(numerator) / prod(tangent_weights(pt, weights))
    return total


def bott_integrate(
    space: Space,
    integrand: ex.ExprAst,
    weights: tuple[int, ...] | None = None,
) -> Fraction:
    """Localized integral of `integrand` over `space`.

    With explicit `weights` a single evaluation runs and a degenerate choice
    raises WeightCollisionError so the caller can retry.  Without weights the
    seeds below MAX_SEED are walked until two admissible vectors agree;
    disagreement means the integrand has no well-defined ordinary integral
    (for instance its degree exceeds the dimension) and is reported as
    unsupported.
    """
    # validate every bundle through rank, as the symbolic engine does before
    # computing; a malformed bundle's weights fail arbitrarily or not at all
    stack = [integrand]
    while stack:
        node = stack.pop()
        if isinstance(node, (ex.ChernClass, ex.EulerClass)):
            rank(node.bundle, space)
        elif isinstance(node, ex.Power):
            stack.append(node.base)
        elif isinstance(node, ex.Product):
            stack.extend(node.factors)
        elif isinstance(node, ex.Sum):
            stack.extend(node.terms)
    if weights is not None:
        return _integrate_once(space, integrand, tuple(weights))
    n = ambient_size(space)
    values = []
    for seed in range(MAX_SEED):
        try:
            values.append(_integrate_once(space, integrand, weight_search(seed, n)))
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
