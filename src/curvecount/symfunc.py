"""Partition combinatorics and symmetric-function expansion.

Partitions are plain tuples of weakly decreasing positive integers with
trailing zeros trimmed; the empty tuple is the empty partition.  This module
provides the combinatorial layer everything else is built on: box-bounded
partition enumeration, the Pieri rule, Littlewood-Richardson numbers by skew
tableau enumeration, and the Schur expansion of products of linear forms in
Chern roots.

All functions are pure.  The caches only ever store values that any caller
would recompute identically, so concurrent readers and redundant concurrent
writes are harmless.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

Partition = tuple[int, ...]


def partition(parts) -> Partition:
    """Normalize an iterable of row lengths to a canonical partition tuple."""
    out = tuple(int(p) for p in parts)
    while out and out[-1] == 0:
        out = out[:-1]
    if any(p < 0 for p in out):
        raise ValueError(f"partition parts must be nonnegative: {out}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {out}")
    return out


def weight(lam: Partition) -> int:
    return sum(lam)


def fits_box(lam: Partition, rows: int, cols: int) -> bool:
    """Whether lam fits in a rows x cols rectangle."""
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def contains(outer: Partition, inner: Partition) -> bool:
    """Containment of Young diagrams (inputs normalized, so lengths compare)."""
    if len(inner) > len(outer):
        return False
    return all(outer[i] >= inner[i] for i in range(len(inner)))


def box_complement(lam: Partition, rows: int, cols: int) -> Partition:
    """Complement of lam in the rows x cols box, read back to front.

    This is the index of the Poincare-dual Schubert class on a Grassmannian
    whose tautological box is rows x cols.
    """
    if not fits_box(lam, rows, cols):
        raise ValueError(f"{lam} does not fit in a {rows}x{cols} box")
    padded = list(lam) + [0] * (rows - len(lam))
    return partition(cols - padded[rows - 1 - i] for i in range(rows))


def _partitions(rows: int, cols: int, total: int):
    """Partitions inside a rows x cols box with weight at most total."""
    yield ()
    if rows == 0:
        return
    for first in range(1, min(cols, total) + 1):
        for rest in _partitions(rows - 1, first, total - first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def enumerate_partitions(rows: int, cols: int) -> tuple[Partition, ...]:
    """All partitions inside a rows x cols box, sorted by weight then lex."""
    if rows < 0 or cols < 0:
        raise ValueError("box sides must be nonnegative")
    parts = _partitions(rows, cols, rows * cols)
    return tuple(sorted(parts, key=lambda p: (weight(p), p)))


@lru_cache(maxsize=None)
def _partitions_of_weight(rows: int, cols: int) -> tuple[tuple[Partition, ...], ...]:
    """The partitions of `enumerate_partitions(rows, cols)`, indexed by weight."""
    out: list[list[Partition]] = [[] for _ in range(rows * cols + 1)]
    for lam in enumerate_partitions(rows, cols):
        out[weight(lam)].append(lam)
    return tuple(map(tuple, out))


def pieri_multiply(lam: Partition, i: int, box: tuple[int, int]) -> list[Partition]:
    """Partitions obtained from lam by adding a horizontal strip of size i.

    Results that leave the box are dropped, which is exactly the Pieri rule
    for multiplying a Schubert class by the i-th special class.
    """
    rows, cols = box
    lam = partition(lam)
    if i < 0:
        raise ValueError("strip size must be nonnegative")
    if not fits_box(lam, rows, cols):
        return []
    padded = list(lam) + [0] * (rows - len(lam))
    out: list[Partition] = []

    def rec(j: int, built: list[int], rem: int) -> None:
        if j == rows:
            if rem == 0:
                out.append(partition(built))
            return
        lo = padded[j]
        hi = cols if j == 0 else padded[j - 1]
        for v in range(lo, min(hi, lo + rem) + 1):
            built.append(v)
            rec(j + 1, built, rem - (v - lo))
            built.pop()

    rec(0, [], i)
    return out


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson number c^nu_{lam,mu}.

    Counts column-strict fillings of the skew shape nu/lam with content mu
    whose reverse reading word (rows top to bottom, each row right to left)
    is a lattice word.
    """
    return _lr(partition(lam), partition(mu), partition(nu))


@lru_cache(maxsize=None)
def _lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    if weight(lam) + weight(mu) != weight(nu):
        return 0
    if not contains(nu, lam):
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

    def place(idx: int) -> None:
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
            # lattice condition: after placing v the count of v may not
            # exceed the count of v-1
            if v >= 2 and counts[v - 1] >= counts[v - 2]:
                continue
            counts[v - 1] += 1
            filling[r][c] = v
            place(idx + 1)
            counts[v - 1] -= 1
            filling[r][c] = 0

    place(0)
    return total


@lru_cache(maxsize=None)
def schubert_product(
    lam: Partition, mu: Partition, rows: int, cols: int
) -> tuple[tuple[Partition, int], ...]:
    """Structure constants of sigma_lam * sigma_mu in a rows x cols box.

    Returns the pairs (nu, c^nu_{lam,mu}) with nonzero coefficient and nu
    inside the box; everything outside the box is dropped.  A cache miss
    scans only the box partitions of weight |lam| + |mu|, the only ones an
    LR number can be nonzero on.
    """
    if mu < lam:
        lam, mu = mu, lam
    if not fits_box(lam, rows, cols) or not fits_box(mu, rows, cols):
        return ()
    w = weight(lam) + weight(mu)
    if w > rows * cols:
        return ()
    pairs = []
    for nu in _partitions_of_weight(rows, cols)[w]:
        if not contains(nu, lam) or not contains(nu, mu):
            continue
        c = _lr(lam, mu, nu)
        if c:
            pairs.append((nu, c))
    return tuple(pairs)


@lru_cache(maxsize=None)
def sym_power_roots(d: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the Chern roots of the d-th symmetric power.

    For a bundle with roots x_1..x_r, Sym^d has one root sum(m_j x_j) per
    vector m with nonnegative entries summing to d.  The count is the rank
    binomial(r + d - 1, d).
    """
    if d < 0 or r < 1:
        raise ValueError("need d >= 0 and r >= 1")
    if r == 1:
        return ((d,),)
    return tuple(
        (first, *rest)
        for first in range(d, -1, -1)
        for rest in sym_power_roots(d - first, r - 1)
    )


def elementary_symmetric(values, k: int):
    """e_k of a finite list of exact numbers, by the usual one-pass recurrence."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    e = [1] + [0] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[k]


def expand_linear_product(forms, nvars: int, truncation: int) -> dict[Partition, int]:
    """Expand prod(1 + sum_j m_j x_j) in the Schur basis s_lam(x_1..x_nvars).

    `forms` lists the integer coefficient vectors m over the roots x_1..x_nvars,
    one per linear factor.  The product is expanded in root monomials,
    truncated in total degree, and must be symmetric: every coefficient
    equals the one of its exponent vector sorted, else ValueError (a root
    multiset not closed under the symmetric group is a bug in the caller).

    The monomial coefficients live in one flat list, ordered by degree.
    Each factor multiplies it in place, highest degree first, so a
    coefficient is read before the factor adds into it, and only the degrees
    the factors so far can reach are visited.

    The Schur coefficients are read off with Jacobi's bialternant
    s_lam = a_{lam+delta} / a_delta: c_lam = sum_w sgn(w) [x^(lam_i + w(i) - i)]
    of the product, over permutations w.  Rows below the length of lam are
    pinned (their exponents w(i) - i would turn negative), so w runs over the
    first len(lam) rows only.  The result maps each partition with at most
    `nvars` rows and weight at most `truncation` to its nonzero coefficient.
    """
    forms = [tuple(m) for m in forms]
    for m in forms:
        if len(m) != nvars:
            raise ValueError(f"form {m} does not have {nvars} coefficients")
    # the product has degree at most the number of factors
    top = max(min(truncation, len(forms)), 0)
    exps: list[tuple[int, ...]] = []
    start = []  # start[d]: position of the first monomial of degree d
    for d in range(top + 1):
        # the monomials of degree d are the root exponents of Sym^d
        start.append(len(exps))
        exps.extend(sym_power_roots(d, nvars))
    start.append(len(exps))
    index = {ex: i for i, ex in enumerate(exps)}
    # up[i][j]: position of x_j times monomial i, for monomials below the top
    up = [
        [index[ex[:j] + (ex[j] + 1,) + ex[j + 1:]] for j in range(nvars)]
        for ex in exps[: start[top]]
    ]
    coef = [0] * len(exps)
    coef[0] = 1
    reached = 0  # highest degree with a nonzero coefficient so far
    for m in forms:
        nz = [(j, mj) for j, mj in enumerate(m) if mj]
        if not nz:
            continue
        for i in range(start[min(reached + 1, top)] - 1, -1, -1):
            c = coef[i]
            if c:
                row = up[i]
                for j, mj in nz:
                    coef[row[j]] += c * mj
        reached = min(reached + 1, top)
    for ex, c in zip(exps, coef):
        if coef[index[tuple(sorted(ex, reverse=True))]] != c:
            raise ValueError("product of the linear forms is not symmetric")

    zero_key = (0,) * nvars
    shifts: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    result: dict[Partition, int] = {}
    for lam in _partitions(nvars, top, top):
        ell = len(lam)
        if ell not in shifts:
            shifts[ell] = [
                ((-1) ** sum(w[j] > w[i] for i in range(ell) for j in range(i)),
                 tuple(w[i] - i for i in range(ell)))
                for w in permutations(range(ell))
            ]
        pad = zero_key[ell:]
        c = 0
        for sign, shift in shifts[ell]:
            i = index.get(tuple(p + s for p, s in zip(lam, shift)) + pad)
            if i is not None:
                c += sign * coef[i]
        if c:
            result[lam] = c
    return result
