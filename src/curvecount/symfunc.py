"""Partition combinatorics and symmetric-function expansion.

Partitions are plain tuples of weakly decreasing positive integers with
trailing zeros trimmed; the empty tuple is the empty partition.  This module
provides the combinatorial layer everything else is built on: box-bounded
partition enumeration, the Pieri rule, Littlewood-Richardson numbers by one
walk that adds horizontal strips, and the Schur expansion of products of
linear forms in Chern roots.  The walk adds the rows of one factor to the
other, one labelled strip per row under the lattice condition; the Pieri
rule is its one-strip case.  The root product is held as a packed integer,
box-bounded: one fixed-width slot per root monomial, with exponents capped
at what the partitions inside a caller's box can read.

All functions are pure.  The caches only ever store values that any caller
would recompute identically, so concurrent readers and redundant concurrent
writes are harmless.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import permutations
from math import prod

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


def conjugate(lam: Partition) -> Partition:
    """The transposed partition: its rows are the columns of lam."""
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


@lru_cache(maxsize=None)
def _horizontal_strips(
    shape: Partition, size: int, outer: Partition, quota: Partition | None
) -> tuple[tuple[Partition, Partition], ...]:
    """The horizontal strips of `size` cells that fit between shape and outer.

    `shape` and `outer` are padded to the same number of rows.  Row j may grow
    up to outer[j] and up to shape[j-1], the row above before the strip, so no
    two new cells share a column.  When `quota` is given, the strip puts at
    most quota[j] cells in rows 0..j together.  Returns the pairs (grown
    shape, prefix), both padded, where prefix[j] counts the cells the strip
    put in rows 0..j-1: the quota of the next strip.
    """
    rows = len(shape)
    room = [
        (min(outer[j], shape[j - 1]) if j else outer[0]) - shape[j] for j in range(rows)
    ]
    # later[j]: cells rows j+1.. can still take, to cut dead branches
    later = [0] * rows
    for j in range(rows - 1, 0, -1):
        later[j - 1] = later[j] + room[j]
    grown, prefix = list(shape), [0] * rows
    out: list[tuple[Partition, Partition]] = []

    def rec(j: int, rem: int, used: int) -> None:
        prefix[j] = used
        hi = room[j] if room[j] < rem else rem
        if quota is not None and quota[j] - used < hi:
            hi = quota[j] - used
        lo = rem - later[j]
        for a in range(hi, (lo if lo > 0 else 0) - 1, -1):
            grown[j] = shape[j] + a
            if a == rem:
                # the rows below stay as they are
                out.append((tuple(grown), tuple(prefix[: j + 1]) + (used + a,) * (rows - j - 1)))
            else:
                rec(j + 1, rem - a, used + a)
        grown[j] = shape[j]

    if size == 0:
        return ((shape, (0,) * rows),)
    if rows:
        rec(0, size, 0)
    return tuple(out)


def pieri_multiply(lam: Partition, i: int, box: tuple[int, int]) -> list[Partition]:
    """Partitions obtained from lam by adding a horizontal strip of size i.

    Results that leave the box are dropped, which is exactly the Pieri rule
    for multiplying a Schubert class by the i-th special class.  This is one
    step of the strip walk behind `schubert_product`.
    """
    rows, cols = box
    lam = partition(lam)
    if i < 0:
        raise ValueError("strip size must be nonnegative")
    if not fits_box(lam, rows, cols):
        return []
    padded = lam + (0,) * (rows - len(lam))
    return [_trim(nu) for nu, _ in _horizontal_strips(padded, i, (cols,) * rows, None)]


def _trim(padded: Partition) -> Partition:
    end = len(padded)
    while end and not padded[end - 1]:
        end -= 1
    return padded[:end]


def _strip_walk(lam: Partition, mu: Partition, outer: Partition) -> dict[Partition, int]:
    """sigma_lam * sigma_mu, keeping only the shapes inside `outer`.

    Littlewood-Richardson rule as a walk: the rows of mu are added to lam in
    turn, row i as a horizontal strip of cells labelled i.  The labels read
    rows top to bottom, each row right to left, must form a lattice word: the
    cells labelled i+1 in rows 0..j number at most the cells labelled i in
    rows 0..j-1.  That bound depends only on the shape and the per-row count
    of the last label, so paths that agree on both are merged into one state
    with a multiplicity.  `outer` is padded to at least len(lam) rows.
    """
    rows = len(outer)
    states = {(lam + (0,) * (rows - len(lam)), None): 1}
    for size in mu:
        step: dict = {}
        for (shape, quota), mult in states.items():
            for key in _horizontal_strips(shape, size, outer, quota):
                step[key] = step.get(key, 0) + mult
        states = step
    out: dict[Partition, int] = {}
    for (shape, _), mult in states.items():
        nu = _trim(shape)
        out[nu] = out.get(nu, 0) + mult
    return out


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson number c^nu_{lam,mu}.

    Counts column-strict fillings of the skew shape nu/lam with content mu
    whose reverse reading word (rows top to bottom, each row right to left)
    is a lattice word, by the strip walk of `schubert_product` confined to
    the shape nu.
    """
    return _lr(partition(lam), partition(mu), partition(nu))


@lru_cache(maxsize=None)
def _lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    if weight(lam) + weight(mu) != weight(nu):
        return 0
    if not contains(nu, lam) or not contains(nu, mu):
        return 0
    return _strip_walk(lam, mu, nu).get(nu, 0)


@lru_cache(maxsize=None)
def schubert_product(
    lam: Partition, mu: Partition, rows: int, cols: int
) -> tuple[tuple[Partition, int], ...]:
    """Structure constants of sigma_lam * sigma_mu in a rows x cols box.

    Returns the pairs (nu, c^nu_{lam,mu}) with nonzero coefficient and nu
    inside the box; everything outside the box is dropped.  A cache miss is
    one strip walk (`_strip_walk`) that adds the rows of the lighter factor
    to the other inside the box, so every shape it reaches is a term.
    """
    if (weight(mu), mu) > (weight(lam), lam):
        # one walk for both orders: the swapped call is cached
        return schubert_product(mu, lam, rows, cols)
    if not fits_box(lam, rows, cols) or not fits_box(mu, rows, cols):
        return ()
    if weight(lam) + weight(mu) > rows * cols:
        return ()
    return tuple(_strip_walk(lam, mu, (cols,) * rows).items())


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
    """e_k of a finite list of exact numbers, by the usual one-pass recurrence.

    e_1 is the sum and e_n the product of the n values.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = len(values)
    if k > n:
        return 0
    if k == 1:
        return sum(values)
    if k == n:
        return prod(values)
    e = [1] + [0] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return e[k]


def expand_linear_product(
    forms, nvars: int, truncation: int, cols: int | None = None
) -> dict[Partition, int]:
    """Expand prod(1 + sum_j m_j x_j) in the Schur basis s_lam(x_1..x_nvars).

    `forms` lists the integer coefficient vectors m over the roots x_1..x_nvars,
    one per linear factor.  The product is expanded in root monomials,
    truncated in total degree, and must be symmetric: every coefficient
    equals the one of its exponent vector sorted, else ValueError (a root
    multiset not closed under the symmetric group is a bug in the caller).

    The truncated product is held as a packed integer, box-bounded: the
    monomial x^a is a slot of a fixed number of bytes at position
    sum_i a_i * step_i, and multiplying by 1 + m.x is
    f + sum_i m_i * (f << shift_i) followed by an AND with a mask that keeps
    the slots of total degree at most the truncation and each exponent a_i
    at most cap_i.  The terms of negative sign go to a second packed integer,
    so no slot ever borrows.  A slot of degree j, for the part of either
    sign, is at most e_j(s) with s_f = sum_i |m_fi| per form; the width
    holds e_j for every j up to one past the truncation, so the slots a
    multiply carries one degree too high, which the mask then drops, never
    overflow into a kept slot.  Digit i has radix cap_i + 2, so an exponent
    of cap_i + 1 stays inside its digit.  The packed size is known before
    any monomial is listed: when eight integers of that size cannot fit in
    physical memory, MemoryError is raised at once.

    The Schur coefficients are read off with Jacobi's bialternant
    s_lam = a_{lam+delta} / a_delta: c_lam = sum_w sgn(w) [x^(lam_i + w(i) - i)]
    of the product, over permutations w.  Rows below the length of lam are
    pinned (their exponents w(i) - i would turn negative), so w runs over the
    first len(lam) rows only.  The result maps each partition with at most
    `nvars` rows and weight at most `truncation` to its nonzero coefficient.
    With `cols` given, only partitions with lam_1 <= cols are read: a caller
    whose s_lam vanishes outside a box passes the box's width.  The read
    exponent of x_(i+1) is lam_i + w(i) - i <= lam_i + nvars - 1 - i, with
    lam_i at most cols and at most truncation / (i + 1), which gives cap_i.
    The caps do not increase with i, so a kept monomial's exponents sorted
    into decreasing order are kept too, and the symmetry check reads both.
    """
    if nvars < 1:
        raise ValueError("need at least one root")
    forms = [tuple(m) for m in forms]
    for m in forms:
        if len(m) != nvars:
            raise ValueError(f"form {m} does not have {nvars} coefficients")
    # the product has degree at most the number of factors
    top = max(min(truncation, len(forms)), 0)
    width = top if cols is None else min(cols, top)
    caps = [min(top, min(width, top // (i + 1)) + nvars - 1 - i) for i in range(nvars)]
    steps = [1]
    for cap in caps:
        steps.append(steps[-1] * (cap + 2))
    e = [1] + [0] * (top + 1)
    for m in forms:
        sf = sum(abs(mj) for mj in m)
        for j in range(top + 1, 0, -1):
            e[j] += sf * e[j - 1]
    wb = (max(e).bit_length() + 7) // 8  # bytes per slot
    size = steps[-1] * wb  # bytes of a packed integer, unmasked slots too
    if 8 * size > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise MemoryError(
            f"expanding {len(forms)} forms in {nvars} roots up to degree {top} "
            f"needs {size} bytes per packed integer"
        )

    # the kept slots come in runs, one per choice of the exponents of
    # x_2..x_n, listed as (those exponents, first slot, their degree): the
    # exponent of x_1 is the lowest digit and runs up to min(cap_0, top - degree)
    runs = [((), 0, 0)]
    for i in range(nvars - 1, 0, -1):
        runs = [
            ((a, *ex), slot + a * steps[i], deg + a)
            for ex, slot, deg in runs
            for a in range(min(caps[i], top - deg) + 1)
        ]
    bits = bytearray(size)
    for _, slot, deg in runs:
        run = min(caps[0], top - deg) + 1
        bits[slot * wb:(slot + run) * wb] = b"\xff" * (run * wb)
    mask = int.from_bytes(bits, "little")

    shifts = [8 * wb * step for step in steps[:-1]]
    pos, neg = 1, 0
    for m in forms:
        p, q = pos, neg
        for sh, mj in zip(shifts, m):
            if mj > 0:
                p += (pos << sh) * mj
                if neg:
                    q += (neg << sh) * mj
            elif mj < 0:
                q += (pos << sh) * -mj
                if neg:
                    p += (neg << sh) * -mj
        pos, neg = p & mask, q & mask

    nbytes = (mask.bit_length() + 7) // 8
    pb, nb = pos.to_bytes(nbytes, "little"), neg.to_bytes(nbytes, "little")
    coef: dict[tuple[int, ...], int] = {}
    for ex, slot, deg in runs:
        for a in range(min(caps[0], top - deg) + 1):
            o = (slot + a) * wb
            coef[(a, *ex)] = (
                int.from_bytes(pb[o:o + wb], "little")
                - int.from_bytes(nb[o:o + wb], "little")
            )
    for ex, c in coef.items():
        if coef[tuple(sorted(ex, reverse=True))] != c:
            raise ValueError("product of the linear forms is not symmetric")

    zero_key = (0,) * nvars
    signs: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    result: dict[Partition, int] = {}
    for lam in _partitions(nvars, width, top):
        ell = len(lam)
        if ell not in signs:
            signs[ell] = [
                ((-1) ** sum(w[j] > w[i] for i in range(ell) for j in range(i)),
                 tuple(w[i] - i for i in range(ell)))
                for w in permutations(range(ell))
            ]
        pad = zero_key[ell:]
        c = 0
        for sign, shift in signs[ell]:
            term = coef.get(tuple(p + s for p, s in zip(lam, shift)) + pad)
            if term:
                c += sign * term
        if c:
            result[lam] = c
    return result
