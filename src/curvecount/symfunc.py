"""Partition combinatorics and symmetric-function expansion.

Partitions are plain tuples of weakly decreasing positive integers with
trailing zeros trimmed; the empty tuple is the empty partition.  This module
provides the combinatorial layer everything else is built on: box-bounded
partition enumeration, Schubert products by one walk that adds horizontal
strips, and the Schur expansion of the total Chern class of Sym^d of a
rank-r bundle, given d and r.  The walk adds the rows of one factor to the
other, one labelled strip per row under the lattice condition; the Pieri
rule is its one-strip case.  The Sym^d root product is held as a packed
integer, box-bounded: one fixed-width slot per root monomial, with
exponents capped at what the partitions inside a caller's box can read.

All functions are pure.  The caches only ever store values that any caller
would recompute identically, so concurrent readers and redundant concurrent
writes are harmless.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb, prod

Partition = tuple[int, ...]

# the bytes a packed Sym^d root product may take, the same on every host
_MAX_PACKED_BYTES = 2**28


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


# c^nu_{lam,mu} by the strip walk confined to nu.  Only bench/tracing.py
# reads it, into its table of caches, so it goes when that tracer goes
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
    d: int, r: int, truncation: int, cols: int | None = None
) -> dict[Partition, int]:
    """Expand c(Sym^d) = prod_m (1 + m.x) in the Schur basis s_lam(x_1..x_r).

    One factor 1 + m.x = 1 + sum_j m_j x_j per root m of
    `sym_power_roots(d, r)`: nonnegative integer vectors over the Chern
    roots x_1..x_r of the argument, each summing to d.
    The product is expanded in root monomials and truncated in total degree.
    An s_lam read has at most `truncation` rows and keeps its value when the
    later roots are set to zero, so the product runs over the first
    min(r, truncation) roots, without the forms that vanish there.

    The truncated product is held as a packed integer, box-bounded: the
    monomial x^a is a slot of a fixed number of bytes at position
    sum_i a_i * step_i, and multiplying by 1 + m.x is
    f + sum_i m_i * (f << shift_i) followed by an AND with a mask that keeps
    the slots of total degree at most the truncation and each exponent a_i
    at most cap_i.  No coefficient is negative, so no slot ever borrows.  A
    slot of degree j is at most e_j of the N factors' coefficient sums, all
    d, that is comb(N, j) * d^j; the width holds it for every j up to one
    past the truncation, so the slots a multiply carries one degree too
    high, which the mask then drops, never overflow into a kept slot.  Digit
    i has radix cap_i + 2, so an exponent of cap_i + 1 stays inside its
    digit.  The packed size is known before any monomial is listed: when it
    exceeds `_MAX_PACKED_BYTES`, MemoryError is raised at once.  The root
    set is closed under permuting the roots, so every coefficient must
    equal the one of its exponent vector sorted; a mismatch means the
    packing lost a carry, and raises ValueError.

    The Schur coefficients are read off with Jacobi's bialternant
    s_lam = a_{lam+delta} / a_delta: c_lam = sum_w sgn(w) [x^(lam_i + w(i) - i)]
    of the product, over permutations w.  Rows below the length of lam are
    pinned (their exponents w(i) - i would turn negative), so w runs over the
    first len(lam) rows only.  The result maps each partition with at most
    r rows and weight at most `truncation` to its nonzero coefficient.
    With `cols` given, only partitions with lam_1 <= cols are read: a caller
    whose s_lam vanishes outside a box passes the box's width.  The read
    exponent of x_(i+1) is lam_i + w(i) - i <= lam_i + r - 1 - i, with
    lam_i at most cols and at most truncation / (i + 1), which gives cap_i.
    The caps do not increase with i, so a kept monomial's exponents sorted
    into decreasing order are kept too, and the symmetry check reads both.
    """
    forms = sym_power_roots(d, r)
    # the product has degree at most the number of factors
    top = max(min(truncation, len(forms)), 0)
    width = top if cols is None else min(cols, top)
    if r > top:
        r = max(top, 1)
        forms = [m[:r] for m in forms if any(m[:r])]
    caps = [min(top, min(width, top // (i + 1)) + r - 1 - i) for i in range(r)]
    steps = [1]
    for cap in caps:
        steps.append(steps[-1] * (cap + 2))
    bound = max(comb(len(forms), j) * d**j for j in range(top + 2))
    wb = (bound.bit_length() + 7) // 8  # bytes per slot
    size = steps[-1] * wb  # bytes of a packed integer, unmasked slots too
    if size > _MAX_PACKED_BYTES:
        raise MemoryError(
            f"expanding {len(forms)} forms in {r} roots up to degree {top} "
            f"needs {size} bytes per packed integer"
        )

    # the kept slots come in runs, one per choice of the exponents of
    # x_2..x_r, listed as (those exponents, first slot, their degree): the
    # exponent of x_1 is the lowest digit and runs up to min(cap_0, top - degree)
    runs = [((), 0, 0)]
    for i in range(r - 1, 0, -1):
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
    f = 1
    for m in forms:
        g = f
        for sh, mj in zip(shifts, m):
            if mj:
                g += (f << sh) * mj
        f = g & mask

    fb = f.to_bytes((mask.bit_length() + 7) // 8, "little")
    coef: dict[tuple[int, ...], int] = {}
    for ex, slot, deg in runs:
        for a in range(min(caps[0], top - deg) + 1):
            o = (slot + a) * wb
            coef[(a, *ex)] = int.from_bytes(fb[o:o + wb], "little")
    for ex, c in coef.items():
        if coef[tuple(sorted(ex, reverse=True))] != c:
            raise ValueError("packed Sym^d root product is not symmetric")

    zero_key = (0,) * r
    signs: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    result: dict[Partition, int] = {}
    for lam in _partitions(r, width, top):
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
