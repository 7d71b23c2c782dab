"""Exact linear algebra over GF(2).

Vectors are ints (bit j = coordinate j), matrices are lists of row ints with
an explicit column count.  All bases are returned in reduced row echelon form
with pivot columns ascending, so span equality is plain list equality.
"""

from __future__ import annotations


def dot(u: int, v: int) -> int:
    return (u & v).bit_count() & 1


def _check(rows: list[int] | tuple[int, ...], width: int) -> None:
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    top = 1 << width
    for r in rows:
        if not 0 <= r < top:
            raise ValueError(f"row {r:#x} does not fit in {width} columns")


def rref(rows, width: int) -> list[int]:
    """Reduced row-echelon basis of the row space of `rows`."""
    _check(rows, width)
    basis: list[int] = []  # kept fully reduced, sorted by pivot column
    pivots: list[int] = []
    for v in rows:
        for p, b in zip(pivots, basis):
            if (v >> p) & 1:
                v ^= b
        if v == 0:
            continue
        p = (v & -v).bit_length() - 1
        basis = [b ^ v if (b >> p) & 1 else b for b in basis]
        at = sum(1 for q in pivots if q < p)
        basis.insert(at, v)
        pivots.insert(at, p)
    return basis


def rank(rows, width: int) -> int:
    return len(rref(rows, width))


def span_contains(basis, v: int, width: int) -> bool:
    _check(basis, width)
    _check([v], width)
    for b in rref(basis, width):
        p = (b & -b).bit_length() - 1
        if (v >> p) & 1:
            v ^= b
    return v == 0


def span_equal(a, b, width: int) -> bool:
    return rref(a, width) == rref(b, width)


def kernel_basis(rows, width: int) -> list[int]:
    """Basis of {v : dot(r, v) = 0 for every row r}, in RREF."""
    reduced = rref(rows, width)
    pivots = [(b & -b).bit_length() - 1 for b in reduced]
    pivot_set = set(pivots)
    out = []
    for j in range(width):
        if j in pivot_set:
            continue
        v = 1 << j
        for p, b in zip(pivots, reduced):
            if (b >> j) & 1:
                v |= 1 << p
        out.append(v)
    return rref(out, width)


def span_vectors(basis, width: int) -> list[int]:
    """All 2^k vectors spanned by an independent basis, in a fixed order."""
    basis = rref(basis, width)
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out
