"""Element arithmetic for the groups W_n = (Z2^n x Z2^n) : Z2.

An element is written (x, y; a): x and y are n-bit vectors over Z2 and a is a
single swap bit.  Right-multiplying by an element with a = 1 exchanges the two
n-bit halves before adding, so W_n is the wreath product of Z2^n with Z2 and
has exponent 4.

Index layout, used everywhere downstream (simulator registers, tables,
matrices): bits 0..n-1 hold x, bits n..2n-1 hold y, bit 2n holds a.

The bilinear-looking pairing on W_n is realised as an F2 inner product after
relabeling each element through a bijection onto 2n+1 bit vectors
(`pairing_vector`).  The relabeling leaves a = 0 elements alone and swaps the
halves of a = 1 elements; it is not a homomorphism.

The index-array form (`multiply_indices`, `pairing_vector_array`,
`swap_conjugate_table`) runs bulk arithmetic on numpy arrays of indices;
`elements_by_index` turns indices back into the shared `GroupElement`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GroupElement:
    """One element (x, y; a) of W_n; x, y packed as ints, a in {0, 1}."""

    x: int
    y: int
    a: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"arity must be at least 1, got {self.n}")
        mask = (1 << self.n) - 1
        if not 0 <= self.x <= mask or not 0 <= self.y <= mask:
            raise ValueError(f"components out of range for n={self.n}: x={self.x} y={self.y}")
        if self.a not in (0, 1):
            raise ValueError(f"swap bit must be 0 or 1, got {self.a}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(0, 0, 0, n)

    @classmethod
    def swap(cls, n: int) -> "GroupElement":
        """The pure half-swapping element (0, 0; 1)."""
        return cls(0, 0, 1, n)

    @classmethod
    def from_index(cls, n: int, index: int) -> "GroupElement":
        if not 0 <= index < (1 << (2 * n + 1)):
            raise ValueError(f"index {index} out of range for n={n}")
        mask = (1 << n) - 1
        return cls(index & mask, (index >> n) & mask, index >> (2 * n), n)

    @classmethod
    def from_literal(cls, text: str) -> "GroupElement":
        """Parse 'x|y|a' with x, y as n-char binary strings, most significant bit first."""
        parts = text.strip().split("|")
        if len(parts) != 3:
            raise ValueError(f"malformed element literal {text!r}: expected 'x|y|a'")
        xs, ys, as_ = parts
        if len(xs) == 0 or len(xs) != len(ys) or len(as_) != 1:
            raise ValueError(f"malformed element literal {text!r}: bad field widths")
        if any(c not in "01" for c in xs + ys + as_):
            raise ValueError(f"malformed element literal {text!r}: non-binary digit")
        return cls(int(xs, 2), int(ys, 2), int(as_, 2), len(xs))

    # -- encoding ----------------------------------------------------------

    @property
    def index(self) -> int:
        return self.x | self.y << self.n | self.a << (2 * self.n)

    def literal(self) -> str:
        return f"{self.x:0{self.n}b}|{self.y:0{self.n}b}|{self.a}"

    def __str__(self) -> str:
        return self.literal()

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n}")
        if other.a == 0:
            return GroupElement(self.x ^ other.x, self.y ^ other.y, self.a, self.n)
        return GroupElement(self.y ^ other.x, self.x ^ other.y, self.a ^ 1, self.n)

    def inverse(self) -> "GroupElement":
        if self.a == 0:
            return self
        return GroupElement(self.y, self.x, 1, self.n)

    def conjugate_by(self, g: "GroupElement") -> "GroupElement":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def order(self) -> int:
        e = GroupElement.identity(self.n)
        acc, k = self, 1
        while acc != e:
            acc = acc * self
            k += 1
        return k

    # -- predicates and relabeling ------------------------------------------

    def in_base_group(self) -> bool:
        """True when a = 0, i.e. the element lies in the index-2 abelian part."""
        return self.a == 0

    def in_diagonal(self) -> bool:
        """True when x = y; these elements commute with the swap."""
        return self.x == self.y

    def pairing_vector(self) -> int:
        """2n+1-bit relabeling under which the pairing is the F2 inner product."""
        if self.a == 0:
            return self.x | self.y << self.n
        return self.y | self.x << self.n | 1 << (2 * self.n)


def element_from_pairing_vector(n: int, code: int) -> GroupElement:
    """Inverse of GroupElement.pairing_vector (the relabeling is a bijection)."""
    if not 0 <= code < (1 << (2 * n + 1)):
        raise ValueError(f"code {code} out of range for n={n}")
    mask = (1 << n) - 1
    first, second, a = code & mask, (code >> n) & mask, code >> (2 * n)
    if a == 0:
        return GroupElement(first, second, 0, n)
    return GroupElement(second, first, 1, n)


def pairing(g: GroupElement, h: GroupElement) -> int:
    """F2 pairing on W_n: the inner product of the two pairing vectors."""
    if g.n != h.n:
        raise ValueError(f"arity mismatch: {g.n} vs {h.n}")
    return (g.pairing_vector() & h.pairing_vector()).bit_count() & 1


def group_order(n: int) -> int:
    return 1 << (2 * n + 1)


@lru_cache(maxsize=None)
def elements_by_index(n: int) -> tuple[GroupElement, ...]:
    """Every element of W_n, at the position of its GroupElement.index."""
    return tuple(GroupElement.from_index(n, i) for i in range(group_order(n)))


def all_elements(n: int) -> list[GroupElement]:
    return list(elements_by_index(n))


def index_array(elements) -> np.ndarray:
    """GroupElement.index of each element, in iteration order, as int64."""
    return np.fromiter((g.index for g in elements), dtype=np.int64)


def elements_at(n: int, indices) -> list[GroupElement]:
    """The elements at the given indices, in order; the inverse of index_array."""
    return list(map(elements_by_index(n).__getitem__, np.asarray(indices).tolist()))


def _swap_halves(n: int, indices: np.ndarray) -> np.ndarray:
    """(x, y; a) -> (y, x; a) on an index array."""
    mask = (1 << n) - 1
    return (indices >> n) & mask | (indices & mask) << n | indices & (1 << (2 * n))


def multiply_indices(n: int, g, h) -> np.ndarray:
    """Index of g * h for index arrays g and h (broadcast); GroupElement.__mul__ on arrays.

    Right-multiplying by an a = 1 element swaps the halves first; then every
    component, the swap bit included, adds as an XOR.
    """
    g = np.asarray(g, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    return np.where(h >> (2 * n), _swap_halves(n, g), g) ^ h


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def pairing_vector_table(n: int) -> tuple[int, ...]:
    """pairing_vector of every element, indexed by GroupElement.index."""
    return tuple(g.pairing_vector() for g in elements_by_index(n))


@lru_cache(maxsize=None)
def pairing_vector_array(n: int) -> np.ndarray:
    """pairing_vector_table as a read-only int64 array."""
    return _read_only(np.array(pairing_vector_table(n), dtype=np.int64))


@lru_cache(maxsize=None)
def swap_conjugate_table(n: int) -> np.ndarray:
    """Read-only int64 array: the index of g.conjugate_by(swap) at index g.

    Conjugating by the swap exchanges the halves and keeps a: (x, y; a) -> (y, x; a).
    """
    return _read_only(_swap_halves(n, np.arange(group_order(n), dtype=np.int64)))
