"""Subgroups of W_n: closures, the base/swap factorization, duals, hidden cosets.

Every subgroup factors as (U meet base) * (U meet U^swap), and the dual of a
subgroup under the pairing is itself a subgroup exactly when the subgroup is
fixed by swap conjugation.  Both facts are exercised heavily by the test
suites; this module supplies the objects and both computation routes for the
dual (exhaustive membership scan and F2 kernel through the relabeling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .f2 import kernel_basis, span_vectors
from .wreath import (
    GroupElement,
    all_elements,
    element_from_pairing_vector,
    elements_at,
    group_order,
    index_array,
    multiply_indices,
    pairing_vector_array,
    swap_conjugate_table,
)

BRUTEFORCE_ARITY_LIMIT = 6

# codes scanned per pass of perp_bruteforce: bounds its scratch at |W| x this
PERP_BLOCK = 64


def closure_of(n: int, generators) -> frozenset[GroupElement]:
    """Subgroup generated by `generators`."""
    return generate(n, generators)[1]


def generate(n: int, elements) -> tuple[list[GroupElement], frozenset[GroupElement]]:
    """Greedy small generating set for a set of elements, and the subgroup it generates.

    Elements are taken in index order; one becomes a generator only when the
    generators before it do not already generate it.  The closure grows on a
    membership mask over W_n, one generator at a time (see `_adjoin`), so the
    whole run costs one product per (closure element, generator) pair.
    """
    gens, have = _generate_indices(n, elements)
    return elements_at(n, gens), frozenset(elements_at(n, np.flatnonzero(have)))


def _generate_indices(n: int, elements) -> tuple[list[int], np.ndarray]:
    """`generate` on indices: the generators' indices and the closure's membership mask over W_n."""
    elements = list(elements)
    _check_arity(n, elements, "generator")
    gens: list[int] = []
    have = np.zeros(group_order(n), dtype=bool)
    have[0] = True
    rest = np.sort(index_array(elements))  # a repeat is in `have` once its first copy is
    while (rest := rest[~have[rest]]).size:
        _adjoin(n, have, gens, int(rest[0]))
    return gens, have


def _adjoin(n: int, have: np.ndarray, gens: list[int], g: int) -> None:
    """Append generator index g to gens and grow `have`, the mask of <gens>, in place.

    The old elements need only their right product by g; each new element
    then takes every generator once, a whole frontier per round.  `reached`
    marks every product so far, so the frontier is the reached elements not
    yet in `have`, each once.
    """
    gens.append(g)
    gen_array = np.array(gens, dtype=np.int64)
    reached = np.zeros_like(have)
    reached[multiply_indices(n, np.flatnonzero(have), g)] = True
    while (frontier := np.flatnonzero(reached & ~have)).size:
        have[frontier] = True
        reached[multiply_indices(n, frontier[:, None], gen_array)] = True


def _check_arity(n: int, elements, kind: str = "element") -> None:
    for g in elements:
        if g.n != n:
            raise ValueError(f"{kind} arity {g.n} does not match n={n}")


def generating_set(n: int, elements) -> list[GroupElement]:
    """Greedy small generating set for a set of elements (taken in index order)."""
    return generate(n, elements)[0]


class Subgroup:
    """A subgroup of W_n held as a generator tuple plus a cached element set."""

    def __init__(self, n: int, generators=()):
        gens = tuple(generators)
        _check_arity(n, gens, "generator")
        self.n = n
        self.generators = gens
        self._closure: frozenset[GroupElement] | None = None

    @classmethod
    def from_elements(cls, n: int, elements) -> "Subgroup":
        """Build from an element set, recomputing a small generating set."""
        elems = frozenset(elements)
        gens, closure = generate(n, elems)
        sub = cls(n, gens)
        sub._closure = closure
        if closure != elems:
            raise ValueError("element set is not closed under the group operation")
        return sub

    @classmethod
    def trivial(cls, n: int) -> "Subgroup":
        return cls(n, ())

    @classmethod
    def whole_group(cls, n: int) -> "Subgroup":
        gens = [GroupElement(1 << i, 0, 0, n) for i in range(n)]
        gens += [GroupElement(0, 1 << i, 0, n) for i in range(n)]
        gens.append(GroupElement.swap(n))
        return cls(n, gens)

    @property
    def closure(self) -> frozenset[GroupElement]:
        if self._closure is None:
            self._closure = closure_of(self.n, self.generators)
        return self._closure

    @property
    def order(self) -> int:
        return len(self.closure)

    @property
    def index_in_group(self) -> int:
        return group_order(self.n) // self.order

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.closure

    def __iter__(self):
        return iter(self.closure)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.n == other.n and self.closure == other.closure

    def __hash__(self) -> int:
        return hash((self.n, self.closure))

    def __repr__(self) -> str:
        gens = ",".join(g.literal() for g in self.generators)
        return f"Subgroup(n={self.n}, order={self.order}, <{gens}>)"

    def to_dict(self) -> dict:
        return {"n": self.n, "generators": [g.literal() for g in self.generators]}

    @classmethod
    def from_dict(cls, data: dict) -> "Subgroup":
        n = int(data["n"])
        gens = [GroupElement.from_literal(lit) for lit in data["generators"]]
        return cls(n, gens)


# -- set-level operations ----------------------------------------------------


def product_set(a, b) -> frozenset[GroupElement]:
    """{x * y : x in a, y in b}."""
    a, b = list(a), list(b)
    if not a or not b:
        return frozenset()
    n = a[0].n
    for g in a + b:
        if g.n != n:
            raise ValueError(f"arity mismatch: {n} vs {g.n}")
    products = multiply_indices(n, index_array(a)[:, None], index_array(b)[None, :])
    return frozenset(elements_at(n, np.unique(products)))


def intersect_base_group(u: Subgroup) -> Subgroup:
    return Subgroup.from_elements(u.n, {g for g in u.closure if g.in_base_group()})


def conjugate_by_swap(u: Subgroup) -> Subgroup:
    """The subgroup U^swap; conjugation is an automorphism, so map generators."""
    table = swap_conjugate_table(u.n)
    out = Subgroup(u.n, elements_at(u.n, table[index_array(u.generators)]))
    if u._closure is not None:
        out._closure = frozenset(elements_at(u.n, table[index_array(u._closure)]))
    return out


def intersect(u: Subgroup, v: Subgroup) -> Subgroup:
    if u.n != v.n:
        raise ValueError(f"arity mismatch: {u.n} vs {v.n}")
    return Subgroup.from_elements(u.n, u.closure & v.closure)


def canonical_factorization(u: Subgroup) -> tuple[Subgroup, Subgroup]:
    """(U meet base, U meet U^swap); the setwise product recovers U."""
    return intersect_base_group(u), intersect(u, conjugate_by_swap(u))


def is_balanced(u: Subgroup) -> bool:
    """True when U equals its swap conjugate."""
    return u.closure == conjugate_by_swap(u).closure


# -- duals --------------------------------------------------------------------


def perp_bruteforce(n: int, elements) -> frozenset[GroupElement]:
    """Dual of an element set by exhaustive membership scan (n <= 6).

    Every group element is tested against every given element, PERP_BLOCK
    codes at a time; only the rows that pass a block meet the next one, so a
    large set rules most rows out in its first block.
    """
    if n > BRUTEFORCE_ARITY_LIMIT:
        raise CapacityError(f"exhaustive dual scan capped at n={BRUTEFORCE_ARITY_LIMIT}, got {n}")
    elements = list(elements)
    _check_arity(n, elements)
    table = pairing_vector_array(n)
    codes = table[index_array(elements)]
    rows = np.arange(group_order(n))
    for start in range(0, codes.size, PERP_BLOCK):
        odd = np.bitwise_count(table[rows, None] & codes[None, start : start + PERP_BLOCK]) & 1
        rows = rows[~odd.any(axis=1)]
    return frozenset(elements_at(n, rows))


def perp_linear(n: int, elements) -> frozenset[GroupElement]:
    """Dual of an element set via an F2 kernel through the relabeling."""
    elements = list(elements)
    _check_arity(n, elements)
    width = 2 * n + 1
    rows = [g.pairing_vector() for g in elements]
    basis = kernel_basis(rows, width)
    return frozenset(element_from_pairing_vector(n, v) for v in span_vectors(basis, width))


# -- hidden coset functions -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class HiddenFunction:
    """Left-coset labeling of W_n: constant on gU, distinct across cosets.

    `labels[i]` is the label of the element with index i; labels are assigned
    in increasing first-visit order, so label 0 is the subgroup itself.
    """

    n: int
    labels: np.ndarray
    subgroup: Subgroup

    @property
    def label_count(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def label_bits(self) -> int:
        return max(1, (self.label_count - 1).bit_length())

    def label_of(self, g: GroupElement) -> int:
        if g.n != self.n:
            raise ValueError(f"arity mismatch: {g.n} vs {self.n}")
        return int(self.labels[g.index])

    def __call__(self, g: GroupElement) -> int:
        return self.label_of(g)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "labels": [int(v) for v in self.labels],
            "subgroup": self.subgroup.to_dict(),
        }


def build_hidden_function(u: Subgroup) -> HiddenFunction:
    n = u.n
    size = group_order(n)
    labels = np.full(size, -1, dtype=np.int64)
    members = sorted(u.closure, key=lambda e: e.index)
    next_label = 0
    for i in range(size):
        if labels[i] >= 0:
            continue
        g = GroupElement.from_index(n, i)
        for m in members:
            labels[(g * m).index] = next_label
        next_label += 1
    labels.setflags(write=False)
    return HiddenFunction(n=n, labels=labels, subgroup=u)


# -- generation and enumeration --------------------------------------------------


def random_subgroup(n: int, rng: np.random.Generator) -> Subgroup:
    """Closure of k uniform elements, k uniform on {0, ..., 2n+1} (n <= 6)."""
    if n > BRUTEFORCE_ARITY_LIMIT:
        raise CapacityError(f"random subgroup sampling capped at n={BRUTEFORCE_ARITY_LIMIT}")
    k = int(rng.integers(0, 2 * n + 2))
    gens = [GroupElement.from_index(n, int(rng.integers(0, group_order(n)))) for _ in range(k)]
    return Subgroup(n, gens)


def enumerate_subgroups(n: int) -> list[Subgroup]:
    """All subgroups of W_n, by closing the lattice upward from cyclic ones.

    Exhaustive enumeration is only viable for n = 1 (10 subgroups) and n = 2
    (a few hundred, takes seconds); larger n is rejected.
    """
    if n >= 3:
        raise ValueError(f"subgroup enumeration supported for n <= 2, got {n}")
    everyone = all_elements(n)
    found: dict[frozenset[GroupElement], Subgroup] = {}
    trivial = Subgroup.trivial(n)
    found[trivial.closure] = trivial
    frontier = [trivial]
    while frontier:
        fresh: list[Subgroup] = []
        for sub in frontier:
            for g in everyone:
                if g in sub.closure:
                    continue
                bigger = Subgroup(n, list(sub.generators) + [g])
                key = bigger.closure
                if key not in found:
                    found[key] = bigger
                    fresh.append(bigger)
        frontier = fresh
    out = sorted(found.values(), key=lambda s: (s.order, sorted(g.index for g in s.closure)))
    return [Subgroup.from_elements(n, s.closure) for s in out]
