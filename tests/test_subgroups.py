"""Subgroup algebra: closures, factorization, duals, hidden functions.

The enumeration and dual computations are cross-checked against raw subset
scans at the smallest arities where those scans are feasible.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from wreath_hsp.errors import CapacityError
from wreath_hsp.subgroups import (
    HiddenFunction,
    Subgroup,
    build_hidden_function,
    canonical_factorization,
    closure_of,
    conjugate_by_swap,
    enumerate_subgroups,
    generating_set,
    intersect,
    intersect_base_group,
    is_balanced,
    perp_bruteforce,
    perp_linear,
    product_set,
    random_subgroup,
)
from wreath_hsp.wreath import GroupElement, all_elements, group_order, pairing

W1_SUBGROUP_COUNT = 10
W2_SUBGROUP_COUNT = 106
W2_ORDER_HISTOGRAM = {1: 1, 2: 19, 4: 47, 8: 31, 16: 7, 32: 1}


def closed_subsets_by_scan(n, max_order):
    """All subgroups up to max_order, by scanning raw element subsets."""
    elems = all_elements(n)
    e = GroupElement.identity(n)
    out = []
    sizes = [k for k in [1, 2, 4, 8] if k <= max_order]
    rest = [g for g in elems if g != e]
    for size in sizes:
        for combo in combinations(rest, size - 1):
            subset = frozenset((e, *combo))
            if all(g * h in subset for g in subset for h in subset):
                out.append(subset)
    return out


def test_closure_example():
    got = closure_of(1, [GroupElement(0, 1, 1, 1)])
    want = {"0|0|0", "0|1|1", "1|0|1", "1|1|0"}
    assert {g.literal() for g in got} == want


def test_closure_degenerate_cases():
    assert closure_of(2, []) == frozenset({GroupElement.identity(2)})
    assert len(closure_of(2, [GroupElement.swap(2)])) == 2
    assert Subgroup.trivial(3).order == 1
    assert Subgroup.whole_group(2).order == group_order(2)


def test_enumeration_matches_subset_scan_w1():
    scanned = closed_subsets_by_scan(1, 8)
    assert len(scanned) == W1_SUBGROUP_COUNT
    enumerated = {s.closure for s in enumerate_subgroups(1)}
    assert enumerated == set(scanned)


def test_enumeration_w2_counts():
    subs = enumerate_subgroups(2)
    assert len(subs) == W2_SUBGROUP_COUNT
    assert dict(Counter(s.order for s in subs)) == W2_ORDER_HISTOGRAM
    assert len({s.closure for s in subs}) == len(subs)
    # the subset scan independently confirms every subgroup of order <= 4
    scanned = {s for s in closed_subsets_by_scan(2, 4)}
    assert {s.closure for s in subs if s.order <= 4} == scanned


def test_enumeration_rejects_large_arity():
    with pytest.raises(ValueError):
        enumerate_subgroups(3)


def test_from_elements_requires_closure():
    with pytest.raises(ValueError):
        Subgroup.from_elements(1, [GroupElement.identity(1), GroupElement(0, 1, 1, 1)])
    sub = Subgroup.from_elements(1, closure_of(1, [GroupElement(0, 1, 1, 1)]))
    assert sub.order == 4


def test_generating_set_regenerates():
    for sub in enumerate_subgroups(1):
        gens = generating_set(1, sub.closure)
        assert closure_of(1, gens) == sub.closure
        assert len(gens) <= 3


@pytest.mark.parametrize("n", [1, 2])
def test_factorization_identity(n):
    rng = np.random.default_rng(7)
    pool = enumerate_subgroups(n) if n == 1 else [random_subgroup(n, rng) for _ in range(40)]
    for sub in pool:
        base_part, balanced_part = canonical_factorization(sub)
        assert base_part.closure <= sub.closure
        assert balanced_part.closure <= sub.closure
        assert product_set(base_part, balanced_part) == sub.closure
        assert intersect_base_group(sub) == base_part
        assert intersect(sub, conjugate_by_swap(sub)) == balanced_part
        assert is_balanced(balanced_part)


def test_w1_balancedness_census():
    subs = enumerate_subgroups(1)
    unbalanced = [s for s in subs if not is_balanced(s)]
    assert len(unbalanced) == 2
    expected = [{"0|0|0", "1|0|0"}, {"0|0|0", "0|1|0"}]
    got = sorted({g.literal() for g in s.closure} for s in unbalanced)
    assert got == sorted(expected)
    for s in subs:
        direct = {g.conjugate_by(GroupElement.swap(1)) for g in s.closure}
        assert is_balanced(s) == (direct == s.closure)
        assert conjugate_by_swap(s).closure == direct


def test_subgroups_not_inside_base_are_balanced():
    for s in enumerate_subgroups(2):
        if any(g.a == 1 for g in s.closure):
            assert is_balanced(s)


def test_base_part_index_is_one_or_two():
    # the base part is always index 1 or 2, and at index 2 it is swap-stable
    rng = np.random.default_rng(19)
    for _ in range(100):
        sub = random_subgroup(2, rng)
        base_part = intersect_base_group(sub)
        index = sub.order // base_part.order
        assert index in (1, 2)
        if index == 2:
            assert is_balanced(base_part)


def test_random_subgroups_hit_non_balanced_cases():
    rng = np.random.default_rng(99)
    unbalanced = sum(not is_balanced(random_subgroup(2, rng)) for _ in range(1000))
    assert unbalanced > 10


def perp_by_definition(n, elements):
    return {g for g in all_elements(n) if all(pairing(g, h) == 0 for h in elements)}


@pytest.mark.parametrize("n", [1, 2])
def test_perp_implementations_agree(n):
    rng = np.random.default_rng(3)
    pools = [s.closure for s in enumerate_subgroups(1)] if n == 1 else [
        random_subgroup(n, rng).closure for _ in range(25)
    ]
    for elems in pools:
        want = perp_by_definition(n, elems)
        assert perp_bruteforce(n, elems) == want
        assert perp_linear(n, elems) == want


def test_perp_examples():
    base = [g for g in all_elements(1) if g.a == 0]
    assert {g.literal() for g in perp_bruteforce(1, base)} == {"0|0|0", "0|0|1"}
    whole = all_elements(2)
    assert perp_bruteforce(2, whole) == {GroupElement.identity(2)}
    assert perp_bruteforce(2, [GroupElement.identity(2)]) == frozenset(whole)
    # the dual of a set always contains the identity and is arity-consistent
    assert GroupElement.identity(1) in perp_linear(1, [GroupElement.swap(1)])


def test_perp_sizes_multiply_to_group_order():
    for s in enumerate_subgroups(2):
        assert len(perp_linear(2, s.closure)) * s.order == group_order(2)


@pytest.mark.parametrize("route", [perp_bruteforce, perp_linear])
def test_perp_rejects_elements_of_the_wrong_arity(route):
    # GroupElement(0, 0, 1, 1) is the swap of W_1; read as a W_2 code it
    # would give a 16-element dual
    with pytest.raises(ValueError, match="element arity 1 does not match n=2"):
        route(2, [GroupElement(0, 0, 1, 1)])
    with pytest.raises(ValueError, match="element arity 3 does not match n=2"):
        route(2, iter([GroupElement.identity(2), GroupElement.identity(3)]))


def test_perp_bruteforce_capacity():
    with pytest.raises(CapacityError):
        perp_bruteforce(7, [GroupElement.identity(7)])


@pytest.mark.parametrize("n", [1, 2])
def test_hidden_function_invariants(n):
    rng = np.random.default_rng(11)
    pool = enumerate_subgroups(n) if n == 1 else [random_subgroup(n, rng) for _ in range(50)]
    for sub in pool:
        f = build_hidden_function(sub)
        assert f.label_count == group_order(n) // sub.order
        e = GroupElement.identity(n)
        assert f(e) == 0
        for g in all_elements(n):
            assert (f(g) == f(e)) == (g in sub)
        for g in all_elements(n):
            for h in sub.closure:
                assert f(g * h) == f(g)
        assert f.labels.flags.writeable is False
        assert 1 << f.label_bits >= f.label_count


def test_hidden_function_distinguishes_cosets():
    sub = Subgroup(2, (GroupElement(1, 1, 0, 2), GroupElement(2, 2, 1, 2)))
    f = build_hidden_function(sub)
    seen = {}
    for g in all_elements(2):
        label = f(g)
        coset = frozenset(g * h for h in sub.closure)
        seen.setdefault(label, coset)
        assert seen[label] == coset
    assert len(seen) == f.label_count


def test_subgroup_serialization_roundtrip():
    for sub in enumerate_subgroups(1):
        again = Subgroup.from_dict(sub.to_dict())
        assert again == sub
    rng = np.random.default_rng(5)
    sub = random_subgroup(3, rng)
    assert Subgroup.from_dict(sub.to_dict()) == sub


def test_hidden_function_serialization():
    sub = Subgroup(1, (GroupElement(0, 1, 1, 1),))
    f = build_hidden_function(sub)
    payload = f.to_dict()
    assert payload["n"] == 1
    assert payload["labels"] == f.labels.tolist()
    assert payload["subgroup"] == sub.to_dict()


def test_random_subgroup_determinism():
    a = random_subgroup(2, np.random.default_rng(123))
    b = random_subgroup(2, np.random.default_rng(123))
    assert a == b
    samples = {random_subgroup(2, np.random.default_rng(seed)).closure for seed in range(30)}
    assert len(samples) > 5  # spread over the lattice, not a constant


def test_membership_and_equality():
    sub = Subgroup(1, (GroupElement(0, 1, 1, 1),))
    assert GroupElement(1, 1, 0, 1) in sub
    assert GroupElement(1, 0, 0, 1) not in sub
    same = Subgroup.from_elements(1, sub.closure)
    assert same == sub and hash(same) == hash(sub)
