"""Index-array group arithmetic against the GroupElement code it replaced.

The pure-Python versions of `product_set`, `perp_bruteforce`, swap
conjugation and the pairing loop are kept here as oracles: the numpy
versions must agree with them exactly, on every pair at small arity and on
random inputs beyond.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from wreath_hsp.errors import CapacityError
from wreath_hsp.subgroups import (
    Subgroup,
    conjugate_by_swap,
    perp_bruteforce,
    product_set,
    random_subgroup,
)
from wreath_hsp.wreath import (
    GroupElement,
    all_elements,
    elements_at,
    elements_by_index,
    group_order,
    index_array,
    multiply_indices,
    pairing,
    pairing_vector_array,
    pairing_vector_table,
    swap_conjugate_table,
)


def product_set_oracle(a, b):
    return frozenset(x * y for x in a for y in b)


def perp_bruteforce_oracle(n, elements):
    table = pairing_vector_table(n)
    codes = [g.pairing_vector() for g in elements]
    out = []
    for i in range(group_order(n)):
        if all((table[i] & c).bit_count() & 1 == 0 for c in codes):
            out.append(GroupElement.from_index(n, i))
    return frozenset(out)


def swap_conjugate_oracle(elements):
    return [g.conjugate_by(GroupElement.swap(g.n)) for g in elements]


def random_element_set(n, rng, size):
    picks = rng.choice(group_order(n), size=size, replace=False)
    return {GroupElement.from_index(n, int(i)) for i in picks}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_elements_by_index_lines_up_with_index(n):
    elems = elements_by_index(n)
    assert elems is elements_by_index(n)  # cached
    assert [g.index for g in elems] == list(range(group_order(n)))
    assert all_elements(n) == list(elems)
    assert elements_at(n, index_array(elems)) == list(elems)
    assert index_array([]).dtype == np.int64 and index_array([]).size == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_indices_matches_mul_on_all_pairs(n):
    elems = all_elements(n)
    idx = index_array(elems)
    got = multiply_indices(n, idx[:, None], idx[None, :])
    want = np.array([[(g * h).index for h in elems] for g in elems])
    assert np.array_equal(got, want)
    assert int(multiply_indices(n, 3, 5)) == (elems[3] * elems[5]).index


def test_multiply_indices_matches_mul_on_random_pairs_at_n6():
    n = 6
    rng = np.random.default_rng(6)
    g, h = rng.integers(0, group_order(n), size=(2, 10_000))
    got = multiply_indices(n, g, h)
    elems = elements_by_index(n)
    assert got.tolist() == [(elems[a] * elems[b]).index for a, b in zip(g.tolist(), h.tolist())]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_tables_match_the_element_methods(n):
    elems = all_elements(n)
    pv = pairing_vector_array(n)
    assert pv.dtype == np.int64 and not pv.flags.writeable
    assert pv.tolist() == [g.pairing_vector() for g in elems]
    assert pairing_vector_table(n) == tuple(pv.tolist())
    conj = swap_conjugate_table(n)
    assert conj.dtype == np.int64 and not conj.flags.writeable
    assert elements_at(n, conj) == swap_conjugate_oracle(elems)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parity_matrix_matches_pairing_on_all_pairs(n):
    elems = all_elements(n)
    table = pairing_vector_array(n)
    parity = np.bitwise_count(table[:, None] & table[None, :]) & 1
    assert parity.tolist() == [[pairing(g, h) for h in elems] for g in elems]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_set_matches_the_double_loop(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(20):
        a = random_element_set(n, rng, int(rng.integers(1, 9)))
        b = random_element_set(n, rng, int(rng.integers(1, 9)))
        assert product_set(a, b) == product_set_oracle(a, b)
    everyone = all_elements(n)
    assert product_set(everyone, everyone) == frozenset(everyone)
    u = random_subgroup(n, rng)
    assert product_set(iter(u.closure), iter(u.closure)) == u.closure


def test_product_set_edge_cases():
    a = set(all_elements(1))
    assert product_set(a, []) == frozenset() == product_set_oracle(a, [])
    assert product_set([], a) == frozenset()
    mixed = [GroupElement.identity(1), GroupElement.identity(2)]
    for left, right in (([mixed[0]], [mixed[1]]), (mixed, [mixed[0]]), ([mixed[1]], mixed)):
        with pytest.raises(ValueError):
            product_set_oracle(left, right)
        with pytest.raises(ValueError, match="arity"):
            product_set(left, right)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_perp_bruteforce_matches_the_python_scan(n):
    rng = np.random.default_rng(20 + n)
    sizes = [0, 1, 2, 5, 70, group_order(n)] + [int(rng.integers(1, 40)) for _ in range(5)]
    for size in sizes:
        elems = random_element_set(n, rng, min(size, group_order(n)))
        assert perp_bruteforce(n, elems) == perp_bruteforce_oracle(n, elems)
    u = random_subgroup(n, rng)
    assert perp_bruteforce(n, u.closure) == perp_bruteforce_oracle(n, u.closure)


def test_perp_bruteforce_edges():
    assert perp_bruteforce(3, []) == frozenset(all_elements(3))  # the dual of nothing is W
    assert perp_bruteforce(2, iter([GroupElement.identity(2)])) == frozenset(all_elements(2))
    with pytest.raises(ValueError):
        perp_bruteforce(2, [GroupElement.identity(3)])
    with pytest.raises(CapacityError):
        perp_bruteforce(7, [])


def test_perp_bruteforce_of_the_whole_group_at_n6_is_fast():
    everyone = all_elements(6)
    start = time.perf_counter()
    got = perp_bruteforce(6, everyone)
    assert time.perf_counter() - start < 0.5
    assert got == {GroupElement.identity(6)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugate_by_swap_matches_conjugate_by(n):
    rng = np.random.default_rng(30 + n)
    for _ in range(10):
        u = random_subgroup(n, rng)
        lazy = conjugate_by_swap(Subgroup(n, u.generators))
        assert list(lazy.generators) == swap_conjugate_oracle(u.generators)
        want = frozenset(swap_conjugate_oracle(u.closure))
        eager = conjugate_by_swap(u)  # u.closure is built by now, so it is mapped
        assert eager._closure == want
        assert lazy.closure == eager.closure
