"""Index-array group arithmetic against the GroupElement code it replaced.

The pure-Python versions of `product_set`, `perp_bruteforce`, swap
conjugation, the pairing loop, `generate` with its growth step and the
`success_experiment` loop are kept here as oracles: the numpy versions must
agree with them exactly, on every pair at small arity and on random inputs
beyond.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from wreath_hsp.errors import CapacityError
from wreath_hsp.solver import CosetSampler, success_experiment
from wreath_hsp.subgroups import (
    Subgroup,
    build_hidden_function,
    closure_of,
    conjugate_by_swap,
    generate,
    generating_set,
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


def generate_oracle(n, elements):
    gens = []
    have = {GroupElement.identity(n)}
    for g in sorted(elements, key=lambda e: e.index):
        if g in have:
            continue
        if g.n != n:
            raise ValueError(f"generator arity {g.n} does not match n={n}")
        adjoin_oracle(have, gens, g)
    return gens, frozenset(have)


def adjoin_oracle(have, gens, g):
    gens.append(g)
    queue = [w for w in (u * g for u in have) if w not in have]
    have.update(queue)
    while queue:
        u = queue.pop()
        for h in gens:
            w = u * h
            if w not in have:
                have.add(w)
                queue.append(w)


def success_counts_oracle(n, trials, counts, rng):
    """success_experiment's loop, with the set-based growth step."""
    successes = dict.fromkeys(counts, 0)
    for _ in range(trials):
        u = random_subgroup(n, rng)
        sampler = CosetSampler(build_hidden_function(u))
        joint = perp_bruteforce(n, u.closure) | perp_bruteforce(n, conjugate_by_swap(u).closure)
        _, target = generate_oracle(n, joint)
        gens, current = [], {GroupElement.identity(n)}
        for i in range(max(counts) + 1):
            if i:
                element, _ = sampler.sample(rng)
                if element not in current:
                    adjoin_oracle(current, gens, element)
            if i in successes:
                successes[i] += current == target
    return [successes[i] for i in counts]


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


def generate_inputs(n, rng):
    """Random element lists at arity n, with the edge cases generate must keep."""
    everyone = all_elements(n)
    identity = GroupElement.identity(n)
    yield []
    yield [identity]
    yield [identity, identity]
    yield everyone
    yield list(reversed(everyone))
    for _ in range(25):
        picks = [everyone[int(i)] for i in rng.integers(0, group_order(n), size=int(rng.integers(1, 12)))]
        yield picks
        yield picks + picks[: len(picks) // 2] + [identity]  # duplicates and the identity
        yield list(closure_of(n, picks))  # already a closure
    for _ in range(5):
        yield list(random_subgroup(n, rng).closure)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generate_matches_the_set_based_oracle(n):
    rng = np.random.default_rng(50 + n)
    for elements in generate_inputs(n, rng):
        elements = list(elements)
        gens, closure = generate(n, iter(elements))
        want_gens, want_closure = generate_oracle(n, elements)
        assert gens == want_gens
        assert closure == want_closure
        assert all(type(g) is GroupElement for g in gens)
        assert generating_set(n, elements) == want_gens
        assert closure_of(n, elements) == want_closure


def test_generate_rejects_mixed_arity():
    mixed = [GroupElement.identity(2), GroupElement.swap(2), GroupElement(1, 0, 0, 1)]
    for elements in (mixed, mixed[::-1], [GroupElement.identity(3)]):
        with pytest.raises(ValueError, match="generator arity"):
            generate_oracle(2, elements)
        with pytest.raises(ValueError, match="generator arity"):
            generate(2, elements)
        with pytest.raises(ValueError, match="generator arity"):
            closure_of(2, iter(elements))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_success_experiment_matches_the_set_based_loop(n):
    counts = [0, 1, 2, 4, 8, 12]
    seen = set()
    for seed in (1, 2, 3):
        stats = success_experiment(n, 6, counts, np.random.default_rng(seed))
        want = success_counts_oracle(n, 6, counts, np.random.default_rng(seed))
        assert [s.successes for s in stats] == want
        seen.update(want)
    assert len(seen) > 1  # some checkpoints succeed and some fail
