"""Hidden-subgroup recovery: abelian rounds, restricted stages, full solver."""

from __future__ import annotations

import json

import numpy as np
import pytest

from wreath_hsp import subgroups
from wreath_hsp.f2 import rref, span_contains, span_equal, span_vectors
from wreath_hsp.simulator import Circuit, Gate, apply_gate, run_circuit
from wreath_hsp.qft import qft_circuit
from wreath_hsp.solver import (
    CosetSampler,
    PromiseViolationError,
    SolverParams,
    SuccessStats,
    _closed_under_product,
    abelian_hsp,
    find_involution,
    solve,
    solve_base_group,
    success_experiment,
)
from wreath_hsp.subgroups import (
    Subgroup,
    build_hidden_function,
    closure_of,
    conjugate_by_swap,
    enumerate_subgroups,
    generate,
    generating_set,
    intersect_base_group,
    perp_bruteforce,
    perp_linear,
    random_subgroup,
)
from wreath_hsp.wreath import GroupElement, all_elements, element_from_pairing_vector, group_order


def coset_label_table(m, basis):
    """Coset labels of span(basis) inside F2^m, for planting abelian instances."""
    reduced = rref(basis, m)
    labels = {}
    table = []
    for v in range(1 << m):
        rep = v
        for b in reduced:
            if rep & (b & -b):
                rep ^= b
        table.append(labels.setdefault(rep, len(labels)))
    return np.array(table, dtype=np.int64)


def test_abelian_hsp_recovers_planted_subspaces():
    rng = np.random.default_rng(31)
    for m in range(1, 7):
        for _ in range(6):
            k = int(rng.integers(0, m + 1))
            planted = rref([int(rng.integers(0, 1 << m)) for _ in range(k)], m)
            result = abelian_hsp(m, coset_label_table(m, planted), m + 8, rng)
            assert result.basis == planted
            assert result.stable
            for v in result.outcomes:
                assert all((v & b).bit_count() % 2 == 0 for b in planted)


def test_abelian_hsp_extremes():
    rng = np.random.default_rng(5)
    injective = np.arange(16, dtype=np.int64)
    assert abelian_hsp(4, injective, 12, rng).basis == []
    constant = np.zeros(16, dtype=np.int64)
    full = abelian_hsp(4, constant, 12, rng)
    assert span_equal(full.basis, [1, 2, 4, 8], 4)


def test_abelian_hsp_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        abelian_hsp(0, np.zeros(1, dtype=np.int64), 4, rng)
    with pytest.raises(ValueError):
        abelian_hsp(3, np.zeros(4, dtype=np.int64), 4, rng)


def test_abelian_hsp_recovers_a_fixed_plant_across_seeds():
    planted = rref([0b1100, 0b0011], 4)
    table = coset_label_table(4, planted)
    for seed in range(100):
        result = abelian_hsp(4, table, 20, np.random.default_rng(seed))
        assert span_equal(result.basis, planted, 4)
        assert result.stable


def test_abelian_hsp_flags_a_budget_too_small_to_stabilize():
    planted = rref([0b1100], 4)
    table = coset_label_table(4, planted)
    result = abelian_hsp(4, table, 2, np.random.default_rng(9))
    assert not result.stable
    assert len(result.outcomes) == 2
    # the partial answer is still sound: too few outcomes can only leave the
    # candidate kernel too large, never drop a planted vector
    for v in planted:
        assert span_contains(result.basis, v, 4)


def test_solve_base_group_exhaustive_w1():
    for sub in enumerate_subgroups(1):
        f = build_hidden_function(sub)
        gens = solve_base_group(f, SolverParams(n=1, seed=17))
        assert closure_of(1, gens) == intersect_base_group(sub).closure


def test_solve_base_group_random_w2():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sub = random_subgroup(2, rng)
        f = build_hidden_function(sub)
        gens = solve_base_group(f, SolverParams(n=2), rng=rng)
        assert closure_of(2, gens) == intersect_base_group(sub).closure


def test_perp_of_raw_joint_dual_set_recovers_the_swap_intersection():
    # reconstruction works on the bare union of the two duals, without closing
    # it into a subgroup first, by either perp route; exhaustive at n=1
    for sub in enumerate_subgroups(1):
        swapped = conjugate_by_swap(sub)
        joint = perp_bruteforce(1, sub.closure) | perp_bruteforce(1, swapped.closure)
        meet = sub.closure & swapped.closure
        assert perp_bruteforce(1, joint) == meet
        assert perp_linear(1, joint) == meet


@pytest.mark.parametrize("n", [1, 2])
def test_find_involution_exhaustive_small_subgroups(n):
    e = GroupElement.identity(n)
    small = [g for g in all_elements(n) if g.order() <= 2]
    for g in small:
        sub = Subgroup(n, () if g == e else (g,))
        f = build_hidden_function(sub)
        got = find_involution(f, SolverParams(n=n, seed=29))
        assert got == (None if g == e else g)


def test_find_involution_promise_violation():
    base = Subgroup.from_elements(1, {g for g in all_elements(1) if g.a == 0})
    with pytest.raises(PromiseViolationError):
        find_involution(build_hidden_function(base), SolverParams(n=1, seed=3))
    with pytest.raises(PromiseViolationError):
        find_involution(build_hidden_function(Subgroup.whole_group(2)), SolverParams(n=2, seed=3))


def swap_conjugate_closure(n, sub):
    sw = GroupElement.swap(n)
    return {g.conjugate_by(sw) for g in sub.closure}


def test_transform_samples_live_in_the_matching_dual():
    rng = np.random.default_rng(41)
    for _ in range(12):
        sub = random_subgroup(2, rng)
        f = build_hidden_function(sub)
        straight = perp_bruteforce(2, sub.closure)
        swapped = perp_bruteforce(2, swap_conjugate_closure(2, sub))
        sampler = CosetSampler(f)
        elements = []
        for _ in range(25):
            element, label = sampler.sample(rng)
            assert 0 <= label < f.label_count
            rep_index = int(np.flatnonzero(f.labels == label)[0])
            rep = GroupElement.from_index(2, rep_index)
            assert element in (straight if rep.in_base_group() else swapped)
            elements.append(element)
        # the sampler's span is over pairing vectors, so its kernel is the dual
        assert sampler.span == rref([g.pairing_vector() for g in elements], 5)
        dual = {element_from_pairing_vector(2, v) for v in span_vectors(sampler.kernel(), 5)}
        assert dual == perp_linear(2, elements)


def test_whole_group_always_samples_identity():
    f = build_hidden_function(Subgroup.whole_group(2))
    sampler = CosetSampler(f)
    rng = np.random.default_rng(8)
    for _ in range(10):
        element, label = sampler.sample(rng)
        assert element == GroupElement.identity(2)
        assert label == 0


def exact_sample_distributions(f):
    """Outcome distribution of the transform stage, with and without the
    intermediate label measurement, both computed from the full state."""
    n = f.n
    first = 2 * n + 1
    total = first + f.label_bits
    prep = Circuit(total)
    prep.extend(Gate.h(q) for q in range(first))
    prep.append(Gate.oracle_xor(range(first), range(first, total), f.labels))
    state = run_circuit(prep)
    gates = qft_circuit(n).circuit.gates

    def transform(psi):
        for g in gates:
            psi = apply_gate(psi, g, total)
        return np.abs(psi.reshape(-1, 1 << first)) ** 2

    skipped = transform(state).sum(axis=0)

    blocks = state.reshape(-1, 1 << first)
    mixed = np.zeros(1 << first)
    for z in range(blocks.shape[0]):
        weight = float((np.abs(blocks[z]) ** 2).sum())
        if weight < 1e-15:
            continue
        collapsed = np.zeros_like(state).reshape(-1, 1 << first)
        collapsed[z] = blocks[z] / np.sqrt(weight)
        mixed += weight * transform(collapsed.reshape(-1)).sum(axis=0)
    return skipped, mixed


def test_label_measurement_is_distribution_neutral():
    cases = [
        Subgroup(1, (GroupElement(1, 0, 0, 1),)),  # inside the base group, not balanced
        Subgroup(1, (GroupElement(0, 1, 1, 1),)),  # order 4, balanced
        Subgroup(2, (GroupElement(1, 2, 0, 2), GroupElement(0, 0, 1, 2))),
        Subgroup.trivial(2),
    ]
    for sub in cases:
        skipped, mixed = exact_sample_distributions(build_hidden_function(sub))
        assert np.max(np.abs(skipped - mixed)) < 1e-12


def test_solve_exhaustive_w1():
    for sub in enumerate_subgroups(1):
        f = build_hidden_function(sub)
        for seed in (1, 2, 3):
            report = solve(f, SolverParams(n=1, seed=seed))
            assert report.verified
            assert closure_of(1, report.generators) == sub.closure
            assert report.rounds_used <= SolverParams(n=1).max_rounds


@pytest.mark.parametrize("n", [2, 3])
def test_solve_random_subgroups(n):
    rng = np.random.default_rng(n * 100 + 7)
    verified = 0
    for trial in range(10):
        sub = random_subgroup(n, rng)
        report = solve(build_hidden_function(sub), SolverParams(n=n, seed=trial))
        if report.verified:
            verified += 1
            assert closure_of(n, report.generators) == sub.closure
    assert verified >= 9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verified_reports_generate_the_planted_subgroup(n):
    # 40 random plants at n <= 3; at n = 4, 10 plants of order >= 64 keep the
    # register (at most 9 + 3 qubits) and the run time small
    rng = np.random.default_rng(900 + n)
    if n < 4:
        plants = [random_subgroup(n, rng) for _ in range(40)]
    else:
        plants = []
        while len(plants) < 10:
            sub = random_subgroup(n, rng)
            if sub.order >= 64:
                plants.append(sub)
    verified = 0
    for seed, sub in enumerate(plants):
        report = solve(build_hidden_function(sub), SolverParams(n=n, seed=seed))
        if report.verified:
            verified += 1
            assert closure_of(n, report.generators) == sub.closure
    assert verified >= 0.9 * len(plants)


# Oracles for the candidate check: the quadratic product scan, a
# breadth-first closure over right products, and a generating set that
# rebuilds that closure from scratch after every new generator.


def closed_by_product_scan(elements):
    return all(a * b in elements for a in elements for b in elements)


def closure_by_search(n, gens):
    seen = {GroupElement.identity(n)}
    queue = list(seen)
    while queue:
        u = queue.pop()
        for g in gens:
            w = u * g
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def generating_set_by_rebuild(n, elements):
    gens = []
    have = {GroupElement.identity(n)}
    for g in sorted(elements, key=lambda e: e.index):
        if g not in have:
            gens.append(g)
            have = closure_by_search(n, gens)
    return gens


def candidate_check_agrees(n, candidate):
    gens, generated = generate(n, candidate)
    assert gens == generating_set_by_rebuild(n, candidate)
    assert generated == closure_by_search(n, gens) == closure_by_search(n, candidate)
    assert closure_of(n, candidate) == generated
    closed = _closed_under_product(candidate, generated)
    assert closed == closed_by_product_scan(candidate)
    return closed


def test_candidate_check_matches_the_product_scan_on_every_subset_of_w1():
    elements = all_elements(1)
    closed = 0
    for mask in range(1, 1 << len(elements)):
        subset = frozenset(g for i, g in enumerate(elements) if mask >> i & 1)
        closed += candidate_check_agrees(1, subset)
    assert closed == len(enumerate_subgroups(1))


@pytest.mark.parametrize("n", [2, 3])
def test_candidate_check_matches_the_product_scan_on_sample_duals(n):
    rng = np.random.default_rng(40 + n)
    outcomes = set()
    for _ in range(60):
        k = int(rng.integers(0, 2 * n + 2))
        samples = [GroupElement.from_index(n, int(rng.integers(0, group_order(n)))) for _ in range(k)]
        outcomes.add(candidate_check_agrees(n, perp_linear(n, samples)))
    assert outcomes == {True, False}


def test_whole_group_candidate_check_is_linear_in_products(monkeypatch):
    # the candidate is all of W_4 (512 elements); generate multiplies each
    # element by each of at most 2n+1 generators once, where the product
    # scan above would take 512^2 products.  Its products go through
    # multiply_indices on index arrays, so count the elements passed there.
    n = 4
    f = build_hidden_function(Subgroup.whole_group(n))
    products = 0
    multiply = subgroups.multiply_indices

    def counted(n, g, h):
        nonlocal products
        out = multiply(n, g, h)
        products += out.size
        return out

    monkeypatch.setattr(subgroups, "multiply_indices", counted)
    report = solve(f, SolverParams(n=n, seed=3))
    assert report.verified
    # building the 512-element closure takes at least one product per element
    assert group_order(n) <= products <= 2 * group_order(n) * (2 * n + 1)


def test_solve_report_shape_and_serialization():
    sub = Subgroup(2, (GroupElement(1, 1, 0, 2), GroupElement(2, 2, 1, 2)))
    report = solve(build_hidden_function(sub), SolverParams(n=2, seed=11))
    assert report.verified
    rounds = [rec.round for rec in report.transcript]
    assert rounds == list(range(1, len(rounds) + 1))
    for g in report.base_generators:
        assert g.in_base_group()
    payload = report.to_dict()
    json.dumps(payload)
    assert payload["n"] == 2 and payload["verified"] is True
    assert payload["rounds_used"] == report.rounds_used
    assert len(payload["transcript"]) == len(report.transcript)
    assert set(payload["transcript"][0]) == {"round", "element", "coset_label"}


def test_solver_params_defaults_and_validation():
    p = SolverParams(n=3)
    assert p.max_rounds == 4 * 3 + 8
    assert p.base_rounds == 2 * 3 + 8
    with pytest.raises(ValueError):
        SolverParams(n=0)
    with pytest.raises(ValueError):
        SolverParams(n=2, max_rounds=0)


def test_success_experiment_prefixes_are_monotone():
    rng = np.random.default_rng(6)
    stats = success_experiment(1, 60, [0, 2, 4, 8], rng)
    rates = [s.empirical for s in stats]
    assert rates == sorted(rates)
    for s in stats:
        assert s.bound == 1.0 - 2.0 ** (-s.samples / 4)
        assert s.trials == 60
        assert 0 <= s.successes <= s.trials
    single = success_experiment(1, 10, 6, np.random.default_rng(2))
    assert isinstance(single, SuccessStats)
    assert single.samples == 6
    assert set(single.to_dict()) == {"i", "trials", "successes", "empirical", "bound"}
    with pytest.raises(ValueError):
        success_experiment(1, 5, [], rng)
    with pytest.raises(ValueError):
        success_experiment(1, 0, 4, rng)


def test_zero_samples_succeed_only_when_the_joint_dual_is_trivial():
    # with no samples the generated group is {identity}, so a trial succeeds
    # exactly when <dual(U), dual(U^swap)> is trivial; exhaustively at n=1
    # that happens only for the whole group
    identity_only = frozenset([GroupElement.identity(1)])
    for sub in enumerate_subgroups(1):
        joint = perp_bruteforce(1, sub.closure) | perp_bruteforce(
            1, conjugate_by_swap(sub).closure
        )
        target = closure_of(1, generating_set(1, joint))
        assert (target == identity_only) == (sub.order == group_order(1))
    stats = success_experiment(1, 150, 0, np.random.default_rng(77))
    assert stats.bound == 0.0
    # with zero samples per trial the experiment consumes randomness only for
    # the subgroup draws, so the success count must equal the number of
    # whole-group draws replayed under the same seed
    rng = np.random.default_rng(77)
    draws = sum(random_subgroup(1, rng).order == group_order(1) for _ in range(150))
    assert stats.successes == draws
