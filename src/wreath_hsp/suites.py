"""Structural verification suites over pools of subgroups.

Each check pits a claimed identity against brute-force computation and
returns a result with serialized counterexamples, so the CLI and the test
suite share one implementation.  Suite ids (factorization, character sums,
halving, balanced duals, dual identities, transform matrices, subgroup-state
transform) are stable strings used by the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qft import _check_arity, qft_circuit, qft_matrix_block, qft_matrix_entrywise
from .simulator import circuit_to_matrix
from .subgroups import (
    Subgroup,
    canonical_factorization,
    conjugate_by_swap,
    enumerate_subgroups,
    generate,
    intersect,
    is_balanced,
    perp_bruteforce,
    perp_linear,
    product_set,
    random_subgroup,
)
from .wreath import (
    GroupElement,
    all_elements,
    elements_at,
    group_order,
    index_array,
    multiply_indices,
    pairing_vector_array,
    swap_conjugate_table,
)

MATRIX_TOLERANCE = 1e-10


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: list[dict]

    @property
    def passed(self) -> bool:
        return not self.failures


def subgroup_pool(n: int, count: int, rng: np.random.Generator) -> list[Subgroup]:
    """Exhaustive pool for n = 1, `count` random subgroups otherwise."""
    if n == 1:
        return enumerate_subgroups(1)
    return [random_subgroup(n, rng) for _ in range(count)]


def _mask(n: int, elements) -> np.ndarray:
    """Boolean membership array over the group, indexed by GroupElement.index."""
    out = np.zeros(group_order(n), dtype=bool)
    out[index_array(elements)] = True
    return out


def _fail(u: Subgroup, reason: str, **extra) -> dict:
    out = {"subgroup": u.to_dict(), "order": u.order, "reason": reason}
    out.update(extra)
    return out


def check_factorization(n: int, pool) -> SuiteResult:
    """U = (U meet base) * (U meet U^swap) as a setwise product."""
    failures = []
    for u in pool:
        a, b = canonical_factorization(u)
        if product_set(a.closure, b.closure) != u.closure:
            failures.append(_fail(u, "factor product does not recover the subgroup"))
    return SuiteResult("factorization", len(pool), failures)


def check_character_sums(n: int, pool) -> SuiteResult:
    """Sum of (-1)^pairing over U is |U| on the dual and 0 off it."""
    failures = []
    table = pairing_vector_array(n)
    for u in pool:
        in_dual = _mask(n, perp_bruteforce(n, u.closure))
        # parity[y, x] = pairing(y, x), rows in index order
        parity = np.bitwise_count(table[:, None] & table[index_array(u.closure)][None, :]) & 1
        sums = u.order - 2 * parity.sum(axis=1, dtype=np.int64)
        want = np.where(in_dual, u.order, 0)
        bad = np.flatnonzero(sums != want)
        if bad.size:
            i = int(bad[0])
            y = GroupElement.from_index(n, i)
            failures.append(_fail(u, f"character sum {sums[i]} != {want[i]} at {y.literal()}"))
    return SuiteResult("character-sums", len(pool), failures)


def check_halving(n: int, pool) -> SuiteResult:
    """A dual containing a swap-bit element is half inside the base part."""
    failures = []
    for u in pool:
        dual = perp_bruteforce(n, u.closure)
        if not any(g.a == 1 for g in dual):
            continue
        in_base = sum(1 for g in dual if g.in_base_group())
        if 2 * in_base != len(dual):
            failures.append(_fail(u, f"dual has {in_base} of {len(dual)} base elements"))
    return SuiteResult("halving", len(pool), failures)


def check_balanced_duals(n: int, pool) -> SuiteResult:
    """U is swap-invariant exactly when its dual is closed under the product."""
    failures = []
    for u in pool:
        dual = perp_bruteforce(n, u.closure)
        idx = index_array(dual)
        closed = bool(_mask(n, dual)[multiply_indices(n, idx[:, None], idx[None, :])].all())
        if closed != is_balanced(u):
            failures.append(_fail(u, f"balanced={is_balanced(u)} but dual closed={closed}"))
    return SuiteResult("balanced-duals", len(pool), failures)


def check_dual_identities(n: int, pool) -> SuiteResult:
    """Dual/swap interchange, dual of intersections, double dual, both routes."""
    failures = []
    for u in pool:
        ut = conjugate_by_swap(u)
        dual_u = perp_bruteforce(n, u.closure)
        dual_ut = perp_bruteforce(n, ut.closure)
        if dual_ut != frozenset(elements_at(n, swap_conjugate_table(n)[index_array(dual_u)])):
            failures.append(_fail(u, "dual of the swapped subgroup is not the swapped dual"))
            continue
        meet = intersect(u, ut)
        _, joint = generate(n, dual_u | dual_ut)
        if perp_bruteforce(n, meet.closure) != joint:
            failures.append(_fail(u, "dual of the swap intersection is not the joint closure"))
            continue
        if perp_bruteforce(n, joint) != meet.closure:
            failures.append(_fail(u, "double dual does not return the swap intersection"))
            continue
        if perp_linear(n, u.closure) != dual_u:
            failures.append(_fail(u, "kernel route and exhaustive route disagree"))
    return SuiteResult("dual-identities", len(pool), failures)


def check_galois(n: int, pool) -> SuiteResult:
    """On swap-invariant subgroups the dual is an inclusion-reversing involution."""
    balanced = [u for u in pool if is_balanced(u)]
    duals = {u: perp_bruteforce(n, u.closure) for u in balanced}
    failures = []
    for u in balanced:
        if perp_bruteforce(n, duals[u]) != u.closure:
            failures.append(_fail(u, "double dual of a swap-invariant subgroup moved"))
    pairs = 0
    for u in balanced:
        for v in balanced:
            if u.closure < v.closure:
                pairs += 1
                if not duals[v] <= duals[u]:
                    failures.append(_fail(u, f"dual not reversed against order-{v.order} overgroup"))
    return SuiteResult("galois", len(balanced) + pairs, failures)


def check_transform_matrices(n: int) -> SuiteResult:
    """Circuit, block and entrywise constructions agree and are unitary."""
    failures = []
    entry = qft_matrix_entrywise(n)
    block = qft_matrix_block(n)
    circ = circuit_to_matrix(qft_circuit(n).circuit)
    size = group_order(n)
    if np.max(np.abs(entry - block)) > MATRIX_TOLERANCE:
        failures.append({"n": n, "reason": "block construction deviates from entrywise"})
    if np.max(np.abs(circ - entry)) > MATRIX_TOLERANCE:
        failures.append({"n": n, "reason": "circuit unitary deviates from entrywise"})
    if np.max(np.abs(entry @ entry.T - np.eye(size))) > MATRIX_TOLERANCE:
        failures.append({"n": n, "reason": "entrywise matrix is not unitary"})
    return SuiteResult("transform-matrices", 3, failures)


def _transform_of_uniform(matrix: np.ndarray, elements, n: int) -> np.ndarray:
    state = np.zeros(group_order(n), dtype=np.complex128)
    for g in elements:
        state[g.index] = 1.0
    state /= np.linalg.norm(state)
    return matrix @ state


def _support_check(amps: np.ndarray, expect, n: int, signed: bool) -> str | None:
    want = _mask(n, expect)
    mag = 1.0 / np.sqrt(len(expect))
    on, off = amps[want], amps[~want]
    if off.size and np.max(np.abs(off)) > MATRIX_TOLERANCE:
        return "amplitude off the expected support"
    if np.max(np.abs(np.abs(on) - mag)) > MATRIX_TOLERANCE:
        return "support magnitudes are not uniform"
    if signed and np.max(np.abs(on.imag)) > MATRIX_TOLERANCE:
        return "support amplitudes are not real"
    return None


def check_subgroup_state_transform(n: int, pool) -> SuiteResult:
    """Transform of a uniform subgroup state is uniform on the dual; coset
    states land on the dual of U or of U^swap according to the coset class."""
    matrix = qft_matrix_entrywise(n)
    failures = []
    checked = 0
    for u in pool:
        dual = perp_bruteforce(n, u.closure)
        dual_swapped = perp_bruteforce(n, conjugate_by_swap(u).closure)
        checked += 1
        reason = _support_check(_transform_of_uniform(matrix, u.closure, n), dual, n, signed=True)
        if reason:
            failures.append(_fail(u, f"subgroup state: {reason}"))
            continue
        base_reps = [g for g in all_elements(n) if g.in_base_group() and g not in u.closure]
        swap_reps = [g for g in all_elements(n) if not g.in_base_group() and g not in u.closure]
        for reps, expect, signed in ((base_reps, dual, True), (swap_reps, dual_swapped, False)):
            if not reps:
                continue
            g0 = reps[0]
            coset = [g0 * h for h in u.closure]
            checked += 1
            reason = _support_check(_transform_of_uniform(matrix, coset, n), expect, n, signed)
            if reason:
                failures.append(_fail(u, f"coset of {g0.literal()}: {reason}"))
    return SuiteResult("subgroup-state-transform", checked, failures)


SUITE_IDS = ("lemma1", "perp", "halves", "balanced", "corollary", "qft", "theorem6", "all")


def run_suite(suite: str, n: int, samples: int, seed: int) -> list[SuiteResult]:
    """Run one named suite (or all) over a deterministic subgroup pool."""
    if suite not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_IDS}")
    if suite in ("qft", "theorem6", "all"):
        _check_arity(n)  # the dense transform matrix these suites need
    rng = np.random.default_rng(seed)
    needs_pool = suite != "qft"
    if needs_pool and samples < 1:
        raise ValueError(f"suite {suite!r} needs a pool of at least 1 subgroup, got {samples}")
    pool = subgroup_pool(n, samples, rng) if needs_pool else []
    out: list[SuiteResult] = []
    if suite in ("lemma1", "all"):
        out.append(check_factorization(n, pool))
    if suite in ("perp", "all"):
        out.append(check_character_sums(n, pool))
    if suite in ("halves", "all"):
        out.append(check_halving(n, pool))
    if suite in ("balanced", "all"):
        out.append(check_balanced_duals(n, pool))
    if suite in ("corollary", "all"):
        out.append(check_dual_identities(n, pool))
        out.append(check_galois(n, pool))
    if suite in ("qft", "all"):
        out.append(check_transform_matrices(n))
    if suite in ("theorem6", "all"):
        out.append(check_subgroup_state_transform(n, pool))
    return out
