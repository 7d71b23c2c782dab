"""End-to-end hidden-subgroup solver for W_n on the statevector simulator.

A planted instance is a coset-labeling oracle for an unknown subgroup U.  The
solver recovers generators in two stages:

* base stage: superpose only the 2n x/y qubits (the swap qubit stays |0>),
  query the oracle, Hadamard again and measure.  Outcomes are F2 vectors
  orthogonal to U meet base; their kernel yields that factor exactly once
  enough outcomes accumulate.
* transform stage: superpose the full register, query the oracle, measure
  the label register, apply the W_n Fourier transform to the first register
  and measure.  Each outcome lies in the dual of U or of U^swap; the
  dual of the collected samples (an F2 kernel through the relabeling) shrinks
  to U meet U^swap.

The product of the two recovered factors is U.  Every candidate generator is
checked against the oracle (one evaluation against the identity's label), so
a report marked verified is correct by construction; sampling only ever makes
candidate sets smaller, never wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qft import qft_circuit
from .f2 import kernel_basis, rref
from .simulator import Circuit, Gate, apply_gate, measure, run_circuit
from .subgroups import (
    HiddenFunction,
    _adjoin,
    _generate_indices,
    build_hidden_function,
    conjugate_by_swap,
    generate,
    perp_bruteforce,
    perp_linear,
    random_subgroup,
)
from .wreath import GroupElement


class PromiseViolationError(RuntimeError):
    """The oracle does not satisfy the promise the caller claimed for it."""


@dataclass
class SolverParams:
    n: int
    seed: int = 42
    max_rounds: int | None = None  # transform-stage sampling budget
    base_rounds: int | None = None  # base-stage sampling budget

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"arity must be at least 1, got {self.n}")
        if self.max_rounds is None:
            self.max_rounds = 4 * self.n + 8
        if self.base_rounds is None:
            self.base_rounds = 2 * self.n + 8
        if self.max_rounds < 1 or self.base_rounds < 1:
            raise ValueError("round budgets must be positive")


@dataclass
class SampleRecord:
    round: int
    element: GroupElement
    coset_label: int


@dataclass
class SolveReport:
    n: int
    verified: bool
    generators: list[GroupElement]
    base_generators: list[GroupElement]
    intersection_generators: list[GroupElement]
    rounds_used: int
    transcript: list[SampleRecord]

    def to_dict(self) -> dict:
        entries = [
            {"round": rec.round, "element": rec.element.literal(), "coset_label": rec.coset_label}
            for rec in self.transcript
        ]
        return {
            "n": self.n,
            "verified": self.verified,
            "generators": [g.literal() for g in self.generators],
            "base_generators": [g.literal() for g in self.base_generators],
            "intersection_generators": [g.literal() for g in self.intersection_generators],
            "rounds_used": self.rounds_used,
            "transcript": entries,
        }


# -- sampling stages -------------------------------------------------------------


class _Stage:
    """One prepared state, measured many times.

    The pre-measurement state is round-independent, so it is prepared once;
    each sample measures `qubits` of it afresh.  The stage keeps the outcomes,
    their RREF span and the sample count at which that span last grew;
    `kernel()` is the subspace orthogonal to every outcome.
    """

    def __init__(self, state: np.ndarray, qubits: tuple[int, ...], width: int):
        self._state = state
        self._qubits = qubits
        self.width = width
        self.outcomes: list[int] = []
        self.span: list[int] = []
        self.last_growth = 0

    @property
    def full_rank(self) -> bool:
        return len(self.span) == self.width

    def _record(self, v: int) -> None:
        self.outcomes.append(v)
        grown = rref(self.span + [v], self.width)
        if len(grown) > len(self.span):
            self.last_growth = len(self.outcomes)
        self.span = grown

    def sample(self, rng: np.random.Generator) -> int:
        v, _ = measure(self._state, self._qubits, rng)
        self._record(v)
        return v

    def draw(self, rounds: int, rng: np.random.Generator, stop_at_full_rank: bool = True) -> None:
        for _ in range(rounds):
            if stop_at_full_rank and self.full_rank:
                return
            self.sample(rng)

    def kernel(self) -> list[int]:
        return kernel_basis(self.span, self.width)


def _prepare(f: HiddenFunction, before: list[Gate], after: list[Gate]) -> np.ndarray:
    """State after `before`, the oracle query on the first register, then `after`."""
    first = 2 * f.n + 1
    total = first + f.label_bits
    oracle = Gate.oracle_xor(range(first), range(first, total), f.labels)
    return run_circuit(Circuit(total, [*before, oracle, *after]))


@dataclass
class AbelianHspResult:
    basis: list[int]  # RREF basis of the recovered hidden subspace
    outcomes: list[int]  # raw round outcomes, all orthogonal to the subspace
    stable: bool  # True when the outcome span plainly stopped growing


def _label_bits(table: np.ndarray) -> int:
    return max(1, int(table.max()).bit_length())


def abelian_hsp(m: int, oracle, rounds: int, rng: np.random.Generator) -> AbelianHspResult:
    """Recover a hidden subspace of F2^m from a coset-labeling table.

    One round is Hadamards, oracle, Hadamards, measure.  Runs `rounds` rounds
    (ends early if the outcomes already span all of F2^m); the kernel of the
    outcome span is the answer once enough independent outcomes arrive.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    table = np.asarray(oracle, dtype=np.int64)
    if table.shape != (1 << m,):
        raise ValueError(f"oracle table must have 2^{m} entries, got shape {table.shape}")
    out_bits = _label_bits(table)
    hadamards = [Gate.h(q) for q in range(m)]
    oracle_gate = Gate.oracle_xor(range(m), range(m, m + out_bits), table)
    state = run_circuit(Circuit(m + out_bits, [*hadamards, oracle_gate, *hadamards]))
    stage = _Stage(state, tuple(range(m)), m)
    stage.draw(rounds, rng)
    stable = stage.full_rank or len(stage.outcomes) - stage.last_growth >= max(4, m)
    return AbelianHspResult(basis=stage.kernel(), outcomes=stage.outcomes, stable=stable)


def _base_stage(f: HiddenFunction) -> _Stage:
    hadamards = [Gate.h(q) for q in range(2 * f.n)]
    return _Stage(_prepare(f, hadamards, hadamards), tuple(range(2 * f.n)), 2 * f.n)


def _base_vector_to_element(n: int, v: int) -> GroupElement:
    mask = (1 << n) - 1
    return GroupElement(v & mask, v >> n, 0, n)


def _diagonal_stage(f: HiddenFunction) -> _Stage:
    # Superpose (y, a), copy y into x to land on the diagonal, query, uncopy,
    # then finish the abelian round on the (y, a) qubits.  Without the uncopy
    # the x register would stay correlated with y and wreck the interference.
    n = f.n
    hadamards = [Gate.h(q) for q in range(n, 2 * n + 1)]
    copies = [Gate.cnot(n + i, i) for i in range(n)]
    state = _prepare(f, hadamards + copies, copies + hadamards)
    return _Stage(state, tuple(range(n, 2 * n + 1)), n + 1)


def _diagonal_vector_to_element(n: int, w: int) -> GroupElement:
    mask = (1 << n) - 1
    return GroupElement(w & mask, w & mask, w >> n, n)


def solve_base_group(f: HiddenFunction, params: SolverParams, rng: np.random.Generator | None = None) -> list[GroupElement]:
    """Generators of (U meet base) from the base-restricted abelian stage."""
    if rng is None:
        rng = np.random.default_rng(params.seed)
    stage = _base_stage(f)
    stage.draw(params.base_rounds, rng)
    return [_base_vector_to_element(f.n, v) for v in stage.kernel()]


def _verified_kernel(
    f: HiddenFunction,
    stage: _Stage,
    to_element,
    chunk: int,
    cap: int,
    rng: np.random.Generator,
) -> list[GroupElement]:
    """Sample until every kernel basis element passes the oracle check.

    The kernel can only shrink as outcomes accumulate, and a basis element
    maps into U exactly when its label matches the identity's, so the loop
    terminates at the true factor with probability one.
    """
    home = f.label_of(GroupElement.identity(f.n))
    stage.draw(chunk, rng)
    while True:
        elems = [to_element(f.n, v) for v in stage.kernel()]
        if all(f.label_of(g) == home for g in elems):
            return elems
        if len(stage.outcomes) >= cap:
            raise RuntimeError(f"sampling cap {cap} exhausted with unverified candidates")
        stage.draw(chunk, rng, stop_at_full_rank=False)


def find_involution(f: HiddenFunction, params: SolverParams, rng: np.random.Generator | None = None) -> GroupElement | None:
    """Find the order-2 generator of U, given the promise |U| <= 2.

    Any involution lies in the base part or on the diagonal, so both
    restricted stages run; None means U is trivial.  A recovered factor of
    order > 2, or conflicting nontrivial factors, betray a broken promise.
    """
    if rng is None:
        rng = np.random.default_rng(params.seed)
    chunk = max(params.base_rounds, 4)
    cap = 40 * chunk
    base_elems = _verified_kernel(f, _base_stage(f), _base_vector_to_element, chunk, cap, rng)
    diag_elems = _verified_kernel(f, _diagonal_stage(f), _diagonal_vector_to_element, chunk, cap, rng)
    if len(base_elems) >= 2 or len(diag_elems) >= 2:
        raise PromiseViolationError("recovered a factor of order > 2; |U| <= 2 does not hold")
    found = {g for g in base_elems + diag_elems if g != GroupElement.identity(f.n)}
    if len(found) > 1:
        raise PromiseViolationError("base and diagonal stages disagree; |U| <= 2 does not hold")
    if not found:
        return None
    out = found.pop()
    if out.order() > 2:
        raise PromiseViolationError(f"recovered element {out} has order {out.order()}")
    return out


# -- transform-stage sampling ----------------------------------------------------


class CosetSampler(_Stage):
    """Draws transform-stage samples for one oracle.

    The prepared state is the oracle query on the uniform superposition.  Each
    sample measures the label register, applies the W_n transform to the
    first register and measures it; the span tracks the samples' pairing
    vectors, so `kernel()` is their dual through the relabeling.
    """

    def __init__(self, f: HiddenFunction):
        n = f.n
        self.f = f
        self.qubit_count = 2 * n + 1 + f.label_bits
        first = tuple(range(2 * n + 1))
        super().__init__(_prepare(f, [Gate.h(q) for q in first], []), first, 2 * n + 1)
        self._transform_gates = qft_circuit(n).circuit.gates
        self._label_register = tuple(range(2 * n + 1, self.qubit_count))

    def sample(self, rng: np.random.Generator) -> tuple[GroupElement, int]:
        label, state = measure(self._state, self._label_register, rng)
        for gate in self._transform_gates:
            state = apply_gate(state, gate, self.qubit_count)
        outcome, _ = measure(state, self._qubits, rng)
        element = GroupElement.from_index(self.f.n, outcome)
        self._record(element.pairing_vector())
        return element, label


def _closed_under_product(elements: frozenset[GroupElement], generated: frozenset[GroupElement]) -> bool:
    """True when the nonempty set `elements` is closed under the product.

    `generated` is the subgroup `elements` generate, so it contains them; a
    nonempty finite set closed under the product is a subgroup, so the two are
    equal exactly when `elements` is closed.
    """
    return elements == generated


def solve(f: HiddenFunction, params: SolverParams) -> SolveReport:
    """Recover generators of the hidden subgroup behind `f`.

    Base stage first, then transform samples until their span stalls for
    2n+2 consecutive rounds (or the budget runs out).  The dual of the
    samples is the candidate for U meet U^swap; it must be closed under the
    product, which holds exactly when it equals the subgroup its generating
    set generates (built while picking that set), and every reported
    generator must carry the identity's label.
    Any failed check resumes sampling while budget remains; a report is
    marked verified only when every check passed, and verified reports
    always generate U exactly.
    """
    n = f.n
    rng = np.random.default_rng(params.seed)
    home = f.label_of(GroupElement.identity(n))
    base_gens = solve_base_group(f, params, rng)
    base_set = set(base_gens)

    sampler = CosetSampler(f)
    records: list[SampleRecord] = []
    window = 2 * n + 2

    def draw_window() -> None:
        start = len(records)
        while len(records) < params.max_rounds and len(records) - max(start, sampler.last_growth) < window:
            element, label = sampler.sample(rng)
            records.append(SampleRecord(round=len(records) + 1, element=element, coset_label=label))

    draw_window()
    verified = False
    while True:
        candidate = perp_linear(n, [rec.element for rec in records])
        cand_gens, generated = generate(n, candidate)
        gens = base_gens + [g for g in cand_gens if g not in base_set]
        if _closed_under_product(candidate, generated):
            bad = [g for g in gens if f.label_of(g) != home]
            if not bad:
                verified = True
                break
            if len(records) >= params.max_rounds or any(g in base_set for g in bad):
                break
        elif len(records) >= params.max_rounds:
            break
        draw_window()

    return SolveReport(
        n=n,
        verified=verified,
        generators=gens,
        base_generators=base_gens,
        intersection_generators=cand_gens,
        rounds_used=len(records),
        transcript=records,
    )


# -- success-rate experiment -------------------------------------------------------


@dataclass
class SuccessStats:
    samples: int
    trials: int
    successes: int
    bound: float

    @property
    def empirical(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def to_dict(self) -> dict:
        return {
            "i": self.samples,
            "trials": self.trials,
            "successes": self.successes,
            "empirical": self.empirical,
            "bound": self.bound,
        }


def success_experiment(n: int, trials: int, samples_per_trial, rng: np.random.Generator):
    """Empirical rate at which i transform samples generate the joint dual.

    For each trial a random subgroup is planted; success at i means the group
    generated by the first i samples equals the group generated by the duals
    of U and U^swap (computed by exhaustive scan).  Passing a sequence of i
    values evaluates prefixes of one sample stream, so rates are monotone in i
    by construction.  Returns one SuccessStats per requested i (a bare int in,
    a bare SuccessStats out).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    single = isinstance(samples_per_trial, int)
    counts = [samples_per_trial] if single else sorted(set(int(i) for i in samples_per_trial))
    if not counts or counts[0] < 0:
        raise ValueError(f"sample counts must be nonnegative, got {samples_per_trial}")
    top = counts[-1]
    checkpoints = set(counts)
    successes = dict.fromkeys(counts, 0)
    for _ in range(trials):
        u = random_subgroup(n, rng)
        f = build_hidden_function(u)
        sampler = CosetSampler(f)
        joint = perp_bruteforce(n, u.closure) | perp_bruteforce(n, conjugate_by_swap(u).closure)
        _, target = _generate_indices(n, joint)
        # the group the samples so far generate, grown in place as generate does
        gens, current = _generate_indices(n, [])
        if 0 in checkpoints and np.array_equal(current, target):
            successes[0] += 1
        for i in range(1, top + 1):
            element, _ = sampler.sample(rng)
            if not current[element.index]:
                _adjoin(n, current, gens, element.index)
            if i in checkpoints and np.array_equal(current, target):
                successes[i] += 1
    stats = [
        SuccessStats(samples=i, trials=trials, successes=successes[i], bound=1.0 - 2.0 ** (-i / 4))
        for i in counts
    ]
    return stats[0] if single else stats
