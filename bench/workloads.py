"""The benchmark's workloads: inputs made from a seed, one op, and its gates.

Every workload calls the library entry points that the CLI subcommands use,
in this process, one op at a time.  Inputs depend only on the workload seed.

* solve-sparse / solve-dense: `solve` on planted subgroups at n = 4.  The pool
  is planted with `random_subgroup`, keeping draws whose order fills a fixed
  per-order quota, so every seed gives the same mix of register widths (the
  mix sets the latency distribution; a free mix would make it follow the
  seed).  Op i solves pool[i % len(pool)] until a report verifies.
* sweep: `success_experiment` at n = 3, a few trials per op on one shared
  rng, which draws the same stream as a single call with all the trials.
* verify: `run_suite("all", n=3, ...)` with suite seed base + i for op i.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from wreath_hsp import solver, subgroups, suites

MAX_PLANT_DRAWS = 20_000


class Workload:
    """Defaults for the hooks a workload may leave out."""

    name: str
    n: int
    trace_ops: int  # ops replayed by the traced run

    def summary(self, out):
        """What the run keeps of an op's output once its gate has passed."""
        return None

    def check_all(self, summaries) -> list[str]:
        """Gates on the run as a whole; per-op gates are in `check`."""
        return []

    def counters(self, summaries) -> dict:
        """Counts over the run for the header line."""
        return {}


@dataclass
class SolvePool:
    planted: list  # Subgroup per slot, in op order
    oracles: list  # HiddenFunction per slot
    seed_base: int


class SolveWorkload(Workload):
    """Time to a verified answer on a pool whose planted orders follow `pattern`.

    An op solves pool[i % len(pool)].  A report that is not verified (the round
    budget ran out) is not an answer, so the op solves again with a fresh
    solver seed, as a user would; those attempts cost latency and are counted.
    """

    max_attempts = 3

    def __init__(self, name: str, n: int, pattern: tuple[int, ...], draws: int, trace_ops: int):
        self.name = name
        self.n = n
        self.pattern = pattern
        self.draws = draws
        self.trace_ops = trace_ops

    def plant(self, rng: np.random.Generator) -> list:
        """Draw at least `draws` random subgroups, filling each slot of the
        pattern with a draw of its order.  A fixed draw count keeps set-up
        work nearly the same for every seed."""
        open_slots: dict[int, list[int]] = {}
        for slot, order in enumerate(self.pattern):
            open_slots.setdefault(order, []).append(slot)
        pool = [None] * len(self.pattern)
        for drawn in range(MAX_PLANT_DRAWS):
            if drawn >= self.draws and not any(open_slots.values()):
                return pool
            u = subgroups.random_subgroup(self.n, rng)
            slots = open_slots.get(u.order)
            if slots:
                pool[slots.pop(0)] = u
        raise RuntimeError(f"{self.name}: quota {self.pattern} not filled in {MAX_PLANT_DRAWS} draws")

    def setup(self, seed: int) -> SolvePool:
        rng = np.random.default_rng(seed)
        planted = self.plant(rng)
        oracles = [subgroups.build_hidden_function(u) for u in planted]
        return SolvePool(planted, oracles, int(rng.integers(1 << 31)))

    def op(self, pool: SolvePool, i: int) -> list:
        """Every report of the op's attempts; the last one is its answer."""
        oracle = pool.oracles[i % len(pool.oracles)]
        reports = []
        for attempt in range(self.max_attempts):
            params = solver.SolverParams(n=self.n, seed=pool.seed_base + i + (attempt << 32))
            reports.append(solver.solve(oracle, params))
            if reports[-1].verified:
                break
        return reports

    def check(self, pool: SolvePool, i: int, reports) -> str | None:
        report = reports[-1]
        if not report.verified:
            return f"no verified report in {len(reports)} attempts"
        planted = pool.planted[i % len(pool.planted)]
        if subgroups.closure_of(self.n, report.generators) != planted.closure:
            return "recovered closure differs from the planted subgroup"
        return None

    def summary(self, reports) -> tuple:
        budget = solver.SolverParams(n=self.n).max_rounds
        return tuple((r.verified, r.rounds_used == budget) for r in reports)

    def counters(self, summaries) -> dict:
        attempts = [a for s in summaries for a in s]
        return {
            "solves": len(attempts),
            "unverified_solves": sum(not verified for verified, _ in attempts),
            "budget_hits": sum(hit for _, hit in attempts),
        }

    def canonical(self, reports):
        return [r.to_dict() for r in reports]

    def describe(self, pool: SolvePool) -> dict:
        widths = Counter(2 * self.n + 1 + f.label_bits for f in pool.oracles)
        return {
            "n": self.n,
            "planted_orders": dict(sorted(Counter(u.order for u in pool.planted).items())),
            "register_widths": dict(sorted(widths.items())),
        }


class SweepWorkload(Workload):
    """`success_experiment` trials on one shared rng; the subgroups are planted
    inside it.  One op is `trials_per_op` trials: a single trial lasts about
    10 ms, and a tail ten ops deep among ~2000 of them is set by host noise
    spikes rather than by the trials.  Calls on one rng draw the same stream
    as a single call with all the trials."""

    counts = (4, 8, 16, 32)

    def __init__(self, name: str, n: int, trials_per_op: int, trace_ops: int):
        self.name = name
        self.n = n
        self.trials_per_op = trials_per_op
        self.trace_ops = trace_ops

    def setup(self, seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    def op(self, rng: np.random.Generator, i: int):
        return solver.success_experiment(self.n, self.trials_per_op, list(self.counts), rng)

    def check(self, state, i: int, stats) -> str | None:
        hits = [s.successes for s in stats]
        if [s.samples for s in stats] != list(self.counts) or any(not 0 <= h <= self.trials_per_op for h in hits):
            return f"malformed sweep rows {[s.to_dict() for s in stats]}"
        if hits != sorted(hits):
            return f"successes not monotone in i: {hits}"
        return None

    def summary(self, stats) -> tuple:
        return tuple(s.successes for s in stats)

    def check_all(self, summaries) -> list[str]:
        """Summed rows: monotone in i, each rate at least bound - 3 sigma."""
        if not summaries:
            return ["no op passed its gate"]
        trials = self.trials_per_op * len(summaries)
        return sweep_row_failures(self.counts, trials, [sum(col) for col in zip(*summaries)])

    def counters(self, summaries) -> dict:
        return {
            "trials": self.trials_per_op * len(summaries),
            "successes": dict(zip(self.counts, (sum(col) for col in zip(*summaries)))),
        }

    def canonical(self, stats):
        return [s.to_dict() for s in stats]

    def describe(self, state) -> dict:
        return {"n": self.n, "sample_counts": list(self.counts), "trials_per_op": self.trials_per_op}


def sweep_row_failures(counts, trials: int, successes) -> list[str]:
    failures = []
    if list(successes) != sorted(successes):
        failures.append(f"sweep successes not monotone in i: {list(successes)}")
    for i, hits in zip(counts, successes):
        bound = 1.0 - 2.0 ** (-i / 4)
        sigma = math.sqrt(bound * (1.0 - bound) / trials)
        if hits / trials < bound - 3.0 * sigma:
            failures.append(f"i={i}: rate {hits / trials:.4f} below bound {bound:.4f} - 3 sigma")
    return failures


class VerifyWorkload(Workload):
    """`run_suite("all", ...)` over successive suite seeds; op = one call."""

    def __init__(self, name: str, n: int, samples: int, trace_ops: int):
        self.name = name
        self.n = n
        self.samples = samples
        self.trace_ops = trace_ops

    def setup(self, seed: int) -> int:
        """The suite seed of op 0."""
        return int(np.random.default_rng(seed).integers(1 << 31))

    def op(self, seed_base: int, i: int):
        return suites.run_suite("all", self.n, self.samples, seed_base + i)

    def check(self, state, i: int, results) -> str | None:
        bad = [r.name for r in results if not r.passed or r.checked == 0]
        if not results or bad:
            return f"suites failed or checked nothing: {bad or 'no suites ran'}"
        return None

    def canonical(self, results):
        return [(r.name, r.checked, r.failures) for r in results]

    def describe(self, state) -> dict:
        return {"n": self.n, "subgroups_per_call": self.samples}


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            "solve-sparse",
            n=4,
            # orders 4 (16 qubits, about 0.25 s) and 2 (17 qubits, about 0.5 s)
            # mixed 3 : 2.  At the 65-95 ops a run reaches, p50 falls inside
            # the order-4 class and the tail (ten ops beyond) inside the
            # order-2 class, away from the budget-hit solves at the top of
            # each.  A trivial subgroup (18 qubits, about 1.4 s) would put the
            # tail on its class boundary, since a run holds few of them.
            pattern=(4, 2, 4, 2, 4) * 3,
            draws=200,  # order 2 is about 5% of draws, order 4 about 7%
            trace_ops=12,
        ),
        # orders 256 and 512 mixed 2 : 1, four subgroups of each slot, so that
        # p50 (order 256) does not hang on one or two planted subgroups
        SolveWorkload("solve-dense", n=4, pattern=(256, 512, 256) * 4, draws=80, trace_ops=12),
        SweepWorkload("sweep", n=3, trials_per_op=8, trace_ops=25),
        VerifyWorkload("verify", n=3, samples=20, trace_ops=8),
    )
}
