"""Span recording for the traced benchmark run.

The tracer wraps callables of the `wreath_hsp` modules from outside the
package.  Each wrapped call records a span (name, start, end, parent span, op
id) in memory; per-layer numbers are computed from the spans once the run is
over.  A layer's self time is its span's duration minus the part of that
interval covered by its child spans.

A wrapper replaces every module attribute bound to the wrapped callable, not
only the defining one: `solver.py` imports `apply_gate`, `rref`, `closure_of`
and others by name, so patching the defining module alone would miss those
calls.  A target that does not exist (a private helper a later change
removes) is skipped and its metrics read zero.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

PACKAGE = "wreath_hsp"

# (module, attribute path, span name).  Several callables may share a span name.
TIMED_TARGETS = (
    ("simulator", "apply_gate", "simulator.gate"),
    ("simulator", "measure", "simulator.measure"),
    ("simulator", "run_circuit", "simulator.run_circuit"),
    ("simulator", "circuit_to_matrix", "simulator.matrix"),
    ("solver", "solve", "solver.solve"),
    ("solver", "success_experiment", "solver.sweep"),
    ("solver", "_base_stage", "solver.prepare"),
    ("solver", "CosetSampler.__init__", "solver.prepare"),
    ("solver", "CosetSampler.sample", "solver.transform"),
    ("solver", "_closed_under_product", "solver.candidate_check"),
    ("subgroups", "closure_of", "subgroups.closure"),
    ("subgroups", "generating_set", "subgroups.generating_set"),
    ("subgroups", "perp_bruteforce", "subgroups.perp"),
    ("subgroups", "perp_linear", "subgroups.perp"),
    ("subgroups", "product_set", "subgroups.product_set"),
    ("subgroups", "build_hidden_function", "subgroups.hidden_fn"),
    ("subgroups", "random_subgroup", "subgroups.random"),
    ("f2", "rref", "f2.rref"),
    ("f2", "kernel_basis", "f2.kernel"),
    ("f2", "span_vectors", "f2.span"),
    ("suites", "run_suite", "suites.run_suite"),
    ("suites", "subgroup_pool", "suites.pool"),
)

# Called too often for a span each; only the calls are counted.
COUNTED_TARGETS = (
    ("wreath", "GroupElement.__mul__", "wreath.products"),
    ("wreath", "pairing", "wreath.pairings"),
)

SUITE_CHECK_PREFIX = "check_"

SIMULATOR_SPANS = ("simulator.gate", "simulator.measure", "simulator.run_circuit", "simulator.matrix")

AMPLITUDE_BYTES = 16  # one complex128 amplitude


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int  # op index, or SETUP_OP for the set-up phase


SETUP_OP = -1


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    """Installs span and count wrappers on the package; keeps results in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = SETUP_OP
        self.widths: Counter = Counter()  # register width -> gates and measurements on it
        self.bytes_computed = 0
        self.samples: dict[tuple[int, int], list[int]] = defaultdict(list)  # (op, sampler) -> pairing vectors
        self.planted: list = []  # subgroups random_subgroup returned inside ops
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "simulator.gate": self._on_gate,
            "simulator.measure": self._on_measure,
            "solver.transform": self._on_sample,
            "subgroups.random": self._on_planted,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        suites = sys.modules.get(f"{PACKAGE}.suites")
        checks = [
            ("suites", attr, "suites." + attr[len(SUITE_CHECK_PREFIX):])
            for attr in sorted(vars(suites) if suites else ())
            if attr.startswith(SUITE_CHECK_PREFIX) and callable(getattr(suites, attr))
        ]
        for module, path, name in TIMED_TARGETS + tuple(checks):
            self._wrap(module, path, self._timed_wrapper(name, self._hooks.get(name)))
        for module, path, name in COUNTED_TARGETS:
            self._wrap(module, path, self._counting_wrapper(name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, module_name: str, path: str, make) -> None:
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        if module is None:
            return
        *outer, attr = path.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _timed_wrapper(self, name: str, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(spans)
                parent = stack[-1] if stack else -1
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = Span(name, start, end, parent, self.op)
                if hook is not None:
                    hook(args, kwargs, result)
                return result

            return wrapper

        return make

    def _counting_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    @contextmanager
    def span(self, name: str):
        """Record one span opened by the benchmark itself (an op, the set-up)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    # -- hooks ----------------------------------------------------------------

    def _count_width(self, qubits: int) -> None:
        self.widths[qubits] += 1
        self.bytes_computed += 2 * AMPLITUDE_BYTES * (1 << qubits)

    def _on_gate(self, args, kwargs, result) -> None:
        self._count_width(int(args[2] if len(args) > 2 else kwargs["qubit_count"]))

    def _on_measure(self, args, kwargs, result) -> None:
        state = args[0] if args else kwargs["state"]
        self._count_width(int(state.shape[0]).bit_length() - 1)

    def _on_sample(self, args, kwargs, result) -> None:
        sampler, (element, _label) = args[0], result
        self.samples[(self.op, id(sampler))].append(element.pairing_vector())

    def _on_planted(self, args, kwargs, result) -> None:
        if self.op != SETUP_OP:  # set-up draws include the ones a pool filter rejects
            self.planted.append(result)

    # -- results --------------------------------------------------------------

    def layer_totals(self, ops_only: bool = False) -> tuple[Counter, Counter]:
        """(self seconds, calls) per span name, optionally leaving out the set-up."""
        seconds: Counter = Counter()
        calls: Counter = Counter(self.counts)
        for span, own in zip(self.spans, self_times(self.spans)):
            if ops_only and span.op == SETUP_OP:
                continue
            seconds[span.name] += own
            calls[span.name] += 1
        return seconds, calls



# Per-layer metrics of the traced run, in output order: (name, unit).
SUITE_CHECKS = (
    "factorization",
    "character_sums",
    "halving",
    "balanced_duals",
    "dual_identities",
    "galois",
    "transform_matrices",
    "subgroup_state_transform",
)

PER_LAYER = (
    ("simulator.gate_s", "s"),
    ("simulator.gate_calls", "count"),
    ("simulator.measure_s", "s"),
    ("simulator.measure_calls", "count"),
    ("simulator.run_circuit_s", "s"),
    ("simulator.max_qubits", "qubits"),
    ("simulator.bytes_computed", "B"),
    ("simulator.share", "ratio"),
    ("solver.prepare_s", "s"),
    ("solver.transform_s", "s"),
    ("solver.candidate_check_s", "s"),
    ("solver.candidate_check_calls", "count"),
    ("solver.candidate_check_share", "ratio"),
    ("solver.samples", "count"),
    ("solver.useful_sample_ratio", "ratio"),
    ("solver.budget_hit_frac", "ratio"),
    ("solver.unverified_frac", "ratio"),
    ("wreath.products", "count"),
    ("wreath.pairings", "count"),
    ("subgroups.closure_s", "s"),
    ("subgroups.closure_calls", "count"),
    ("subgroups.perp_s", "s"),
    ("subgroups.generating_set_s", "s"),
    ("subgroups.hidden_fn_s", "s"),
    ("subgroups.product_set_s", "s"),
    ("subgroups.share", "ratio"),
    ("f2.rref_s", "s"),
    ("f2.rref_calls", "count"),
    ("f2.kernel_s", "s"),
    ("f2.share", "ratio"),
    *((f"suites.{check}_s", "s") for check in SUITE_CHECKS),
    ("suites.share", "ratio"),
    ("qft.gates_per_sample", "count"),
    ("trace.ops", "count"),
    ("trace.ops_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


def layer_metrics(tracer: Tracer, rank, counters: dict, overhead: float) -> dict[str, float]:
    """Per-layer numbers over everything the tracer saw (one set-up, then the
    ops); `*.share` metrics are shares of the ops' time alone.

    `rank(vectors, width)` is the F2 rank used for the useful-sample ratio; it
    is called after the tracer is uninstalled.  `counters` holds the solve
    counts of the replayed ops (`solves`, `unverified_solves`, `budget_hits`).
    """
    seconds, calls = tracer.layer_totals()
    op_seconds, _ = tracer.layer_totals(ops_only=True)
    op_wall = sum(s.end - s.start for s in tracer.spans if s.parent < 0 and s.op != SETUP_OP)

    def share(*names: str) -> float:
        return sum(op_seconds[k] for k in names) / op_wall if op_wall else 0.0

    def module_share(prefix: str) -> float:
        return share(*(k for k in op_seconds if k.startswith(prefix)))

    transforms = {i for i, s in enumerate(tracer.spans) if s.name == "solver.transform"}
    transform_gates = sum(
        1 for s in tracer.spans if s.name == "simulator.gate" and s.parent in transforms
    )
    samples = calls["solver.transform"]
    gains = sum(rank(vectors, max(v.bit_length() for v in vectors)) for vectors in tracer.samples.values())
    solves = counters.get("solves", 0)
    out = {
        "simulator.gate_s": seconds["simulator.gate"],
        "simulator.gate_calls": calls["simulator.gate"],
        "simulator.measure_s": seconds["simulator.measure"],
        "simulator.measure_calls": calls["simulator.measure"],
        "simulator.run_circuit_s": seconds["simulator.run_circuit"],
        "simulator.max_qubits": max(tracer.widths, default=0),
        "simulator.bytes_computed": tracer.bytes_computed,
        "simulator.share": share(*SIMULATOR_SPANS),
        "solver.prepare_s": seconds["solver.prepare"],
        "solver.transform_s": seconds["solver.transform"],
        "solver.candidate_check_s": seconds["solver.candidate_check"],
        "solver.candidate_check_calls": calls["solver.candidate_check"],
        "solver.candidate_check_share": share("solver.candidate_check"),
        "solver.samples": samples,
        "solver.useful_sample_ratio": gains / samples if samples else 0.0,
        "solver.budget_hit_frac": counters["budget_hits"] / solves if solves else 0.0,
        "solver.unverified_frac": counters["unverified_solves"] / solves if solves else 0.0,
        "wreath.products": calls["wreath.products"],
        "wreath.pairings": calls["wreath.pairings"],
        "subgroups.closure_s": seconds["subgroups.closure"],
        "subgroups.closure_calls": calls["subgroups.closure"],
        "subgroups.perp_s": seconds["subgroups.perp"],
        "subgroups.generating_set_s": seconds["subgroups.generating_set"],
        "subgroups.hidden_fn_s": seconds["subgroups.hidden_fn"],
        "subgroups.product_set_s": seconds["subgroups.product_set"],
        "subgroups.share": module_share("subgroups."),
        "f2.rref_s": seconds["f2.rref"],
        "f2.rref_calls": calls["f2.rref"],
        "f2.kernel_s": seconds["f2.kernel"],
        "f2.share": module_share("f2."),
        **{f"suites.{check}_s": seconds[f"suites.{check}"] for check in SUITE_CHECKS},
        "suites.share": module_share("suites."),
        "qft.gates_per_sample": transform_gates / samples if samples else 0.0,
        "trace.ops": len({s.op for s in tracer.spans if s.op != SETUP_OP}),
        "trace.ops_s": op_wall,
        "trace_overhead_frac": overhead,
    }
    return {name: out[name] for name, _unit in PER_LAYER}
