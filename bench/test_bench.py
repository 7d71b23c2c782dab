"""Tests of the benchmark itself: pools, gates, tail percentile, span self time.

    python3 -m pytest -q bench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wreath_hsp import simulator, solver, subgroups  # noqa: E402
from wreath_hsp.solver import SuccessStats  # noqa: E402

SOLVE_WORKLOADS = [w for w in workloads.WORKLOADS.values() if isinstance(w, workloads.SolveWorkload)]


def test_workload_names():
    assert sorted(workloads.WORKLOADS) == ["solve-dense", "solve-sparse", "sweep", "verify"]


@pytest.mark.parametrize("workload", SOLVE_WORKLOADS, ids=lambda w: w.name)
def test_planting_is_deterministic_per_seed(workload):
    first, again, other = (workload.setup(seed) for seed in (3, 3, 4))
    key = [(u.generators, f.labels.tobytes()) for u, f in zip(first.planted, first.oracles)]
    assert key == [(u.generators, f.labels.tobytes()) for u, f in zip(again.planted, again.oracles)]
    assert first.seed_base == again.seed_base
    assert [u.generators for u in other.planted] != [u.generators for u in first.planted]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pools_match_their_filters(seed):
    sparse = workloads.WORKLOADS["solve-sparse"].setup(seed)
    dense = workloads.WORKLOADS["solve-dense"].setup(seed)
    assert [u.order for u in sparse.planted] == list(workloads.WORKLOADS["solve-sparse"].pattern)
    assert [u.order for u in dense.planted] == list(workloads.WORKLOADS["solve-dense"].pattern)
    assert all(u.order <= 4 for u in sparse.planted)
    assert all(u.order >= 256 for u in dense.planted)
    assert all(f.subgroup is u for u, f in zip(sparse.planted + dense.planted, sparse.oracles + dense.oracles))


def test_tail_takes_highest_percentile_with_ten_ops_beyond():
    latency, pct, beyond = run.tail_latency(list(range(100, 0, -1)))
    assert (latency, pct, beyond) == (90, 90.0, 10)
    latency, pct, beyond = run.tail_latency([0.5] * 14 + [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
    assert (latency, beyond) == (1.0, 10)
    assert pct == pytest.approx(100 * 15 / 25)
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 10)


def test_timings_scale_to_the_nominal_kernel_time():
    raw = {"setup_s": 2.0, "ops_per_s": 4.0, "op_p50_s": 0.2, "op_tail_s": 0.5}
    nominal = reference.NOMINAL_S
    # the host ran the kernel at half speed during the ops and at full speed during set-up
    scaled = run.scaled_metrics(raw, [nominal, nominal], [2 * nominal, 2 * nominal], nominal)
    assert scaled == pytest.approx({"setup_s": 2.0, "ops_per_s": 8.0, "op_p50_s": 0.1, "op_tail_s": 0.25})


def test_reference_kernel_runs_and_restores_the_collector():
    import gc

    assert gc.isenabled()
    assert 0 < reference.kernel_seconds() < 10 * reference.NOMINAL_S
    assert gc.isenabled()


def test_self_time_subtracts_nested_children():
    s = spans.Span
    tree = [
        s("root", 0.0, 10.0, -1, 0),
        s("a", 1.0, 4.0, 0, 0),
        s("leaf", 2.0, 3.0, 1, 0),
        s("b", 5.0, 9.0, 0, 0),
        s("other-root", 11.0, 12.0, -1, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    s = spans.Span
    tree = [s("root", 0.0, 10.0, -1, 0), s("a", 1.0, 4.0, 0, 0), s("b", 3.0, 6.0, 0, 0), s("c", 9.0, 12.0, 0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_sweep_gate_rejects_non_monotone_or_low_rows():
    counts = workloads.SweepWorkload.counts
    assert workloads.sweep_row_failures(counts, 100, [80, 95, 100, 100]) == []
    assert workloads.sweep_row_failures(counts, 100, [80, 79, 100, 100])
    assert workloads.sweep_row_failures(counts, 1000, [400, 700, 930, 996])
    sweep = workloads.WORKLOADS["sweep"]
    trials = sweep.trials_per_op
    assert sweep.check(None, 0, [SuccessStats(i, trials, hit, 0.0) for i, hit in zip(counts, (1, 2, 3, 3))]) is None
    assert sweep.check(None, 0, [SuccessStats(i, trials, hit, 0.0) for i, hit in zip(counts, (2, 1, 3, 3))])
    assert sweep.check(None, 0, [SuccessStats(i, trials, hit, 0.0) for i, hit in zip(counts, (1, 2, 3, trials + 1))])


def test_verify_gate_rejects_a_suite_that_checks_nothing():
    verify = workloads.WORKLOADS["verify"]
    from wreath_hsp.suites import SuiteResult

    assert verify.check(None, 0, [SuiteResult("galois", 0, [])])
    assert verify.check(None, 0, [SuiteResult("galois", 3, [{"reason": "x"}])])
    assert verify.check(None, 0, []) is not None
    assert verify.check(None, 0, [SuiteResult("galois", 3, [])]) is None


def _small_solve():
    planted = subgroups.random_subgroup(2, np.random.default_rng(5))
    return solver.solve(subgroups.build_hidden_function(planted), solver.SolverParams(n=2, seed=9))


def test_tracer_reaches_calls_bound_by_name_and_restores_them():
    originals = (solver.apply_gate, solver.rref, simulator.apply_gate, solver.CosetSampler.sample)
    plain = _small_solve().to_dict()
    tracer = spans.Tracer()
    with tracer:
        tracer.op = 0
        with tracer.span("bench.op"):
            traced = _small_solve().to_dict()
    assert traced == plain
    assert (solver.apply_gate, solver.rref, simulator.apply_gate, solver.CosetSampler.sample) == originals
    seconds, calls = tracer.layer_totals()
    # CosetSampler.sample reaches apply_gate only through solver's own binding
    transforms = {i for i, s in enumerate(tracer.spans) if s.name == "solver.transform"}
    assert any(s.name == "simulator.gate" and s.parent in transforms for s in tracer.spans)
    assert calls["f2.rref"] > 0 and calls["solver.candidate_check"] > 0 and calls["wreath.products"] > 0
    assert all(s.op == 0 for s in tracer.spans)
    root = tracer.spans[0]
    assert root.name == "bench.op" and sum(seconds.values()) == pytest.approx(root.end - root.start)


def test_missing_target_records_zero_calls(monkeypatch):
    monkeypatch.delattr(solver, "_closed_under_product")
    tracer = spans.Tracer()
    with tracer:
        with tracer.span("bench.op"):
            subgroups.closure_of(2, [subgroups.GroupElement.swap(2)])
    metrics = spans.layer_metrics(tracer, lambda rows, width: len(rows), {}, 0.0)
    assert metrics["solver.candidate_check_calls"] == 0
    assert metrics["solver.candidate_check_s"] == 0
    assert metrics["subgroups.closure_calls"] == 1
    assert [name for name, _ in spans.PER_LAYER] == list(metrics)


def test_unverified_solve_is_retried_with_a_fresh_seed(monkeypatch):
    sparse = workloads.WORKLOADS["solve-sparse"]
    pool = sparse.setup(3)
    real_solve, seeds = solver.solve, []

    def budget_runs_out_once(oracle, params):
        seeds.append(params.seed)
        report = real_solve(oracle, params)
        return dataclasses.replace(report, verified=False) if len(seeds) == 1 else report

    monkeypatch.setattr(solver, "solve", budget_runs_out_once)
    reports = sparse.op(pool, 3)
    assert [r.verified for r in reports] == [False, True]
    assert seeds == [pool.seed_base + 3, pool.seed_base + 3 + (1 << 32)]
    assert sparse.check(pool, 3, reports) is None
    assert sparse.counters([sparse.summary(reports)])["unverified_solves"] == 1
