"""Benchmark for wreath-hsp: one workload per process, every output gated.

    python3 bench/run.py --workload solve-sparse --seed 1 --seconds 25 --trace 0

Runs the workload's set-up several times, then ops in a closed loop (one op
at a time, no threads) for --seconds seconds, then checks every output.  With
--trace 0 the last stdout line carries the end-to-end metrics; with --trace 1
the first ops are run under the span tracer instead, and the line carries the
per-layer metrics.  Timing is never taken while tracing.  The exit code is 0
only when every gate passed.

End-to-end timings are scaled to a host of fixed speed: the reference kernel
(`reference.py`) runs before each op and between set-ups, and each timing is
multiplied by NOMINAL_S over the kernel's mean time in the same phase.  The
header line keeps the raw seconds and the kernel's times.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
TAIL_OPS = 10  # ops that must lie beyond the tail percentile
MIN_OPS = TAIL_OPS + 1

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail_latency(latencies) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond) at the highest percentile with at
    least TAIL_OPS ops beyond it, by the nearest-rank rule."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_OPS:
        raise ValueError(f"need more than {TAIL_OPS} ops for a tail, got {count}")
    rank = count - TAIL_OPS
    return ordered[rank - 1], 100.0 * rank / count, count - rank


def raw_metrics(import_s: float, setups, latencies) -> dict[str, float]:
    """The end-to-end timings in seconds as measured, before scaling."""
    return {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_latency(latencies)[0],
    }


def scaled_metrics(raw: dict[str, float], setup_kernel, op_kernel, nominal_s: float) -> dict[str, float]:
    """Raw timings scaled to a host on which the reference kernel takes
    `nominal_s`; the set-up and the ops each scale by the kernel's mean time
    in their own phase."""
    setup_scale = nominal_s / statistics.fmean(setup_kernel)
    op_scale = nominal_s / statistics.fmean(op_kernel)
    return {
        "setup_s": raw["setup_s"] * setup_scale,
        "ops_per_s": raw["ops_per_s"] / op_scale,
        "op_p50_s": raw["op_p50_s"] * op_scale,
        "op_tail_s": raw["op_tail_s"] * op_scale,
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def attempt_op(workload, state, i: int):
    """Op i's output, or the exception it raised: a failed op is counted, and the run goes on."""
    try:
        return workload.op(state, i)
    except Exception as exc:
        return exc


def run_ops(workload, state, seconds: float, min_ops: int, reference):
    """Closed loop, one op at a time, until `seconds` of op time and `min_ops`
    ops, with the reference kernel timed before each op.  Each output is
    gated right after its op, outside its latency, and only a summary is kept,
    so the run's own garbage does not grow with its length."""
    latencies, kernel_times, summaries, failures = [], [], [], []
    busy = 0.0
    while busy < seconds or len(latencies) < min_ops:
        i = len(latencies)
        kernel_times.append(reference.kernel_seconds())
        t0 = time.perf_counter()
        out = attempt_op(workload, state, i)
        latencies.append(time.perf_counter() - t0)
        busy += latencies[-1]
        reason = f"exception {out!r}" if isinstance(out, Exception) else workload.check(state, i, out)
        if reason:
            failures.append(f"op {i}: {reason}")
        else:
            summaries.append(workload.summary(out))
    return latencies, kernel_times, summaries, failures


def timed_setups(workload, seed: int, reference):
    """(state, each set-up's time, kernel times): SETUP_REPEATS set-ups, with
    the reference kernel timed twice before, between and after them."""
    reference.kernel_seconds()  # warm-up, not kept
    setups, kernel_times = [], [reference.kernel_seconds(), reference.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
        kernel_times += [reference.kernel_seconds(), reference.kernel_seconds()]
    return state, setups, kernel_times


def traced_run(workload, plain_state, seed: int, spans, f2):
    """Run the first ops twice, alternating an untraced and a traced copy.

    Returns (per-layer metrics, failures, header fields).  The traced copy
    starts from its own set-up with the same seed, so its outputs must equal
    the untraced ones, and every output is gated; the traced copy's extra
    time is the tracing overhead.
    """
    tracer = spans.Tracer()
    with tracer:
        with tracer.span("bench.setup"):
            traced_state = workload.setup(seed)
    plain_s = 0.0
    failures, summaries = [], []
    for i in range(workload.trace_ops):
        t0 = time.perf_counter()
        plain = attempt_op(workload, plain_state, i)
        plain_s += time.perf_counter() - t0
        tracer.op = i
        with tracer:
            with tracer.span("bench.op"):
                traced = attempt_op(workload, traced_state, i)
        if isinstance(plain, Exception) or isinstance(traced, Exception):
            failures.append(f"op {i}: traced run raised {plain!r} / {traced!r}")
        elif workload.canonical(plain) != workload.canonical(traced):
            failures.append(f"op {i}: traced output differs from the untraced one")
        elif reason := workload.check(plain_state, i, plain):
            failures.append(f"op {i}: {reason}")
        else:
            summaries.append(workload.summary(traced))
    traced_s = sum(s.end - s.start for s in tracer.spans if s.name == "bench.op")
    metrics = spans.layer_metrics(tracer, f2.rank, workload.counters(summaries), traced_s / plain_s - 1.0)
    header = {
        "traced_planted_orders": dict(sorted(Counter(u.order for u in tracer.planted).items())),
        "traced_register_widths": dict(sorted(tracer.widths.items())),
        **workload.counters(summaries),
    }
    return metrics, failures, header


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wreath_hsp" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    # one process, one thread: keep numpy's BLAS from starting a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import wreath_hsp
    from wreath_hsp import f2

    import reference
    import spans
    import workloads

    import_s = time.perf_counter() - _START
    if not Path(wreath_hsp.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wreath_hsp from {wreath_hsp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    header = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "import_s": import_s,
    }
    if args.trace:
        state = workload.setup(args.seed)
        header.update(workload.describe(state))
        metrics, failures, trace_header = traced_run(workload, state, args.seed, spans, f2)
        header.update(trace_header)
        attempted, failed = workload.trace_ops, len(failures)
        units = dict(spans.PER_LAYER)
    else:
        state, setups, setup_kernel = timed_setups(workload, args.seed, reference)
        latencies, op_kernel, summaries, failures = run_ops(workload, state, args.seconds, MIN_OPS, reference)
        attempted, failed = len(latencies), len(failures)
        failures += workload.check_all(summaries)
        raw = raw_metrics(import_s, setups, latencies)
        metrics = {
            **scaled_metrics(raw, setup_kernel, op_kernel, reference.NOMINAL_S),
            "peak_rss_mb": peak_rss_mb(),
        }
        tail_pct, beyond = tail_latency(latencies)[1:]
        header.update(workload.describe(state))
        header.update(
            {
                "setup_runs_s": setups,
                "ops": len(latencies),
                "tail_percentile": tail_pct,
                "ops_beyond_tail": beyond,
                "failed_frac": failed / attempted,
                "raw": raw,
                "kernel_nominal_s": reference.NOMINAL_S,
                "kernel_setup_mean_s": statistics.fmean(setup_kernel),
                "kernel_op_mean_s": statistics.fmean(op_kernel),
                **workload.counters(summaries),
            }
        )
        units = dict(END_TO_END)

    print("# " + json.dumps(header, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for failure in failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
