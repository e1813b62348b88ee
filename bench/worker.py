"""Run one workload in this process and print its result as JSON.

Started by run.py in a fresh child process, so the parent can read the
child's peak RSS.  The load is a closed loop: one client sends the next
operation only after the previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

# One operation may take at most this long; a miss counts as a failure.
# The slowest operation seen on mbaudit 0.1.0, over thousands of draws on
# a 2-vCPU Xeon VM, took under 1 s (a 31x31 block in the SNF growth regime).
DEADLINE_S = 5.0
SETUP_REPEATS = 3
MIN_SAMPLES = 110  # so at least ten samples lie beyond p90
POOL = {"cli-fixtures": 49, "audit-catalog": 200, "explicit-complexes": 300}
TRACED_OPS = {"cli-fixtures": 98, "audit-catalog": 15, "explicit-complexes": 40}
TRACE_ROUNDS = 3  # per-layer figures come from the last traced round
PROBE_REPEATS = 7

# Wall time on a shared 2-vCPU Xeon VM is a poor gauge of the program: the
# hypervisor steals the CPU in bursts (cli-fixtures p90 doubled for a few
# minutes), and the CPU's speed drifts by 10-20% over seconds (a fixed
# loop ranged from 31 to 46 ms per 5 s slice of a 90 s window).  So an
# operation is timed by the CPU time it costs, user plus system, its
# subprocess included; steal is not CPU time.  A fixed pure-Python
# reference loop runs after every operation, untimed, and each CPU time
# is scaled by REFERENCE_LOOP_S over the loop's median time in the 31
# runs around it: end-to-end times are CPU times at the speed where the
# loop takes REFERENCE_LOOP_S.  Wall-time figures go to the detail line.
REFERENCE_LOOP_S = 1.5e-3
REFERENCE_WINDOW = 15


def reference_loop() -> int:
    total = 0
    for i in range(20000):
        total += i * i
    return total


def reference_time(runs: int = 2 * REFERENCE_WINDOW + 1) -> float:
    """Median time of the reference loop over ``runs`` runs."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class DeadlineMissed(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in mbaudit swallows it."""


def _alarm(signum, frame):
    raise DeadlineMissed


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def attempt(workload, item, in_process: bool):
    """Run one operation under the deadline.

    Returns (CPU seconds, result or None, outcome); the CPU time includes
    the subprocess of a cli-fixtures operation.
    """
    run = workload.run_in_process if in_process else workload.run
    timed = in_process or workload.in_process
    start = cpu_seconds()
    try:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, workload.deadline)
        try:
            result = run(item)
        finally:
            if timed:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except (DeadlineMissed, subprocess.TimeoutExpired):
        return cpu_seconds() - start, None, "deadline"
    except Exception as exc:  # an unexpected exception is a failed operation
        print(f"operation raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return cpu_seconds() - start, None, "error"
    elapsed = cpu_seconds() - start
    return elapsed, result, "ok" if workload.check(item, result) else "wrong"


def set_up(cls, root: Path, seed: int, name: str):
    """Set up SETUP_REPEATS times; keep the last workload.

    Returns it, the median set-up time at reference speed, and the raw times.
    """
    times, scaled, workload = [], [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = None
        start = time.perf_counter()
        workload = cls(root, seed, DEADLINE_S)
        workload.setup(POOL[name])
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * REFERENCE_LOOP_S / reference_time())
    return workload, statistics.median(scaled), times


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_loop(workload, seconds: float) -> dict:
    """Closed loop for ``seconds`` of wall time and at least MIN_SAMPLES ops."""
    walls, cpus, references = [], [], []
    outcomes = {"ok": 0, "wrong": 0, "error": 0, "deadline": 0}
    i, elapsed = 0, 0.0
    while elapsed < seconds or i < MIN_SAMPLES:
        item = workload.item(i)  # past the pool this generates an input: not timed
        start = time.perf_counter()
        cpu, _, outcome = attempt(workload, item, in_process=False)
        walls.append(time.perf_counter() - start)
        elapsed += walls[-1]
        cpus.append(cpu)
        outcomes[outcome] += 1
        i += 1
        references.append(reference_time(1))
    w = REFERENCE_WINDOW
    scaled = [
        cpu * REFERENCE_LOOP_S / statistics.median(references[max(0, j - w) : j + w + 1])
        for j, cpu in enumerate(cpus)
    ]
    ordered, wall_ordered = sorted(scaled), sorted(walls)
    return {
        "attempted": i,
        "outcomes": outcomes,
        "ops_per_s": outcomes["ok"] / sum(scaled),
        "p50_ms": 1000 * percentile(ordered, 0.5),
        "p90_ms": 1000 * percentile(ordered, 0.9),
        "beyond_p90": i - math.ceil(0.9 * i),
        "wall": {
            "seconds": elapsed,
            "ops_per_s": outcomes["ok"] / elapsed,
            "p50_ms": 1000 * percentile(wall_ordered, 0.5),
            "p90_ms": 1000 * percentile(wall_ordered, 0.9),
            "max_ms": 1000 * wall_ordered[-1],
            "reference_loop_ms": 1000 * statistics.median(references),
        },
    }


def probe_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``, or the
    time it prints itself when ``code`` reports one."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, timeout=60)
        wall = time.perf_counter() - start
        printed = out.stdout.strip()
        samples.append(float(printed) if printed else wall)
    return 1000 * statistics.median(samples)


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mbaudit.cli; print(time.perf_counter() - t)"
)


def traced_run(workload, name: str, out_dir: Path) -> dict:
    """Per-layer metrics over the first TRACED_OPS items, run in process.

    Results must be identical with and without the tracer, and every layer
    expected on this workload must record a call.
    """
    n = TRACED_OPS[name]
    items = [workload.item(i) for i in range(n)]
    import mbaudit.cli  # noqa: F401  the tracer patches loaded modules only

    def one_pass(tracer=None):
        results, outcomes = [], []
        start = time.perf_counter()
        for op_id, item in enumerate(items):
            if tracer is not None:
                tracer.op_id = op_id
            _, result, outcome = attempt(workload, item, in_process=True)
            results.append(result)
            outcomes.append(outcome)
        return time.perf_counter() - start, results, outcomes

    # a warm pass, then untraced and traced passes in turn over the same items
    _, plain, plain_outcomes = one_pass()
    plain_s = traced_s = 0.0
    same = True
    for _ in range(TRACE_ROUNDS):
        seconds, results, outcomes = one_pass()
        plain_s += seconds
        same = same and results == plain and outcomes == plain_outcomes
        tracer = Tracer()
        tracer.install()
        try:
            seconds, results, outcomes = one_pass(tracer)
        finally:
            tracer.uninstall()
        traced_s += seconds
        same = same and results == plain and outcomes == plain_outcomes
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{workload.seed}.csv")

    summary = tracer.summary()
    missing = [
        layer.name for layer in LAYERS if name in layer.expected_on and summary[layer.name]["calls"] == 0
    ]
    metrics: dict[str, tuple[float, str]] = {
        "cli.interp_start_ms": (probe_ms("pass"), "ms"),
        "cli.import_ms": (probe_ms(IMPORT_PROBE), "ms"),
    }
    main = summary["cli.main"]
    metrics["cli.main.self_ms"] = (1000 * main["self_s"] / main["calls"] if main["calls"] else 0.0, "ms")
    for layer_name, entry in summary.items():
        if layer_name == "cli.main":
            continue
        metrics[f"{layer_name}.calls"] = (entry["calls"], "count")
        metrics[f"{layer_name}.self_s"] = (entry["self_s"], "s")
    calls = summary["homology.homology"]["calls"]
    metrics["homology.distinct_input_ratio"] = (
        len(tracer.homology_inputs) / calls if calls else 1.0, "ratio")
    metrics["morse.inconsistent_twist.count"] = (
        tracer.count_raised("morse.stabilize", "InconsistentTwistError"), "count")
    metrics["trace.overhead_frac"] = (traced_s / plain_s, "ratio")

    wrong = sum(1 for o in plain_outcomes if o in ("wrong", "error"))
    failed = sum(1 for o in plain_outcomes if o != "ok")
    info = {
        "traced_ops": n,
        "rounds": TRACE_ROUNDS,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.start),
        "traced_equals_untraced": same,
        "expected_layers_missing": missing,
    }
    return {
        "correct": same and not missing and wrong == 0,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _alarm)

    workload, setup_s, setup_times = set_up(WORKLOADS[args.workload], args.root, args.seed, args.workload)
    try:
        stats = workload.input_stats()
        if args.trace:
            result = traced_run(workload, args.workload, args.root / ".bench_out")
            result["info"]["inputs"] = stats
        else:
            loop = timed_loop(workload, args.seconds)
            outcomes = loop["outcomes"]
            result = {
                "correct": outcomes["wrong"] == 0 and outcomes["error"] == 0,
                "attempted": loop["attempted"],
                "failed": loop["attempted"] - outcomes["ok"],
                "metrics": {
                    "ops_per_s": (loop["ops_per_s"], "1/s"),
                    "latency_ms_p50": (loop["p50_ms"], "ms"),
                    "latency_ms_p90": (loop["p90_ms"], "ms"),
                    "ok_frac": (outcomes["ok"] / loop["attempted"], "frac"),
                    "setup_s": (setup_s, "s"),
                },
                "info": {
                    "samples": loop["attempted"],
                    "beyond_p90": loop["beyond_p90"],
                    "outcomes": outcomes,
                    "wall": loop["wall"],
                    "setup_runs_s": setup_times,
                    "inputs": stats,
                },
            }
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
