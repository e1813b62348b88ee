"""mbaudit benchmark: three seeded workloads, checked against an oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload audit-catalog --seed 1 --seconds 30 --trace 0

Workloads:

  cli-fixtures        one `python -m mbaudit ...` per operation, from a fixed
                      mix of all five subcommands on the shipped fixtures,
                      including invocations that must exit with 2, 3 or 4
  audit-catalog       parse a generated catalog document and audit it in both
                      modes, as `mbaudit audit --naive` does
  explicit-complexes  unique explicit complexes with known homology, given as
                      ambient and as a stabilized Morse block, interleaved with
                      integer blocks in the SNF growth regime

Every workload runs in a fresh child process, so its peak RSS can be read
from getrusage(RUSAGE_CHILDREN).  With --trace 0 the last stdout line
carries the end-to-end metrics.  Their times are the CPU time an
operation costs, user plus system and its subprocess included, scaled to
the speed of a reference loop timed after each operation (see
worker.py); ok_frac is the share of attempted operations that returned
the oracle's answer before the deadline.  With --trace 1 the last line
carries per-layer metrics from an outside-in traced run over a fixed
number of operations, and the spans go to .bench_out/.  The line before
the last gives details: sample counts, outcomes, wall-time figures and
input-size counts with a digest of the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cli-fixtures", "audit-catalog", "explicit-complexes")
CHILD_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "mbaudit" / "__init__.py").is_file() or not (root / "fixtures").is_dir():
        print(f"error: no mbaudit sources under {root}", file=sys.stderr)
        return 2

    env = os.environ.copy()
    env.pop("MBAUDIT_COLOR", None)
    env["MBAUDIT_FIXTURES"] = str(root / "fixtures")
    env["PYTHONPATH"] = str(src)
    cmd = [
        sys.executable, str(root / "bench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(root),
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: workload exited with {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result["info"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
