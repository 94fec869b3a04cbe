"""One fresh interpreter of the benchmark: set-up, passes over a job list, report.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
  setup     import ``sdma_capacity.cli`` and report the set-up time only;
  measure   untraced passes over the job list until ``--seconds`` is spent;
  traced    one traced pass (pass 0) and the per-layer numbers it yields;
  untraced  one untraced pass (pass 0) and the worker-scaling probe.
Set-up time runs from ``--spawned-at`` (the parent's CLOCK_MONOTONIC just
before the spawn) to the end of ``import sdma_capacity.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=["setup", "measure", "traced", "untraced"],
                   required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out-dir")
    return p.parse_args()


def main() -> int:
    args = _args()
    import sdma_capacity.cli  # noqa: F401  (the set-up being measured)
    setup_s = time.monotonic() - args.spawned_at
    import sdma_capacity
    if not os.path.abspath(sdma_capacity.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"imported {sdma_capacity.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layers
    import passes
    import workloads

    os.makedirs(args.out_dir, exist_ok=True)
    report = {"setup_s": setup_s}
    if args.mode == "measure":
        report.update(passes.measure(args.workload, args.seed, args.seconds, args.out_dir))
    elif args.mode == "traced":
        report.update(layers.traced_pass(args.workload, args.seed, args.out_dir))
    else:
        report.update(passes.run_pass(args.workload, args.seed, 0, args.out_dir,
                                      workloads.References()).as_dict())
        report["workers2"] = workloads.workers2_probe(args.seed)
    import resource
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
