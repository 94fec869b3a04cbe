"""Benchmark of sdma-capacity: four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload density-search --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. Every measurement runs in a fresh single-process interpreter
(``perfbench/child.py``), so set-up time and peak RSS belong to the
workload. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count. NOTES.md says why each
workload was chosen and which layers it loads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("density-search", "outage-fixed", "analytic-cli", "explicit-channel")
SETUP_PROBES = 5          # set-up-only interpreters per untraced run
CHILD_TIMEOUT_S = 150.0
OUT_ROOT = ".perfbench_out"


class BenchError(RuntimeError):
    pass


def _child(mode: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _workload_child(mode: str, args, tag: str) -> dict:
    # fixed-width pid: output paths echoed into JSON keep one byte count per seed
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-s{args.seed}-{tag}-{os.getpid():07d}")
    try:
        return _child(mode, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--out-dir", out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _line(name: str, value: float, unit: str, samples: int | str) -> None:
    print(f"  {name:<56} {value:>16.6g} {unit:<6} n={samples}")


def _report_failures(failures: list[str], gate_errors: list[str]) -> None:
    for f in sorted(set(failures)):
        print(f"  failed: {f} (x{failures.count(f)})")
    for g in gate_errors:
        print(f"GATE FAILED: {g}", file=sys.stderr)


def report_end_to_end(args, units: dict) -> dict:
    setups = [_child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    run = _workload_child("measure", args, "e2e")
    setups.append(run["setup_s"])
    passes = run["passes"]
    first = passes[0]
    # each job's median over the passes damps both seed and machine noise
    per_job = [statistics.median(times) for times in zip(*(p["job_s"] for p in passes))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_s": statistics.median(per_job),
        "job_max_s": max(per_job),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {"setup_s": len(setups), "wall_s": len(passes),
               "job_p50_s": f"{len(passes)}x{first['attempted']} jobs",
               "job_max_s": f"{len(passes)}x{first['attempted']} jobs", "peak_rss_mb": 1}
    print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es), "
          f"pass-0 digest {run['digest'][:16]}")
    for name, value in metrics.items():
        _line(name, value, units[name], samples[name])
    failures = first["failures"]
    _line("fail_ratio", len(failures) / first["attempted"], "1", first["attempted"])
    _report_failures(failures, first["gate_errors"])
    gate_errors = [g for p in passes for g in p["gate_errors"]]
    return {"correct": not gate_errors, "attempted": first["attempted"],
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def report_layers(args, units: dict) -> dict:
    traced = [_workload_child("traced", args, f"t{i}") for i in (0, 1)]
    plain = _workload_child("untraced", args, "u")
    problems = []
    digests = {r["digest"] for r in traced + [plain]}
    if len(digests) != 1:
        problems.append(f"pass-0 output digests differ between runs: {sorted(digests)}")
    if traced[0]["counts"] != traced[1]["counts"]:
        diff = {k: (v, traced[1]["counts"][k]) for k, v in traced[0]["counts"].items()
                if traced[1]["counts"][k] != v}
        problems.append(f"layer counts differ between two traced runs: {diff}")
    if not plain["workers2"]["identical"]:
        problems.append("p_hat differs between workers=1 and workers=2")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}", file=sys.stderr)

    metrics = {}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        metrics[name] = values[0] if name in traced[0]["counts"] else statistics.fmean(values)
    metrics["montecarlo.workers2_speedup"] = plain["workers2"]["speedup"]
    metrics["trace_overhead_ratio"] = (statistics.fmean(t["wall_s"] for t in traced)
                                       / plain["wall_s"])
    print(f"{args.workload} seed={args.seed}: traced pass 0 x2 "
          f"({traced[0]['span_count']} spans), untraced pass 0 x1, "
          f"digest {plain['digest'][:16]}")
    for name in sorted(metrics):
        _line(name, metrics[name], units[name], 2 if name not in traced[0]["counts"] else 1)
    _report_failures(plain["failures"], plain["gate_errors"])
    gate_errors = [g for r in traced + [plain] for g in r["gate_errors"]]
    return {"correct": not gate_errors and not problems,
            "attempted": plain["attempted"], "failed": len(plain["failures"]),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sdma_capacity", "cli.py")):
        print("run from the root of an sdma-capacity checkout "
              "(src/sdma_capacity not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        result = (report_layers if args.trace else report_end_to_end)(args, units)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
