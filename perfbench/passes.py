"""Timed passes over a workload's job list."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import workloads


@dataclass
class PassResult:
    wall_s: float
    job_s: list[float]
    attempted: int
    failures: list[str] = field(default_factory=list)
    gate_errors: list[str] = field(default_factory=list)
    digest: str = ""

    def as_dict(self) -> dict:
        return dict(vars(self))


def run_pass(workload: str, seed: int, pass_index: int, out_dir: str,
             refs: workloads.References, before_check=None, after_check=None) -> PassResult:
    """Run every job of one pass; only the program calls are timed.

    ``before_check``/``after_check`` bracket the correctness gates (the
    traced run pauses its tracer there).
    """
    jobs = workloads.JOB_LISTS[workload](seed, pass_index, refs, out_dir)
    digest = hashlib.sha256()
    job_s, failures, gate_errors = [], [], []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            raw = job.run()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            job_s.append(time.perf_counter() - t0)
            failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
            digest.update(f"{job.label}\nexception {type(exc).__name__}\n".encode())
            continue
        job_s.append(time.perf_counter() - t0)
        if before_check:
            before_check()
        outcome = job.check(raw)
        if after_check:
            after_check()
        digest.update(f"{job.label}\n{outcome.record}\n".encode())
        if outcome.failure:
            failures.append(f"{job.label}: {outcome.failure}")
        if outcome.gate_error:
            failures.append(f"{job.label}: gate")
            gate_errors.append(f"{job.label}: {outcome.gate_error}")
    return PassResult(wall_s=sum(job_s), job_s=job_s, attempted=len(jobs),
                      failures=failures, gate_errors=gate_errors,
                      digest=digest.hexdigest())


def measure(workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    """Passes until ``seconds`` is spent or the workload's pass limit is hit.

    A pass starts only if one more fits; pass 0 always runs. Count-type
    results and the digest are those of pass 0, so they do not depend on
    how many passes fitted.
    """
    refs = workloads.References()
    limit = workloads.MAX_PASSES[workload]
    results = []
    start = time.perf_counter()
    while len(results) != limit:
        res = run_pass(workload, seed, len(results), out_dir, refs)
        results.append(res)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            break
    return {
        "passes": [r.as_dict() for r in results],
        "digest": results[0].digest,
    }
