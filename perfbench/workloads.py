"""The four workloads: fixed job lists, their seeds and their correctness gates.

A job is one program call the benchmark times: one density search, one
outage estimate, one ``sdma-lab`` call (``cli.main(argv)`` in-process) or
one exact root. Every call goes through a module attribute of the package
(``montecarlo.find_max_density``, ``cli.main``, ...) so that the traced run
sees it. Job seeds come from ``SeedSequence([workload_seed, job_index])``;
pass ``p`` of a run uses job indices ``p * J + j`` for a list of ``J`` jobs.

Each job returns an ``Outcome``: the text its output digest is taken over,
a failure label (counted in ``failed``; known failures included) and a gate
error (a wrong output; makes the run incorrect).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sdma_capacity import analytic, cli, montecarlo, reporting
from sdma_capacity.network import NetworkParams, Scheme

BASE = NetworkParams(lam=1e-4, alpha=4.0, D=10.0, beta=3.0, epsilon=0.1)

# density-search: criterion-3/4/7 search shapes at a trial cap that fits a run
SEARCH_TOLERANCE = 0.1
SEARCH_TRIALS_CAP = 50_000
SEARCH_SHAPES = (
    (Scheme.SISO_BASELINE, BASE),
    (Scheme.DPC_MIMO_UB, BASE),
    (Scheme.ZF_ANTSEL, BASE.replace(M=4, N=4, K=4)),
)

# outage-fixed: 314, 1,005 and 3,142 interferer points per trial
OUTAGE_TRIALS = 32_768
OUTAGE_SHAPES = (
    (Scheme.SISO_BASELINE, BASE.replace(lam=1e-5)),
    (Scheme.DPC_MIMO_UB, BASE.replace(lam=3.2e-4, M=4, N=4, K=4)),
    (Scheme.ZF_ANTSEL, BASE.replace(lam=1e-3, M=4, N=8, K=4)),
)

# explicit-channel: constructed channels and precoders, one call per interferer
EXPLICIT_TRIALS = 100
EXPLICIT_SHAPES = (
    (Scheme.SISO_BASELINE, BASE),
    (Scheme.ZF_MISO, BASE.replace(M=4, N=1, K=4)),
    (Scheme.ZF_MULTI, BASE.replace(M=4, N=2, K=2)),
    (Scheme.BD_UB, BASE.replace(M=4, N=2, K=2)),
    (Scheme.DPC_MIMO_UB, BASE.replace(M=2, N=2, K=2)),
)

# analytic-cli
CLI_ALPHAS = ("3", "4")
CLI_GRID = "2,4,8,16,32"
ROOT_ANTENNAS = (2, 4, 8, 16, 32, 48, 64)
ROOT_EPSILONS = (0.1, 0.01)

@dataclass
class Outcome:
    record: str
    failure: str | None = None
    gate_error: str | None = None


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def job_seed(workload_seed: int, job_index: int) -> int:
    return int(np.random.SeedSequence([workload_seed, job_index])
               .generate_state(1, np.uint64)[0])


def _within_se(p_hat: float, exact: float, trials: int, k: float = 4.0) -> bool:
    se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / trials)
    return abs(p_hat - exact) <= k * se


class References:
    """Oracle values, computed once per run outside the timed region."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


# ---------------------------------------------------------------- density-search

def _search_check(scheme: Scheme, params: NetworkParams, refs: References):
    def check(result) -> Outcome:
        if isinstance(result, montecarlo.InconclusiveBisection):
            return Outcome(f"inconclusive {result.bracket!r}",
                           failure="InconclusiveBisection")
        lam = result.lambda_eps
        record = f"{lam!r} {result.lambda_lower!r} {result.lambda_upper!r}"
        if scheme is Scheme.DPC_MIMO_UB:
            d, m = scheme.signal_dof(params), scheme.mark_shape(params)
            lower = refs.get(("sandwich", params), lambda: analytic.density_sandwich(
                params, d, m)[0])
            upper = refs.get(("upper", params), lambda: analytic.density_dpc_mimo(
                params, method="upper-bound").lambda_eps)
            ok = lower * 0.97 <= lam <= upper * 1.03
            why = f"dpc {lam:.4e} outside [{lower * 0.97:.4e}, {upper * 1.03:.4e}]"
        else:
            if scheme is Scheme.SISO_BASELINE:
                ref = refs.get(("closed", params), lambda: analytic.density_for_scheme(
                    params, scheme).lambda_eps)
            else:
                ref = refs.get(("root", params), lambda: analytic.exact_density_root(
                    scheme, params).lambda_eps)
            ok = abs(lam / ref - 1.0) <= 2.0 * SEARCH_TOLERANCE
            why = f"{scheme.value} {lam:.4e} vs reference {ref:.4e}"
        return Outcome(record, gate_error=None if ok else why)
    return check


def density_search_jobs(seed: int, pass_index: int, refs: References, out_dir: str):
    jobs = []
    for j, (scheme, params) in enumerate(SEARCH_SHAPES):
        s = job_seed(seed, pass_index * len(SEARCH_SHAPES) + j)

        def run(scheme=scheme, params=params, s=s):
            try:
                return montecarlo.find_max_density(
                    scheme, params, seed=s, tolerance=SEARCH_TOLERANCE,
                    trials_cap=SEARCH_TRIALS_CAP, workers=1)
            except montecarlo.InconclusiveBisection as exc:
                return exc
        jobs.append(Job(f"search {scheme.value}", run, _search_check(scheme, params, refs)))
    return jobs


# ------------------------------------------------------------------ outage-fixed

def _outage_check(scheme: Scheme, params: NetworkParams, refs: References):
    """dpc against ``outage_bracket``, siso and zf-antsel against ``exact_outage``."""
    def check(est) -> Outcome:
        record = f"{est.p_hat!r} {est.ci_low!r} {est.ci_high!r} {est.trials}"
        if scheme not in (Scheme.DPC_MIMO_UB, Scheme.SISO_BASELINE, Scheme.ZF_ANTSEL):
            return Outcome(record)
        if scheme is Scheme.DPC_MIMO_UB:
            lo, hi = refs.get(("bracket", params), lambda: analytic.outage_bracket(
                params, scheme.signal_dof(params), scheme.mark_shape(params)))
            ok = est.ci_high >= lo and est.ci_low <= hi
            why = f"dpc CI [{est.ci_low:.5f}, {est.ci_high:.5f}] misses [{lo:.5f}, {hi:.5f}]"
        else:
            exact = refs.get(("exact", scheme, params),
                             lambda: analytic.exact_outage(scheme, params))
            ok = _within_se(est.p_hat, exact, est.trials)
            why = f"{scheme.value} p_hat {est.p_hat:.5f} vs exact {exact:.5f}"
        return Outcome(record, gate_error=None if ok else why)
    return check


def _outage_jobs(shapes, trials: int, explicit: bool, seed: int, first_index: int,
                 refs: References):
    jobs = []
    for j, (scheme, params) in enumerate(shapes):
        s = job_seed(seed, first_index + j)

        def run(scheme=scheme, params=params, s=s):
            return montecarlo.estimate_outage(scheme, params, trials, s,
                                              explicit=explicit, workers=1)
        jobs.append(Job(f"outage {scheme.value}", run, _outage_check(scheme, params, refs)))
    return jobs


def outage_fixed_jobs(seed: int, pass_index: int, refs: References, out_dir: str):
    return _outage_jobs(OUTAGE_SHAPES, OUTAGE_TRIALS, False, seed,
                        pass_index * len(OUTAGE_SHAPES), refs)


# ----------------------------------------------------------------- CLI plumbing

def _call_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _schema_validator():
    import jsonschema
    return jsonschema.Draft202012Validator(reporting.load_schema())


def _read_output(path: str, out_dir: str) -> str:
    # the config block echoes the output path, which is fresh per run
    with open(path) as fh:
        return fh.read().replace(out_dir, "<out>")


def _csv_matches_json(csv_text: str, doc: dict) -> bool:
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != reporting.DENSITY_COLUMNS or len(rows) - 1 != len(doc["rows"]):
        return False
    for cells, row in zip(rows[1:], doc["rows"]):
        for cell, col in zip(cells, rows[0]):
            value = row.get(col)
            if cell != ("" if value is None else repr(value) if isinstance(value, float)
                        else str(value)):
                return False
    return True


def _cli_check(path: str, fmt: str, out_dir: str, refs: References,
               pair: dict | None = None):
    """Exit code 0, schema-valid JSON, no error rows, csv == json for a sweep pair."""
    def check(res) -> Outcome:
        rc, text = res
        body = _read_output(path, out_dir) if os.path.exists(path) else ""
        record = f"rc={rc}\n{body}"
        if rc != cli.EXIT_OK:
            reason = text.strip().splitlines()[-1] if text.strip() else ""
            return Outcome(record, failure=f"exit {rc}: {reason[:80]}")
        if fmt == "json":
            doc = json.loads(body)
            validator = refs.get("schema", _schema_validator)
            errors = sorted(e.message for e in validator.iter_errors(doc))
            if errors:
                return Outcome(record, gate_error=f"schema: {errors[0]}")
            if pair is not None:
                pair["json"] = doc
            failed_rows = [r for r in doc["rows"] if "error" in r]
            if doc["kind"] == "validation" and not all(c["passed"] for c in doc["checks"]):
                return Outcome(record, gate_error="validate reported a failed check")
        else:
            if pair is not None:
                pair["csv"] = body
            failed_rows = [r for r in csv.DictReader(io.StringIO(body))
                           if r["lambda_eps"] == ""]
        if pair is not None and "csv" in pair and "json" in pair:
            if not _csv_matches_json(pair.pop("csv"), pair.pop("json")):
                return Outcome(record, gate_error="csv and json rows of one sweep differ")
        if failed_rows:
            return Outcome(record, failure="error rows")
        return Outcome(record)
    return check


def _cli_job(label: str, argv: list[str], path: str, fmt: str, out_dir: str,
             refs: References, pair: dict | None = None) -> Job:
    return Job(label, lambda: _call_cli(argv + ["--out", path]),
               _cli_check(path, fmt, out_dir, refs, pair))


# ------------------------------------------------------------------ analytic-cli

def _root_check(params: NetworkParams):
    def check(result) -> Outcome:
        lam = result.lambda_eps
        pout = analytic.exact_outage(Scheme.ZF_ANTSEL, params.replace(lam=lam))
        ok = abs(pout / params.epsilon - 1.0) <= 1e-4
        return Outcome(repr(lam), gate_error=None if ok else
                       f"zf-antsel N={params.N} root {lam:.4e}: outage {pout:.6f}")
    return check


def analytic_cli_jobs(seed: int, pass_index: int, refs: References, out_dir: str):
    """The same calls in every pass; no job takes a seed."""
    jobs = []
    n = 0

    def path(ext: str) -> str:
        nonlocal n
        n += 1
        return os.path.join(out_dir, f"p{pass_index}-j{n:03d}.{ext}")

    schemes = [s.value for s in Scheme]
    for alpha in CLI_ALPHAS:
        common = ["--alpha", alpha]
        for name in schemes:
            pair: dict = {}
            sweep = ["sweep", "--scheme", name, "--grid", CLI_GRID] + common
            for fmt in ("csv", "json"):
                jobs.append(_cli_job(f"sweep {name} a={alpha} {fmt}",
                                     sweep + ["--format", fmt], path(fmt), fmt,
                                     out_dir, refs, pair))
        for name in schemes:
            m, nn, k = Scheme.from_name(name).default_config(8)
            for method in ("small-eps", "upper-bound", "sandwich"):
                argv = ["analytic", "--scheme", name, "--m", str(m), "--n", str(nn),
                        "--k", str(k), "--method", method, "--format", "json"] + common
                jobs.append(_cli_job(f"analytic {name} {method} a={alpha}", argv,
                                     path("json"), "json", out_dir, refs))
        for name in schemes:
            argv = ["sweep", "--scheme", name, "--grid", CLI_GRID, "--snr-db", "20",
                    "--distance", "1", "--format", "csv"] + common
            jobs.append(_cli_job(f"noisy sweep {name} a={alpha}", argv, path("csv"),
                                 "csv", out_dir, refs))
    for antennas in ROOT_ANTENNAS:
        for eps in ROOT_EPSILONS:
            p = BASE.replace(M=antennas, N=antennas, K=antennas, epsilon=eps)
            jobs.append(Job(f"root zf-antsel N={antennas} eps={eps}",
                            lambda p=p: analytic.exact_density_root(Scheme.ZF_ANTSEL, p),
                            _root_check(p)))
    return jobs


# -------------------------------------------------------------- explicit-channel

def explicit_channel_jobs(seed: int, pass_index: int, refs: References, out_dir: str):
    jobs = _outage_jobs(EXPLICIT_SHAPES, EXPLICIT_TRIALS, True, seed,
                        pass_index * len(EXPLICIT_SHAPES), refs)
    out = os.path.join(out_dir, f"p{pass_index}-validate.json")
    jobs.append(_cli_job("validate", ["validate"], out, "json", out_dir, refs))
    return jobs


# Passes a run stops at, if --seconds is not spent first. The seed changes
# density-search's work most, so it fills --seconds; the fixed-work
# workloads need only enough passes to damp the machine's own noise.
MAX_PASSES = {
    "density-search": None,
    "outage-fixed": 4,
    "analytic-cli": 1,
    "explicit-channel": 3,
}

JOB_LISTS = {
    "density-search": density_search_jobs,
    "outage-fixed": outage_fixed_jobs,
    "analytic-cli": analytic_cli_jobs,
    "explicit-channel": explicit_channel_jobs,
}


def workers2_probe(seed: int) -> dict:
    """The outage-fixed dpc job at workers=1 and workers=2 (two processes)."""
    scheme, params = OUTAGE_SHAPES[1]
    s = job_seed(seed, 1)
    times, ests = [], []
    for workers in (1, 2):
        t0 = time.perf_counter()
        ests.append(montecarlo.estimate_outage(scheme, params, OUTAGE_TRIALS, s,
                                               workers=workers))
        times.append(time.perf_counter() - t0)
    return {"speedup": times[0] / times[1], "identical": ests[0] == ests[1]}
