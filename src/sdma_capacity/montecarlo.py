"""Monte Carlo outage estimation, stochastic density search, sweeps.

Reproducibility model: trials are grouped into fixed-size batches and each
batch gets its own counter-based Philox stream keyed by (seed, batch index).
The per-batch success counts are exact integers, so the estimate is
bit-identical regardless of how batches are scheduled across workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .channel import default_window_radius, sinr_sample
from .network import NetworkParams, Scheme

BATCH_SIZE = 4096
_BLOCK_POINTS = 1 << 15  # interferer points per in-cache block of a batch
WORKER_ENV_VAR = "SDMA_WORKERS"


class InconclusiveBisection(RuntimeError):
    """Raised when the trial budget cannot separate outage from epsilon."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class OutageEstimate:
    """Estimated outage probability with a 95% Wilson interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int
    scheme: Scheme
    params: NetworkParams


@dataclass(frozen=True)
class SweepRow:
    scheme: Scheme
    M: int
    N: int
    K: int
    lambda_eps: float | None
    ase: float | None
    method: str
    ci_low: float | None = None
    ci_high: float | None = None
    trials: int | None = None
    seed: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    slopes: dict = field(default_factory=dict)  # (scheme, method) -> slope | None


@dataclass(frozen=True)
class KSReport:
    statistic: float
    critical_value: float
    samples: int
    passed: bool


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    key = np.array([seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _surrogate_batch_outages(scheme: Scheme, params: NetworkParams, n: int,
                             rng: np.random.Generator) -> int:
    """Vectorized law-based trials; returns the batch outage count.

    Marks are drawn and summed in in-cache blocks of whole trials; the draws
    and each trial's summation order are those of one pass over the batch.
    """
    radius = default_window_radius(params)
    counts = rng.poisson(params.lam * math.pi * radius**2, size=n)
    y = np.zeros(n)
    total = int(counts.sum())
    if total:
        r2 = rng.random(total)
        r2 *= radius**2
        shape = scheme.mark_shape(params)
        ends = np.cumsum(counts)
        t0 = p0 = 0
        while t0 < n:
            t1 = max(t0 + 1, int(np.searchsorted(ends, p0 + _BLOCK_POINTS, side="right")))
            p1 = int(ends[t1 - 1])
            contrib = rng.gamma(shape, 1.0, size=p1 - p0)
            pathloss = r2[p0:p1]
            np.power(pathloss, -params.alpha / 2.0, out=pathloss)
            contrib *= pathloss
            idx = np.repeat(np.arange(t1 - t0), counts[t0:t1])
            y[t0:t1] = np.bincount(idx, weights=contrib, minlength=t1 - t0)
            t0, p0 = t1, p1
    if scheme.is_order_statistic:
        h0 = rng.standard_exponential((n, params.N)).max(axis=1)
    else:
        h0 = rng.gamma(scheme.signal_dof(params), 1.0, size=n)
    sinr_num = h0 * params.D ** (-params.alpha)
    outage = sinr_num < params.beta * (y + params.eta_over_rho)
    return int(np.count_nonzero(outage))


def _count_batch(args) -> int:
    scheme, params, seed, batch_index, n, explicit = args
    rng = _batch_rng(seed, batch_index)
    if not explicit:
        return _surrogate_batch_outages(scheme, params, n, rng)
    count = 0
    for _ in range(n):
        if sinr_sample(scheme, params, rng, explicit=True) < params.beta:
            count += 1
    return count


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    return max(1, int(os.environ.get(WORKER_ENV_VAR, "1")))


def estimate_outage(scheme: Scheme, params: NetworkParams, trials: int,
                    seed: int, explicit: bool = False,
                    workers: int | None = None) -> OutageEstimate:
    """Fraction of trials with SINR < beta, with a 95% Wilson interval.

    Bit-identical for fixed (seed, params, scheme, trials) regardless of the
    worker count: batches are keyed by (seed, batch index) and only integer
    counts are aggregated.
    """
    return _estimate(scheme, params, trials, seed, explicit, workers, {})


def _estimate(scheme: Scheme, params: NetworkParams, trials: int, seed: int,
              explicit: bool, workers: int | None, known: dict[int, int]
              ) -> OutageEstimate:
    """``estimate_outage`` that reuses and extends ``known``: full-batch
    outage counts by batch index, from earlier calls on the same (scheme,
    params, seed, explicit), as when a density probe doubles its trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scheme.check_feasible(params)
    n_full, rem = divmod(trials, BATCH_SIZE)
    jobs = [(scheme, params, seed, i, BATCH_SIZE, explicit)
            for i in range(n_full) if i not in known]
    if rem:
        jobs.append((scheme, params, seed, n_full, rem, explicit))
    nw = _worker_count(workers)
    if nw > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=nw) as pool:
            counts = list(pool.map(_count_batch, jobs, chunksize=max(1, len(jobs) // (4 * nw))))
    else:
        counts = [_count_batch(j) for j in jobs]
    known.update((job[3], c) for job, c in zip(jobs, counts) if job[4] == BATCH_SIZE)
    outages = sum(known[i] for i in range(n_full)) + (counts[-1] if rem else 0)
    lo, hi = wilson_interval(outages, trials)
    return OutageEstimate(p_hat=outages / trials, ci_low=lo, ci_high=hi,
                          trials=trials, seed=seed, scheme=scheme, params=params)


def _probe_seed(seed: int, probe_index: int) -> int:
    return int(np.random.SeedSequence([seed, probe_index]).generate_state(1, np.uint64)[0])


def find_max_density(scheme: Scheme, params: NetworkParams, seed: int,
                     tolerance: float = 0.02, explicit: bool = False,
                     trials_init: int = 10_000, trials_cap: int = 4_000_000,
                     workers: int | None = None) -> analytic.DensityResult:
    """Stochastic bisection for the maximum contention density.

    A candidate density is classified against epsilon only once its Wilson
    interval excludes epsilon, doubling the trial count up to ``trials_cap``;
    bisection stops when bracket width / midpoint <= ``tolerance``. Raises
    InconclusiveBisection when a decisive probe exhausts the budget.
    """
    scheme.check_feasible(params)
    eps = params.epsilon
    probe_index = 0

    def classify(lam: float):
        nonlocal probe_index
        pseed = _probe_seed(seed, probe_index)
        probe_index += 1
        trials = trials_init
        known: dict[int, int] = {}
        while True:
            est = _estimate(scheme, params.replace(lam=lam), trials, pseed,
                            explicit, workers, known)
            if est.ci_low > eps:
                return "above", est
            if est.ci_high < eps:
                return "below", est
            if trials >= trials_cap:
                return "inconclusive", est
            trials = min(trials * 2, trials_cap)

    # noise-limited floor: outage at lam -> 0 already above epsilon
    cls0, est0 = classify(0.0)
    if cls0 == "above":
        return analytic.DensityResult(
            lambda_eps=0.0, ase=0.0, method="mc-root", scheme=scheme,
            noise_limited=True, extras={"seed": seed})
    if cls0 == "inconclusive":
        raise InconclusiveBisection(
            f"outage at lam=0 is indistinguishable from epsilon={eps} "
            f"within {trials_cap} trials", (0.0, 0.0))

    guess = analytic.density_for_scheme(params, scheme).lambda_eps
    lo, hi = 0.0, guess if guess > 0 else 1e-6
    for _ in range(80):
        cls, _ = classify(hi)
        if cls == "above":
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ArithmeticError("bracket expansion failed: outage stays below epsilon")

    while (hi - lo) > tolerance * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        cls, _ = classify(mid)
        if cls == "below":
            lo = mid
        elif cls == "above":
            hi = mid
        else:
            raise InconclusiveBisection(
                f"trial budget {trials_cap} cannot separate outage from "
                f"epsilon={eps} at lam={mid:.6g}", (lo, hi))
    root = 0.5 * (lo + hi)
    return analytic.DensityResult(
        lambda_eps=root,
        ase=analytic.area_spectral_efficiency(params, root),
        method="mc-root", scheme=scheme,
        lambda_lower=lo, lambda_upper=hi,
        extras={"seed": seed, "probes": probe_index})


def run_sweep(schemes: list[Scheme], antenna_grid: list[tuple[int, int, int]],
              params: NetworkParams, mode: str = "analytic", seed: int = 0,
              tolerance: float = 0.02, explicit: bool = False,
              workers: int | None = None,
              analytic_method: str = "small-eps") -> SweepTable:
    """Density/ASE over an antenna grid with per-scheme log-log slope fits.

    ``antenna_grid`` rows are (M, N, K). Per-row failures are recorded in
    the row and the sweep continues. A slope needs at least four grid points
    over at least two distinct axis values; otherwise it is None.
    """
    if not schemes:
        raise ValueError("scheme list is empty")
    if not antenna_grid:
        raise ValueError("antenna grid is empty")
    if mode not in ("analytic", "mc", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    rows: list[SweepRow] = []
    for scheme in schemes:
        axis = scheme.spec.sweep_axis
        for m, n, k in sorted(antenna_grid, key=lambda t: axis(t[0], t[1])):
            p = params.replace(M=m, N=n, K=k)
            if mode in ("analytic", "both"):
                try:
                    res = analytic.density_for_scheme(p, scheme, method=analytic_method)
                    rows.append(SweepRow(scheme, m, n, k, res.lambda_eps, res.ase,
                                         res.method, ci_low=res.lambda_lower,
                                         ci_high=res.lambda_upper))
                except Exception as exc:  # noqa: BLE001 - per-row failures recorded
                    rows.append(SweepRow(scheme, m, n, k, None, None, "analytic",
                                         error=str(exc)))
            if mode in ("mc", "both"):
                try:
                    res = find_max_density(scheme, p, seed=seed, tolerance=tolerance,
                                           explicit=explicit, workers=workers)
                    rows.append(SweepRow(scheme, m, n, k, res.lambda_eps, res.ase,
                                         res.method, ci_low=res.lambda_lower,
                                         ci_high=res.lambda_upper, seed=seed))
                except Exception as exc:  # noqa: BLE001
                    rows.append(SweepRow(scheme, m, n, k, None, None, "mc-root",
                                         error=str(exc)))
    slopes = {}
    for scheme in schemes:
        for method in {r.method for r in rows if r.scheme is scheme}:
            pts = [(scheme.spec.sweep_axis(r.M, r.N), r.ase) for r in rows
                   if r.scheme is scheme and r.method == method
                   and r.error is None and r.ase and r.ase > 0]
            # a fixed-size scheme (siso) sweeps one axis value: no slope
            if len(pts) >= 4 and len({x for x, _ in pts}) >= 2:
                slope = fit_ase_slope(*zip(*pts))
            else:
                slope = None
            slopes[(scheme.value, method)] = slope
    return SweepTable(rows=tuple(rows), slopes=slopes)


def fit_ase_slope(antennas, ases) -> float:
    """OLS slope of log ASE versus log antenna count."""
    antennas = np.asarray(antennas, dtype=float)
    ases = np.asarray(ases, dtype=float)
    if antennas.size < 2:
        raise ValueError("need at least two points for a slope")
    return float(np.polyfit(np.log(antennas), np.log(ases), 1)[0])


def validate_distribution(sampler, reference_cdf, samples: int,
                          seed: int, level: float = 0.01) -> KSReport:
    """One-sample Kolmogorov-Smirnov test of ``sampler`` against a CDF.

    ``sampler(rng, size)`` must return a 1-D array. The critical value is
    the asymptotic K-S quantile at ``level`` scaled by 1/sqrt(n).
    """
    from scipy import stats  # ~0.3 s of import time, needed only here

    if samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful KS test")
    rng = _batch_rng(seed, 0)
    data = np.asarray(sampler(rng, samples))
    stat = float(stats.kstest(data, reference_cdf).statistic)
    critical = float(stats.kstwobign.isf(level)) / math.sqrt(samples)
    return KSReport(statistic=stat, critical_value=critical, samples=samples,
                    passed=stat < critical)
