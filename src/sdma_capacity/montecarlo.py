"""Monte Carlo outage estimation, quantile density estimation, sweeps.

Both estimates read one generator of per-trial critical densities lam*:
outage at a fixed lam is the fraction of lam* <= lam, and the maximum
density lam_eps is the epsilon-quantile of lam*.

Reproducibility model: trials are grouped into fixed-size batches and each
batch gets its own counter-based Philox stream keyed by (seed, batch index).
Outage estimates aggregate per-batch integer counts, and density estimates
take order statistics of per-batch arrays that are always drawn whole, so
both are bit-identical regardless of how batches are scheduled across
workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import bdtr, bdtrik

from . import analytic
from .channel import sinr_samples
from .network import NetworkParams, Scheme

BATCH_SIZE = 4096
NEAREST = 64  # interferers drawn per surrogate trial; the rest enter as their mean
WORKER_ENV_VAR = "SDMA_WORKERS"


class InconclusiveBisection(RuntimeError):
    """Raised when the trial budget cannot narrow lambda_eps to the tolerance."""

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


def _count_batch(args) -> int:
    scheme, params, seed, batch_index, n, explicit = args
    if not explicit:
        lam_star = _critical_batch((scheme, params, seed, batch_index))[:n]
        return int(np.count_nonzero(lam_star <= params.lam))
    sinr = sinr_samples(scheme, params, _batch_rng(seed, batch_index), n)
    return int(np.count_nonzero(sinr < params.beta))


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    return max(1, int(os.environ.get(WORKER_ENV_VAR, "1")))


def _map_batches(fn, jobs: list, workers: int | None) -> list:
    """``[fn(job) for job in jobs]``, over a process pool when workers > 1."""
    nw = _worker_count(workers)
    if nw > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=nw) as pool:
            return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * nw))))
    return [fn(job) for job in jobs]


def estimate_outage(scheme: Scheme, params: NetworkParams, trials: int,
                    seed: int, explicit: bool = False,
                    workers: int | None = None) -> OutageEstimate:
    """Fraction of trials in outage, with a 95% Wilson interval: of lam* <= lam,
    or of SINR < beta on the constructed channels when ``explicit``.

    Bit-identical for fixed (seed, params, scheme, trials) regardless of the
    worker count: batches are keyed by (seed, batch index) and only integer
    counts are aggregated.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scheme.check_feasible(params)
    n_full, rem = divmod(trials, BATCH_SIZE)
    jobs = [(scheme, params, seed, i, BATCH_SIZE, explicit) for i in range(n_full)]
    if rem:
        jobs.append((scheme, params, seed, n_full, rem, explicit))
    outages = sum(_map_batches(_count_batch, jobs, workers))
    lo, hi = wilson_interval(outages, trials)
    return OutageEstimate(p_hat=outages / trials, ci_low=lo, ci_high=hi,
                          trials=trials, seed=seed, scheme=scheme, params=params)


def _critical_batch(args) -> np.ndarray:
    """Critical densities of the BATCH_SIZE trials of one batch.

    Interferers sit at pi r_k^2 = Gamma_k / lam, with Gamma_k the arrival
    times of a unit-rate Poisson process (LePage-Woodroofe-Zinn), so the
    interference at density lam is lam^(alpha/2) S with S the unit-density
    shot noise. S sums the nearest ``NEAREST`` points with their Gamma marks
    and the mean of the rest, 2 pi m (Gamma_K / pi)^(1 - alpha/2) / (alpha - 2).
    A trial is in outage at lam exactly when lam > lam*, with
    lam* = ((h0 D^-alpha / beta - eta/rho)_+ / S)^(2/alpha), which is 0 for a
    trial in outage on noise alone: it is in outage at every lam >= 0.
    """
    scheme, params, seed, batch_index = args
    rng = _batch_rng(seed, batch_index)
    alpha, m = params.alpha, scheme.mark_shape(params)
    r2 = rng.standard_exponential((BATCH_SIZE, NEAREST)).cumsum(axis=1)
    r2 /= math.pi  # squared radii at unit density
    tail = r2[:, -1] ** (1.0 - alpha / 2.0)
    tail *= 2.0 * math.pi * m / (alpha - 2.0)
    contrib = np.power(r2, -alpha / 2.0, out=r2)
    contrib *= rng.gamma(m, 1.0, size=contrib.shape)
    shot = contrib.sum(axis=1)
    shot += tail
    if scheme.is_order_statistic:  # h0, the desired-link gain
        margin = rng.standard_exponential((BATCH_SIZE, params.N)).max(axis=1)
    else:
        margin = rng.gamma(scheme.signal_dof(params), 1.0, size=BATCH_SIZE)
    margin *= params.D ** (-alpha) / params.beta
    margin -= params.eta_over_rho
    np.maximum(margin, 0.0, out=margin)
    margin /= shot
    return np.power(margin, 2.0 / alpha, out=margin)


def _critical_densities(scheme: Scheme, params: NetworkParams, seed: int,
                        trials: int, workers: int | None = None,
                        drawn: list | tuple = ()) -> list[np.ndarray]:
    """Batches 0..ceil(trials / BATCH_SIZE) - 1 of critical densities.

    Every batch is drawn whole, so its values depend only on (seed, batch
    index): ``drawn`` (batches 0..len(drawn) - 1 of an earlier call) is
    reused, and the first n values of a larger call equal an n-trial call's.
    """
    jobs = [(scheme, params, seed, i)
            for i in range(len(drawn), -(-trials // BATCH_SIZE))]
    return [*drawn, *_map_batches(_critical_batch, jobs, workers)]


def _binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q."""
    k = min(n, max(0, int(bdtrik(q, n, p))))
    while k > 0 and bdtr(k - 1, n, p) >= q:
        k -= 1
    while k < n and bdtr(k, n, p) < q:
        k += 1
    return k


def _quantile_interval(lam_star: np.ndarray, eps: float) -> tuple[float, float, float]:
    """lambda_eps, the ceil(n eps)-th order statistic of ``lam_star``, and the
    ends of its distribution-free 95% interval.

    With X_(r) the r-th smallest value, P(X_(r) <= q_eps <= X_(s)) is
    P(r <= Binomial(n, eps) < s); r and s - 1 are the binomial 2.5% and
    97.5% quantiles. X_(0) reads 0 and X_(n+1) infinity.
    """
    n = lam_star.size
    k = min(n, max(1, math.ceil(n * eps)))
    r = _binomial_quantile(0.025, n, eps)
    s = _binomial_quantile(0.975, n, eps) + 1
    part = np.partition(lam_star, [i - 1 for i in (r, k, s) if 1 <= i <= n])
    lower = float(part[r - 1]) if r >= 1 else 0.0
    upper = float(part[s - 1]) if s <= n else math.inf
    return float(part[k - 1]), lower, upper


def find_max_density(scheme: Scheme, params: NetworkParams, seed: int,
                     tolerance: float = 0.02, trials_init: int = 10_000,
                     trials_cap: int = 4_000_000,
                     workers: int | None = None) -> analytic.DensityResult:
    """Maximum contention density as the epsilon-quantile of the per-trial
    critical density (Weber, Yang, Andrews & de Veciana, IEEE T-IT 2005).

    The trial count doubles from ``trials_init`` up to ``trials_cap`` until
    the 95% order-statistic interval has width / midpoint <= ``tolerance``;
    the doubled estimate reuses the batches already drawn. An interval whose
    upper end is 0 is noise-limited (outage exceeds epsilon at lam -> 0).
    Raises InconclusiveBisection, with the last interval, when the cap is
    reached first. Bit-identical for any worker count.
    """
    scheme.check_feasible(params)
    eps = params.epsilon
    trials = trials_init
    batches: list[np.ndarray] = []
    while True:
        batches = _critical_densities(scheme, params, seed, trials, workers, batches)
        lam, lower, upper = _quantile_interval(np.concatenate(batches)[:trials], eps)
        extras = {"seed": seed, "trials": trials}
        if upper == 0.0:
            return analytic.DensityResult(
                lambda_eps=0.0, ase=0.0, method="mc-root", scheme=scheme,
                noise_limited=True, lambda_lower=0.0, lambda_upper=0.0,
                extras=extras)
        if math.isfinite(upper) and upper - lower <= tolerance * 0.5 * (upper + lower):
            return analytic.DensityResult(
                lambda_eps=lam,
                ase=analytic.area_spectral_efficiency(params, lam),
                method="mc-root", scheme=scheme,
                lambda_lower=lower, lambda_upper=upper, extras=extras)
        if trials >= trials_cap:
            raise InconclusiveBisection(
                f"{trials} trials leave the 95% interval of lambda_eps at "
                f"[{lower:.6g}, {upper:.6g}], wider than tolerance {tolerance}",
                (lower, upper))
        trials = min(trials * 2, trials_cap)


def run_sweep(schemes: list[Scheme], antenna_grid: list[tuple[int, int, int]],
              params: NetworkParams, mode: str = "analytic", seed: int = 0,
              tolerance: float = 0.02, workers: int | None = None,
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
                                           workers=workers)
                    rows.append(SweepRow(scheme, m, n, k, res.lambda_eps, res.ase,
                                         res.method, ci_low=res.lambda_lower,
                                         ci_high=res.lambda_upper,
                                         trials=res.extras["trials"], seed=seed))
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

    ``sampler(rng, size)`` must return a 1-D array. It is called for blocks
    of at most ``BATCH_SIZE`` draws on one stream, which bounds the memory
    of stacked precoder constructions. The critical value is the asymptotic
    K-S quantile at ``level`` scaled by 1/sqrt(n).
    """
    from scipy import stats  # ~0.3 s of import time, needed only here

    if samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful KS test")
    rng = _batch_rng(seed, 0)
    data = np.concatenate([np.asarray(sampler(rng, min(BATCH_SIZE, samples - start)))
                           for start in range(0, samples, BATCH_SIZE)])
    stat = float(stats.kstest(data, reference_cdf).statistic)
    critical = float(stats.kstwobign.isf(level)) / math.sqrt(samples)
    return KSReport(statistic=stat, critical_value=critical, samples=samples,
                    passed=stat < critical)
