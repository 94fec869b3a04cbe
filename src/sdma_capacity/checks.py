"""Self-validation suite: kernel identities, distribution tests, MC oracle.

Each check returns a dict with name, residual, threshold, passed (the format
emitted by the validate CLI command). Reference values are computed through
independent routes (gamma-moment identities, exact Rayleigh success
probability) rather than the code paths under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

from .channel import antsel_gain, signal_gains
from .kernels import f_coeff, interference_coeff
from .montecarlo import estimate_outage, validate_distribution
from .network import NetworkParams, Scheme


def _check(name: str, residual: float, threshold: float, detail: str = "") -> dict:
    out = {"name": name, "residual": float(residual), "threshold": float(threshold),
           "passed": bool(residual <= threshold)}
    if detail:
        out["detail"] = detail
    return out


def gamma_moment_identity_check(m_values=range(1, 65),
                                alphas=(2.5, 3.0, 4.0, 6.0),
                                tolerance: float = 1e-10) -> dict:
    """I_M (Beta-sum route) vs pi Gamma(1-2/a) Gamma(M+2/a) / Gamma(M)."""
    worst = 0.0
    for alpha in alphas:
        d = 2.0 / alpha
        for m in m_values:
            ref = math.pi * math.exp(gammaln(1 - d) + gammaln(m + d) - gammaln(m))
            rel = abs(interference_coeff(m, alpha) / ref - 1.0)
            worst = max(worst, rel)
    return _check("gamma-moment-identity", worst, tolerance)


def f_identity_check(d_values=range(1, 33), alphas=(2.5, 3.0, 4.0, 6.0),
                     tolerance: float = 1e-9) -> dict:
    """F_d at eta = 0 vs Gamma(1-2/a) Gamma(d) / Gamma(d-2/a)."""
    worst = 0.0
    for alpha in alphas:
        dd = 2.0 / alpha
        for d in d_values:
            ref = math.exp(gammaln(1 - dd) + gammaln(d) - gammaln(d - dd))
            rel = abs(f_coeff(d, alpha, 0.0) / ref - 1.0)
            worst = max(worst, rel)
    return _check("f-coefficient-identity", worst, tolerance)


def zf_gain_ks_check(m: int = 6, k: int = 2, n: int = 2,
                     samples: int = 20_000, seed: int = 7) -> dict:
    """Constructed ZF stream gain against Gamma(M - KN + 1, 1)."""
    params = NetworkParams(M=m, N=n, K=k)
    report = validate_distribution(
        lambda rng, size: signal_gains(Scheme.ZF_MULTI, params, rng, size),
        lambda x: gammainc(m - k * n + 1, x), samples, seed)
    return _check(f"zf-gain-ks-M{m}-K{k}-N{n}", report.statistic,
                  report.critical_value)


def antsel_ks_check(n: int = 4, samples: int = 50_000, seed: int = 11) -> dict:
    """Antenna-selection signal gain against the max-of-N-exponentials law."""
    params = NetworkParams(N=n)
    report = validate_distribution(
        lambda rng, size: antsel_gain(params, rng, size),
        lambda x: (-np.expm1(-np.asarray(x, dtype=float))) ** n, samples, seed)
    return _check(f"antsel-ks-N{n}", report.statistic, report.critical_value)


def siso_oracle_check(lam: float = 1e-4, trials: int = 100_000,
                      seed: int = 3, params: NetworkParams | None = None) -> dict:
    """MC SISO success probability vs exp(-lam beta^{2/a} D^2 I_1 - eta zeta/rho).

    Passes when the analytic value is within 3 binomial standard errors of
    the estimate.
    """
    p = (params or NetworkParams()).replace(lam=lam, M=1, N=1, K=1)
    delta = 2.0 / p.alpha
    p_suc = math.exp(-lam * p.beta**delta * p.D**2 * interference_coeff(1, p.alpha)
                     - p.zeta * p.eta_over_rho)
    est = estimate_outage(Scheme.SISO_BASELINE, p, trials, seed)
    se = math.sqrt(max(p_suc * (1 - p_suc), 1e-12) / trials)
    residual = abs((1.0 - est.p_hat) - p_suc)
    return _check(f"siso-oracle-lam{lam:g}", residual, 3.0 * se,
                  detail=f"p_suc={p_suc:.6f} mc={1.0 - est.p_hat:.6f}")


def run_all(seed: int = 1) -> list[dict]:
    return [
        gamma_moment_identity_check(),
        f_identity_check(),
        zf_gain_ks_check(seed=seed + 1),
        antsel_ks_check(seed=seed + 2),
        siso_oracle_check(seed=seed + 3),
    ]
