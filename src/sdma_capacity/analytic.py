"""Closed-form outage probabilities, contention densities, and ASE.

Density formulas come in three flavors per scheme: small-outage linearized
expressions (exact as epsilon -> 0), large-deviation upper bounds, and a
two-sided sandwich from the exponential chi-square CDF bounds. The exact
success-probability path always attenuates by e^{-s eta/rho}; the bound path
keeps the looser e^{+s eta/rho} factor (see kernels.noise_laplace_bound).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

from scipy.special import gammaincc

from .kernels import (
    f_coeff,
    interference_coeff,
    laplace_field,
    noise_laplace_bound,
    outage_series,
    sandwich_theta,
    weighted_alternating_coeff,
)
from .network import NetworkParams, Scheme


@dataclass(frozen=True)
class DensityResult:
    """Maximum contention density with its derived area spectral efficiency."""

    lambda_eps: float
    ase: float
    method: str
    scheme: Scheme
    noise_limited: bool = False
    lambda_lower: float | None = None
    lambda_upper: float | None = None
    extras: dict = field(default_factory=dict)


def area_spectral_efficiency(params: NetworkParams, lambda_eps: float) -> float:
    """ASE = K * lambda_eps * (1 - epsilon) * log2(1 + beta), bps/Hz/m^2."""
    if lambda_eps < 0:
        raise ValueError(f"lambda_eps must be >= 0, got {lambda_eps}")
    return params.K * lambda_eps * (1.0 - params.epsilon) * math.log2(1.0 + params.beta)


def _result(params: NetworkParams, scheme: Scheme, lam: float, method: str,
            noise_limited: bool = False, **kw) -> DensityResult:
    return DensityResult(
        lambda_eps=lam,
        ase=area_spectral_efficiency(params, lam),
        method=method,
        scheme=scheme,
        noise_limited=noise_limited,
        **kw,
    )


def noise_floor_outage(params: NetworkParams, d: int) -> float:
    """Outage at lam = 0 for a Gamma(d, 1) signal: P(H0 < zeta * eta/rho)."""
    if params.eta == 0.0:
        return 0.0
    return 1.0 - float(gammaincc(d, params.zeta * params.eta_over_rho))


def success_upper_bound(params: NetworkParams, d: int,
                        mark_shape: int | None = None) -> float:
    """Large-deviation upper bound on the success probability.

    L_Y(s) * e^{+s eta/rho} at s = beta D^alpha / (4 d), for a Gamma(d, 1)
    signal; clamped to 1 where the loose noise factor pushes it above.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    m = params.M if mark_shape is None else mark_shape
    s = params.zeta / (4.0 * d)
    value = laplace_field(s, params.lam, params.alpha, m) * noise_laplace_bound(
        s, params.eta, params.rho
    )
    return min(1.0, value)


def outage_bracket(params: NetworkParams, d: int,
                   mark_shape: int | None = None) -> tuple[float, float]:
    """Two-sided bracket on the outage of a Gamma(d, 1)-signal link.

    Lower bound evaluates the outage series at the tightened exponent
    c = (d!)^{-1/d}; upper bound at exponent 1.
    """
    m = params.M if mark_shape is None else mark_shape
    c = sandwich_theta(d)
    lower = outage_series(d, c, params.zeta, params.lam, params.alpha, m,
                          params.eta_over_rho)
    upper = outage_series(d, 1.0, params.zeta, params.lam, params.alpha, m,
                          params.eta_over_rho)
    return lower, upper


def _linearized_density(params: NetworkParams, scheme: Scheme, floor: float,
                        density: Callable[[float], float]) -> DensityResult:
    """Small-outage density from P_out = floor + lam * (first-order term).

    ``floor`` is the outage at lam = 0 and ``density(epsilon - floor)``
    solves the linearized outage for lam. A floor above epsilon is the
    noise-limited regime: the density is clamped to 0 and flagged.
    """
    if floor > params.epsilon:
        return _result(params, scheme, 0.0, "small-eps", noise_limited=True)
    return _result(params, scheme, density(params.epsilon - floor), "small-eps")


def small_eps_density(params: NetworkParams, scheme: Scheme, d: int,
                      mark_shape: int) -> DensityResult:
    """Generic small-outage density for a Gamma(d, 1) signal law.

    lam = (epsilon - P_out|lam=0) * F_d(a) / (I_mark * beta^{2/alpha} * D^2),
    a = zeta eta / rho, P_out|lam=0 = P(Pois(a) >= d) (see kernels.f_coeff).
    """
    delta = 2.0 / params.alpha
    return _linearized_density(
        params, scheme, noise_floor_outage(params, d),
        lambda numer: (f_coeff(d, params.alpha, params.zeta * params.eta_over_rho)
                       * numer
                       / (interference_coeff(mark_shape, params.alpha)
                          * params.beta**delta * params.D**2)))


def density_dpc_mimo(params: NetworkParams, method: str = "small-eps") -> DensityResult:
    """DPC to K = M multi-antenna receivers (chi-square surrogate bound).

    Methods: 'small-eps' (linearized optimal density), 'upper-bound'
    (large-deviation bound), 'sandwich' (two-sided bracket; lambda_eps is
    the upper endpoint).
    """
    scheme = Scheme.DPC_MIMO_UB
    scheme.check_feasible(params)
    d = scheme.signal_dof(params)
    m = scheme.mark_shape(params)
    delta = 2.0 / params.alpha

    if method == "small-eps":
        return small_eps_density(params, scheme, d, m)

    if method == "upper-bound":
        # direct inversion of the large-deviation bound; noise adds with + sign here
        lam = (
            (4.0 * d) ** delta
            / (interference_coeff(m, params.alpha) * params.beta**delta * params.D**2)
            * (-math.log1p(-params.epsilon) + params.eta * params.zeta / (4.0 * d * params.rho))
        )
        return _result(params, scheme, lam, "upper-bound")

    if method == "sandwich":
        lower, upper = density_sandwich(params, d, m)
        nl = upper <= 0.0
        return _result(
            params, scheme, max(upper, 0.0), "sandwich", noise_limited=nl,
            lambda_lower=max(lower, 0.0), lambda_upper=max(upper, 0.0),
        )

    raise ValueError(f"unknown method {method!r}; use small-eps | upper-bound | sandwich")


def density_sandwich(params: NetworkParams, d: int,
                     mark_shape: int) -> tuple[float, float]:
    """Two-sided density bracket from the linearized outage sandwich.

    lower = (eps - (1 - e^{-zeta eta/rho})^d) / (S_{d,1} I_m beta^{2/a} D^2)
    upper = (eps - (1 - e^{-t zeta eta/rho})^d)
            / (t^{2/a} S_{d,t} I_m beta^{2/a} D^2),  t = (d!)^{-1/d}

    Both endpoints are clamped at zero in the noise-limited regime.
    """
    delta = 2.0 / params.alpha
    denom_base = interference_coeff(mark_shape, params.alpha) * params.beta**delta * params.D**2
    zeta_eta = params.zeta * params.eta_over_rho

    floor_1 = (-math.expm1(-zeta_eta)) ** d
    s_1 = weighted_alternating_coeff(d, params.alpha, zeta_eta)
    lower = (params.epsilon - floor_1) / (s_1 * denom_base)

    t = sandwich_theta(d)
    floor_t = (-math.expm1(-t * zeta_eta)) ** d
    s_t = weighted_alternating_coeff(d, params.alpha, t * zeta_eta)
    upper = (params.epsilon - floor_t) / (t**delta * s_t * denom_base)
    return max(lower, 0.0), max(upper, 0.0)


def _gamma_density(params: NetworkParams, scheme: Scheme) -> DensityResult:
    return small_eps_density(params, scheme, scheme.signal_dof(params),
                             scheme.mark_shape(params))


def _gamma_bound_density(params: NetworkParams, scheme: Scheme) -> DensityResult:
    """Block diagonalization: the small-outage formula is an upper bound.

    lam <= (epsilon - P_out|lam=0) * F_r(a) / (I_K beta^{2/alpha} D^2),
    r = NM - (K-1) N^2.
    """
    return dataclasses.replace(_gamma_density(params, scheme), method="upper-bound")


def _exponential_density(params: NetworkParams, scheme: Scheme) -> DensityResult:
    """Exp(1) signal (ZF to single-antenna receivers, SISO): exact root

    lam = [-log(1-eps) - eta beta D^alpha / rho] / (I_m beta^{2/alpha} D^2),
    clamped at 0.
    """
    delta = 2.0 / params.alpha
    numer = -math.log1p(-params.epsilon) - params.zeta * params.eta_over_rho
    lam = numer / (interference_coeff(scheme.mark_shape(params), params.alpha)
                   * params.beta**delta * params.D**2)
    if lam <= 0.0:
        return _result(params, scheme, 0.0, "exact-root", noise_limited=True)
    return _result(params, scheme, lam, "exact-root")


def _order_statistic_density(params: NetworkParams, scheme: Scheme) -> DensityResult:
    """ZF beamforming with receive antenna selection; small-outage density.

    lam = (epsilon - (1 - e^{-a})^N) / (S_N(a) * I_M * beta^{2/alpha} * D^2)
    with a = zeta eta / rho, (1 - e^{-a})^N the outage at lam = 0 and S_N(a)
    the noise-weighted order-statistic coefficient (S_N at eta = 0).
    """
    a = params.zeta * params.eta_over_rho
    delta = 2.0 / params.alpha
    return _linearized_density(
        params, scheme, (-math.expm1(-a)) ** params.N,
        lambda numer: numer / (weighted_alternating_coeff(params.N, params.alpha, a)
                               * interference_coeff(scheme.mark_shape(params), params.alpha)
                               * params.beta**delta * params.D**2))


_DENSITY_ROUTES = {
    "gamma": _gamma_density,
    "gamma-bound": _gamma_bound_density,
    "exponential": _exponential_density,
    "order-statistic": _order_statistic_density,
}


def density_for_scheme(params: NetworkParams, scheme: Scheme,
                       method: str = "small-eps") -> DensityResult:
    """Analytic maximum density and ASE of any scheme.

    The one entry point: runs the closed form named by the scheme's
    ``density_route``. ``method`` (small-eps | upper-bound | sandwich)
    selects among the dpc-mimo-ub formulas; every other scheme has one.
    """
    route = scheme.spec.density_route
    if route == "dpc-mimo":
        return density_dpc_mimo(params, method=method)
    scheme.check_feasible(params)
    return _DENSITY_ROUTES[route](params, scheme)


def scaling_exponent(scheme: Scheme, alpha: float) -> float:
    """Theoretical ASE scaling exponent in the antenna count (M = N sweeps).

    BD is the exponent in N at fixed K with M = KN.
    """
    if alpha <= 2:
        raise ValueError(f"alpha must be > 2, got {alpha}")
    return scheme.spec.exponent(2.0 / alpha)


def exact_outage(scheme: Scheme, params: NetworkParams) -> float:
    """Closed-form outage where the signal law admits one.

    Expressible for signal laws with exponential-mixture CDFs: ZF-MISO and
    the SISO baseline (Exp(1) signal) and antenna selection (max of N unit
    exponentials).
    """
    scheme.check_feasible(params)
    if scheme.spec.density_route not in ("exponential", "order-statistic"):
        raise ValueError(f"scheme {scheme.value} has no closed-form exact outage")
    # P(max of d unit exponentials < x) = (1 - e^{-x})^d; d = 1 is Exp(1)
    return outage_series(scheme.signal_dof(params), 1.0, params.zeta, params.lam,
                         params.alpha, scheme.mark_shape(params), params.eta_over_rho)


def exact_density_root(scheme: Scheme, params: NetworkParams,
                       tolerance: float = 1e-6) -> DensityResult:
    """Numerically invert the exact outage: solve P_out(lam) = epsilon.

    Monotone bisection with an upward-doubling bracket; relative tolerance
    on the root. Supported schemes: ZF-MISO, SISO baseline, ZF-ANTSEL.
    """
    eps = params.epsilon
    if exact_outage(scheme, params.replace(lam=0.0)) > eps:
        return _result(params, scheme, 0.0, "exact-root", noise_limited=True)

    def pout(lam: float) -> float:
        return exact_outage(scheme, params.replace(lam=lam))

    lo, hi = 0.0, 1e-6
    while pout(hi) < eps:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise ArithmeticError("bracket expansion failed: outage never exceeds epsilon")
    while (hi - lo) > tolerance * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if pout(mid) < eps:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return _result(params, scheme, root, "exact-root")
