"""Special functions and closed-form coefficient families.

Everything here is a pure function of its arguments. Gamma/Beta factors are
evaluated through log-gamma so that shapes up to ~1024 stay in range, and the
alternating sums are computed with compensated summation (math.fsum) with a
quadrature or high-precision fallback above ``_SERIES_LIMIT`` terms, where
binomial cancellation destroys double precision.

Convention: a "chi-square with 2d degrees of freedom" variate is the sum of d
independent unit-mean exponentials, i.e. Gamma(shape d, scale 1), mean d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

# Largest d for which the alternating binomial sums are evaluated directly in
# double precision; beyond this the integral/high-precision fallbacks kick in.
_SERIES_LIMIT = 40


@dataclass(frozen=True)
class GammaFadingLaw:
    """Fading law Gamma(d, 1): sum of d independent unit-mean exponentials."""

    dof_pairs: int

    def __post_init__(self) -> None:
        if self.dof_pairs < 1:
            raise ValueError(f"dof_pairs must be >= 1, got {self.dof_pairs}")

    @property
    def mean(self) -> float:
        return float(self.dof_pairs)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return rng.gamma(self.dof_pairs, 1.0, size=size)

    def cdf(self, x) -> np.ndarray:
        return gammainc(self.dof_pairs, np.asarray(x, dtype=float))


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) via log-gamma."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta_fn requires positive arguments, got a={a}, b={b}")
    return math.exp(gammaln(a) + gammaln(b) - gammaln(a + b))


@lru_cache(maxsize=4096)
def interference_coeff(M: int, alpha: float) -> float:
    """Interference coefficient I_M for Gamma(M, 1) marks.

    I_M = (2*pi/alpha) * sum_{m=0}^{M-1} C(M, m) B(m + 2/alpha, M - m - 2/alpha),
    the constant such that the shot-noise Laplace transform is
    exp(-lam * s^(2/alpha) * I_M). Strictly increasing in M for fixed alpha.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if alpha <= 2:
        raise ValueError(f"alpha must be > 2 (shot-noise integral diverges), got {alpha}")
    delta = 2.0 / alpha
    terms = []
    lgM1 = gammaln(M + 1)
    lgM = gammaln(M)
    for m in range(M):
        # log of C(M, m) * B(m + delta, M - m - delta); every factor positive
        log_t = (
            lgM1
            - gammaln(m + 1)
            - gammaln(M - m + 1)
            + gammaln(m + delta)
            + gammaln(M - m - delta)
            - lgM
        )
        terms.append(math.exp(log_t))
    return (2.0 * math.pi / alpha) * math.fsum(terms)


def laplace_field(s: float, lam: float, alpha: float, M: int) -> float:
    """Laplace transform of the aggregate shot-noise interference.

    L_Y(s) = exp(-lam * s^(2/alpha) * I_M) for a Poisson field of intensity
    ``lam`` with Gamma(M, 1) marks and pathloss exponent ``alpha``.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if s == 0.0 or lam == 0.0:
        return 1.0
    return math.exp(-lam * s ** (2.0 / alpha) * interference_coeff(M, alpha))


def noise_laplace_bound(s: float, eta: float, rho: float) -> float:
    """Noise factor e^{+s*eta/rho} used on the large-deviation bound path.

    The bound path carries the noise term with a positive exponent (the
    bound gets looser, never invalid); the exact success probability has
    the factor e^{-s*eta/rho}.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if s < 0 or eta < 0:
        raise ValueError("s and eta must be >= 0")
    return math.exp(s * eta / rho)


def f_coeff(d: int, alpha: float, a: float = 0.0) -> float:
    """Small-outage density coefficient F_d(a) = 1 / c(a), a = zeta eta / rho.

    The outage of a Gamma(d, 1) signal against shot noise plus noise is
    P(Z >= d), Z a Poisson(a) count plus a Poisson(A) sum of Sibuya(delta)
    jumps J, with A = lam I_m zeta^delta and delta = 2/alpha. Its first-order
    coefficient in A is

        c(a) = P(Pois(a) < d <= Pois(a) + J)
             = e^{-a} sum_{i<d} a^i/i! P(J >= d - i),
        P(J >= n) = prod_{m=1}^{n-1} (m - delta)/m,

    positive for every a, so P_out = P(Pois(a) >= d) + A c(a) + O(A^2).
    At a = 0 it is Gamma(1-2/alpha) Gamma(d) / Gamma(d-2/alpha) and grows
    like d^(2/alpha). O(d); the Poisson weights are taken in log space, and
    a = 0 keeps the telescoped sum of c_j = (1/j!) prod_{m<j} (m - delta).
    Raises OverflowError where F_d leaves the float range (a >> d).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if alpha <= 2:
        raise ValueError(f"alpha must be > 2, got {alpha}")
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    delta = 2.0 / alpha
    if a == 0.0:
        # c_0 = 1, recurrence is stable (|c_j| decays like j^-(1+delta))
        c = [1.0]
        for j in range(1, d):
            c.append(c[-1] * (j - 1 - delta) / j)
        total = math.fsum(c)
        if total <= 0:
            raise ArithmeticError(f"F-coefficient sum non-positive at d={d}, alpha={alpha}")
        return 1.0 / total
    # tail[n - 1] = P(J >= n), n = 1..d; every factor lies in (0, 1)
    tail = [1.0]
    for m in range(1, d):
        tail.append(tail[-1] * (m - delta) / m)
    log_a = math.log(a)
    log_w = [i * log_a - math.lgamma(i + 1) for i in range(d)]
    top = max(log_w)
    total = math.fsum(math.exp(w - top) * tail[d - 1 - i] for i, w in enumerate(log_w))
    return math.exp(a - top - math.log(total))


def chi2_cdf_and_bounds(d: int, x: float) -> tuple[float, float, float]:
    """Gamma(d, 1) CDF together with its exponential sandwich.

    Returns (exact, lower, upper) with
        exact = P(d, x)                (regularized lower incomplete gamma)
        lower = (1 - e^{-c x})^d,  c = (d!)^{-1/d}
        upper = (1 - e^{-x})^d
    satisfying lower <= exact <= upper for d >= 1.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    exact = float(gammainc(d, x))
    c = math.exp(-gammaln(d + 1) / d)
    lower = (-math.expm1(-c * x)) ** d
    upper = (-math.expm1(-x)) ** d
    return exact, lower, upper


def weighted_alternating_coeff(d: int, alpha: float, a: float) -> float:
    """Exponentially weighted alternating coefficient

        S = sum_{n=1}^{d} C(d, n) (-1)^{n+1} n^{2/alpha} e^{-n a},  a >= 0.

    The small-density linear coefficient of the outage series. At a = 0 it
    is the antenna-selection coefficient S_d = E[H_max^{-2/alpha}] /
    Gamma(1 - 2/alpha), H_max the max of d unit exponentials, decreasing in
    d (the selection gain grows).

    Direct compensated summation up to d = 40; beyond that the equivalent
    integral

        S = (1/Gamma(1-delta)) * int_0^inf t^{-delta} d e^{-(t+a)}
            (1 - e^{-(t+a)})^{d-1} dt,  delta = 2/alpha

    is used (the binomial sum cancels catastrophically for large d).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if alpha <= 2:
        raise ValueError(f"alpha must be > 2, got {alpha}")
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    delta = 2.0 / alpha
    if d <= _SERIES_LIMIT:
        terms = [
            math.comb(d, n) * (-1) ** (n + 1) * n**delta * math.exp(-n * a)
            for n in range(1, d + 1)
        ]
        return math.fsum(terms)

    def integrand(t: float) -> float:
        u = t + a
        if u > 700.0:
            return 0.0
        return t ** (-delta) * d * math.exp(-u) * (-math.expm1(-u)) ** (d - 1)

    # Integrand peaks near log(d); the t^-delta endpoint singularity is
    # integrable and suppressed by (1 - e^-u)^(d-1) for large d.
    peak = math.log(d) + 1.0
    v1, _ = quad(integrand, 0.0, peak, limit=200)
    v2, _ = quad(integrand, peak, np.inf, limit=200)
    return (v1 + v2) / math.exp(gammaln(1.0 - delta))


def outage_series(
    d: int,
    vartheta: float,
    zeta: float,
    lam: float,
    alpha: float,
    mark_shape: int,
    eta_over_rho: float = 0.0,
) -> float:
    """Outage probability for a signal with CDF (1 - e^{-vartheta x})^d.

    Evaluates E[(1 - e^{-vartheta zeta (Y + eta/rho)})^d] by binomial
    expansion over the exact shot-noise Laplace transform:

        P_out = sum_{k=0}^{d} C(d, k) (-1)^k e^{-k vartheta zeta eta/rho}
                L_Y(k vartheta zeta)

    With vartheta = 1 this upper-bounds the Gamma(d, 1)-signal outage; with
    vartheta = (d!)^{-1/d} it lower-bounds it. High-precision arithmetic is
    used above d = 40 where the alternating sum cancels catastrophically.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if vartheta <= 0 or zeta <= 0:
        raise ValueError("vartheta and zeta must be > 0")
    if d <= _SERIES_LIMIT:
        terms = [
            math.comb(d, k)
            * (-1) ** k
            * math.exp(-k * vartheta * zeta * eta_over_rho)
            * laplace_field(k * vartheta * zeta, lam, alpha, mark_shape)
            for k in range(d + 1)
        ]
        return min(1.0, max(0.0, math.fsum(terms)))
    delta = 2.0 / alpha
    with mpmath.workdps(40 + d // 2):
        # every per-k factor is formed in mpf: a float rounding of k*vartheta*zeta
        # or of its noise product is amplified by the ~C(d, d/2) cancellation
        step = mpmath.mpf(vartheta) * zeta
        noise = mpmath.mpf(eta_over_rho)
        scale = mpmath.mpf(lam) * interference_coeff(mark_shape, alpha)
        total = mpmath.mpf(0)
        for k in range(d + 1):
            arg = k * step
            total += (mpmath.binomial(d, k) * (-1) ** k
                      * mpmath.exp(-arg * noise - scale * arg**delta))
        return min(1.0, max(0.0, float(total)))


def sandwich_theta(d: int) -> float:
    """Tightening constant (d!)^{-1/d} of the chi-square CDF lower bound."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return math.exp(-gammaln(d + 1) / d)
