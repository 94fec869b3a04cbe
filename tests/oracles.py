"""Exact reference routes for the tests; none of them is used by the package.

With a = zeta eta / rho, A = lam I_m zeta^delta and delta = 2/alpha, the
success probability of a Gamma(d, 1) signal against shot noise plus noise is

    P_s = sum_{k<d} (-1)^k / k! d^k/dt^k exp(-a t - A t^delta) |_{t=1}.

Read as a probability, P_s = P(Z <= d - 1), where Z is a Poisson(a) count
plus a Poisson(A) sum of Sibuya(delta) jumps (Hunter, Andrews & Weber,
IEEE T-WC 2008; Sibuya, Ann. Inst. Stat. Math. 1979). Three routes:

- ``sibuya_success``: the compound-Poisson recursion for that count,
  P_s = e^{-a-A} sum_{k<d} p_k, p_0 = 1, p_k = (1/k) sum_{i=1..k} i q_i p_{k-i},
  q_i = A P(J = i), plus a on q_1. Every term is positive; O(d^2).
- ``laplace_success``: the derivative sum above, differentiated numerically
  in mpmath; for d <= 8.
- ``levy_outage``: at alpha = 4 the shot noise Y is Levy,
  P(Y <= y) = erfc(c / (2 sqrt y)) with c = lam I_m, so for a signal CDF
  (1 - e^{-vartheta x})^d the outage E[(1 - e^{-vartheta zeta (Y + eta/rho)})^d]
  is a one-dimensional integral with a Gaussian weight.

``noise_laplace`` is the noise factor e^{-s eta/rho} of the success
probability at Laplace argument s.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import brentq


def sibuya_pmf(n: int, delta: float) -> np.ndarray:
    """P(J = i) for i = 0..n-1: J ~ Sibuya(delta), so P(J = 0) = 0."""
    w = np.zeros(n)
    if n > 1:
        w[1] = delta
    for i in range(2, n):
        w[i] = w[i - 1] * (i - 1 - delta) / i
    return w


def sibuya_success(d: int, a: float, A, delta: float):
    """Exact success probability P(Z <= d - 1) by the compound-Poisson recursion.

    ``A`` may be complex, for a complex-step derivative.
    """
    q = A * sibuya_pmf(d, delta)
    if d > 1:
        q[1] += a
    iq = np.arange(d) * q
    p = np.zeros(d, dtype=iq.dtype)
    p[0] = 1.0
    for k in range(1, d):
        p[k] = np.dot(iq[1:k + 1], p[k - 1::-1]) / k
    return np.exp(-a - A) * p.sum()


def sibuya_first_order(d: int, a: float, delta: float, h: float = 1e-20) -> float:
    """-dP_s/dA at A = 0, by a complex step of the recursion (no cancellation in h)."""
    return -float(np.imag(sibuya_success(d, a, 1j * h, delta))) / h


def sibuya_outage_root(d: int, a: float, delta: float, eps: float) -> float:
    """The A at which the exact outage 1 - P_s equals ``eps`` (needs P_s(A=0) > 1 - eps)."""
    def excess(A):
        return 1.0 - float(sibuya_success(d, a, A, delta)) - eps

    hi = eps
    while excess(hi) < 0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=1e-15, rtol=1e-13)


def laplace_success(d: int, a: float, A: float, delta: float, dps: int = 40) -> float:
    """P_s from the derivatives of the Laplace transform exp(-a t - A t^delta) at t = 1."""
    with mpmath.workdps(dps):
        def transform(t):
            return mpmath.exp(-a * t - A * t ** mpmath.mpf(delta))

        total = mpmath.fsum((-1) ** k / mpmath.factorial(k) * mpmath.diff(transform, 1, k)
                            for k in range(d))
        return float(total)


def poisson_tail(d: int, a: float, dps: int = 40) -> float:
    """P(Pois(a) >= d), summed directly in mpmath."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(a)
        return float(1 - mpmath.exp(-a) * mpmath.fsum(a**i / mpmath.factorial(i)
                                                      for i in range(d)))


def levy_outage(d: int, vartheta: float, zeta: float, lam: float, mark_coeff: float,
                eta_over_rho: float = 0.0, dps: int = 30) -> float:
    """E[(1 - e^{-vartheta zeta (Y + eta/rho)})^d] for Levy Y at alpha = 4.

    ``mark_coeff`` is I_m at alpha = 4. Y has the law of c^2 / (4 T^2) with
    c = lam I_m and T of density (2/sqrt(pi)) e^{-t^2} on t > 0, since
    P(c^2 / (4 T^2) <= y) = P(T >= c / (2 sqrt y)) = erfc(c / (2 sqrt y)).
    """
    with mpmath.workdps(dps):
        rate = mpmath.mpf(vartheta) * zeta
        c2_over_4 = (mpmath.mpf(lam) * mark_coeff) ** 2 / 4
        noise = mpmath.mpf(eta_over_rho)

        def integrand(t):
            x = rate * (c2_over_4 / t**2 + noise)
            return 2 / mpmath.sqrt(mpmath.pi) * mpmath.exp(-t**2) * (-mpmath.expm1(-x)) ** d

        # the signal factor turns over where rate * c2_over_4 / t^2 ~ log(d + 1)
        knee = mpmath.sqrt(rate * c2_over_4 / math.log(d + 1))
        return float(mpmath.quad(integrand, [0, knee / 4, knee, 4 * knee, mpmath.inf]))


def noise_laplace(s: float, eta: float, rho: float) -> float:
    """Noise attenuation factor e^{-s*eta/rho} of the exact success path."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if s < 0 or eta < 0:
        raise ValueError("s and eta must be >= 0")
    return math.exp(-s * eta / rho)
