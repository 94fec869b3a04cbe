"""Kernel tests: each closed-form value is checked against an independent
oracle (quadrature, gamma identities, the exact routes of ``oracles.py``, or
shot-noise Monte Carlo)."""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from sdma_capacity.kernels import (
    GammaFadingLaw,
    beta_fn,
    chi2_cdf_and_bounds,
    f_coeff,
    interference_coeff,
    laplace_field,
    noise_laplace_bound,
    outage_series,
    sandwich_theta,
    weighted_alternating_coeff,
)
from oracles import (
    laplace_success,
    levy_outage,
    noise_laplace,
    sibuya_first_order,
    sibuya_success,
)

RNG = np.random.default_rng(20240817)


def beta_quadrature(a, b):
    val, _ = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0, 1,
                  points=[0, 1], limit=200)
    return val


class TestBetaFn:
    def test_uniform_density(self):
        assert beta_fn(1, 1) == pytest.approx(1.0, rel=1e-14)

    def test_half_half_is_pi(self):
        oracle = beta_quadrature(0.5, 0.5)
        assert oracle == pytest.approx(math.pi, rel=1e-9)
        assert beta_fn(0.5, 0.5) == pytest.approx(oracle, rel=1e-9)

    def test_integer_args(self):
        assert beta_fn(2, 3) == pytest.approx(1 / 12, rel=1e-12)
        assert beta_fn(2, 3) == pytest.approx(beta_quadrature(2, 3), rel=1e-9)

    @pytest.mark.parametrize("a,b", [(0, 1), (-1, 2), (1, 0)])
    def test_domain_errors(self, a, b):
        with pytest.raises(ValueError):
            beta_fn(a, b)


class TestInterferenceCoeff:
    def test_m1_alpha4(self):
        # (2 pi / 4) * B(1/2, 1/2), Beta from quadrature
        oracle = (2 * math.pi / 4) * beta_quadrature(0.5, 0.5)
        assert oracle == pytest.approx(math.pi**2 / 2, rel=1e-9)
        assert interference_coeff(1, 4) == pytest.approx(oracle, rel=1e-9)

    def test_m2_alpha4(self):
        oracle = (2 * math.pi / 4) * (
            beta_quadrature(0.5, 1.5) + 2 * beta_quadrature(1.5, 0.5))
        assert interference_coeff(2, 4) == pytest.approx(oracle, rel=1e-9)
        assert interference_coeff(2, 4) == pytest.approx(3 * math.pi**2 / 4, rel=1e-10)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_m1_closed_form(self, alpha):
        d = 2 / alpha
        ref = math.pi * math.exp(gammaln(1 + d) + gammaln(1 - d))
        assert interference_coeff(1, alpha) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_gamma_moment_identity(self, alpha):
        d = 2 / alpha
        for m in range(1, 65):
            ref = math.pi * math.exp(gammaln(1 - d) + gammaln(m + d) - gammaln(m))
            assert interference_coeff(m, alpha) == pytest.approx(ref, rel=1e-10)

    def test_monotone_in_m(self):
        values = [interference_coeff(m, 3.5) for m in range(1, 20)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_asymptotic_slope(self, alpha):
        ms = [64, 128, 256, 512, 1024]
        logs = np.log([interference_coeff(m, alpha) for m in ms])
        slope = np.polyfit(np.log(ms), logs, 1)[0]
        assert slope == pytest.approx(2 / alpha, abs=0.01)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            interference_coeff(0, 4)
        with pytest.raises(ValueError):
            interference_coeff(2, 2.0)


class TestLaplaceField:
    def test_at_zero(self):
        assert laplace_field(0.0, 1e-3, 4, 2) == 1.0
        assert laplace_field(5.0, 0.0, 4, 2) == 1.0

    def test_unit_exponent_construction(self):
        lam, alpha, m = 2e-4, 4.0, 3
        s = (1.0 / (lam * interference_coeff(m, alpha))) ** (alpha / 2)
        assert laplace_field(s, lam, alpha, m) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_monotone(self):
        vals_s = [laplace_field(s, 1e-4, 4, 1) for s in (1e2, 1e3, 1e4)]
        assert vals_s[0] > vals_s[1] > vals_s[2]
        vals_l = [laplace_field(1e4, lam, 4, 1) for lam in (1e-5, 1e-4, 1e-3)]
        assert vals_l[0] > vals_l[1] > vals_l[2]
        vals_m = [laplace_field(1e4, 1e-4, 4, m) for m in (1, 2, 4)]
        assert vals_m[0] > vals_m[1] > vals_m[2]
        assert all(0 < v <= 1 for v in vals_s + vals_l + vals_m)

    def test_shot_noise_monte_carlo_oracle(self):
        # E[e^{-sY}] over a Poisson disc with Exp(1) marks; the disc-limited
        # reference comes from the exact annulus integral, and the disc
        # truncation is verified negligible against the full-plane formula.
        s, lam, alpha, m = 3e4, 1e-4, 4.0, 1
        radius = 2000.0
        inner, _ = quad(lambda r: (1 - 1 / (1 + s * r**-alpha)) * r, 0, radius,
                        limit=400)
        disc_ref = math.exp(-lam * 2 * math.pi * inner)
        full = laplace_field(s, lam, alpha, m)
        assert abs(disc_ref - full) < 5e-4

        trials, chunk = 100_000, 5_000
        rng = np.random.default_rng(42)
        mu = lam * math.pi * radius**2
        means, count = [], 0
        while count < trials:
            n = min(chunk, trials - count)
            counts = rng.poisson(mu, n)
            total = counts.sum()
            r2 = radius**2 * rng.random(total)
            marks = rng.standard_exponential(total)
            contrib = marks * r2 ** (-alpha / 2)
            y = np.bincount(np.repeat(np.arange(n), counts), weights=contrib,
                            minlength=n)
            means.append(np.exp(-s * y))
            count += n
        vals = np.concatenate(means)
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - disc_ref) < 3 * se


class TestNoiseLaplace:
    def test_trivial(self):
        assert noise_laplace(1e4, 0.0, 1.0) == 1.0
        assert noise_laplace(0.0, 1e-3, 1.0) == 1.0

    def test_exact_path_exponent(self):
        # s = beta D^alpha = 3 * 10^4, eta/rho = 1e-5
        assert noise_laplace(3e4, 1e-5, 1.0) == pytest.approx(math.exp(-0.3), rel=1e-12)

    def test_bound_path_sign(self):
        assert noise_laplace_bound(3e4, 1e-5, 1.0) == pytest.approx(math.exp(0.3), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            noise_laplace(1.0, 0.1, 0.0)


class TestFCoeff:
    def test_d1(self):
        for alpha in (2.5, 3, 4, 6):
            assert f_coeff(1, alpha, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_d2_alpha4(self):
        assert f_coeff(2, 4, 0.0) == pytest.approx(2.0, rel=1e-12)
        ref = math.exp(gammaln(0.5) + gammaln(2) - gammaln(1.5))
        assert f_coeff(2, 4, 0.0) == pytest.approx(ref, rel=1e-12)

    def test_d16_alpha4(self):
        ref = math.exp(gammaln(0.5) + gammaln(16) - gammaln(15.5))
        assert f_coeff(16, 4, 0.0) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_eta_zero_identity(self, alpha):
        d2 = 2 / alpha
        for d in range(1, 33):
            ref = math.exp(gammaln(1 - d2) + gammaln(d) - gammaln(d - d2))
            assert f_coeff(d, alpha, 0.0) == pytest.approx(ref, rel=1e-9)

    def test_growth_slope(self):
        ds = [64, 128, 256, 512, 1024]
        for alpha in (3.0, 4.0):
            logs = np.log([f_coeff(d, alpha, 0.0) for d in ds])
            slope = np.polyfit(np.log(ds), logs, 1)[0]
            assert slope == pytest.approx(2 / alpha, abs=0.02)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    @pytest.mark.parametrize("d", [1, 4, 16, 64, 1024])
    @pytest.mark.parametrize("a", [0.0, 0.03, 0.3, 3.0])
    def test_is_first_order_term_of_exact_outage(self, d, a, alpha):
        # 1/F_d(a) = -dP_s/dA at A = 0, P_s the exact Gamma(d)-signal success
        # probability from the compound Poisson-Sibuya recursion
        ref = sibuya_first_order(d, a, 2 / alpha)
        assert 1.0 / f_coeff(d, alpha, a) == pytest.approx(ref, rel=1e-9)

    def test_oracle_recursion_matches_laplace_derivatives(self):
        # the recursion behind the oracle above, against the derivative sum
        # of the Laplace transform exp(-a t - A t^delta) at t = 1
        for d in (1, 2, 4, 8):
            for a in (0.0, 0.3, 3.0):
                for A in (0.01, 0.5):
                    for delta in (0.5, 2 / 3):
                        assert float(sibuya_success(d, a, A, delta)) == pytest.approx(
                            laplace_success(d, a, A, delta), rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.03, 3.0, 1000.0])
    def test_large_d_finite_positive_and_fast(self, a):
        # O(d): best of three calls at d = 4096, so a busy machine does not
        # decide the verdict
        times = []
        for _ in range(3):
            start = time.perf_counter()
            value = f_coeff(4096, 4.0, a)
            times.append(time.perf_counter() - start)
        assert math.isfinite(value) and value > 0
        assert min(times) <= 0.010


class TestChi2Bounds:
    def test_d1_collapse(self):
        for x in (0.3, 1.0, 5.0):
            exact, lower, upper = chi2_cdf_and_bounds(1, x)
            assert exact == pytest.approx(1 - math.exp(-x), rel=1e-12)
            assert lower == pytest.approx(exact, rel=1e-12)
            assert upper == pytest.approx(exact, rel=1e-12)

    def test_at_zero(self):
        assert chi2_cdf_and_bounds(4, 0.0) == (0.0, 0.0, 0.0)

    def test_d4_quadrature_oracle(self):
        oracle, _ = quad(lambda t: t**3 * math.exp(-t) / 6.0, 0, 4)
        exact, lower, upper = chi2_cdf_and_bounds(4, 4.0)
        assert exact == pytest.approx(oracle, rel=1e-9)
        assert lower <= exact <= upper

    def test_sandwich_grid(self):
        for d in range(1, 17):
            for x in np.linspace(0.05, 4 * d, 25):
                exact, lower, upper = chi2_cdf_and_bounds(d, float(x))
                assert lower <= exact + 1e-12
                assert exact <= upper + 1e-12


class TestOrderStatCoeff:
    def test_n1(self):
        assert weighted_alternating_coeff(1, 4, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_n2_alpha4(self):
        assert weighted_alternating_coeff(2, 4, 0.0) == pytest.approx(
            2 - math.sqrt(2), rel=1e-12)

    def test_moment_oracle(self):
        # E[max(E1, E2)^{-1/2}] / Gamma(1/2) over 10^6 samples
        samples = RNG.standard_exponential((1_000_000, 2)).max(axis=1)
        moments = samples**-0.5
        est = moments.mean() / math.gamma(0.5)
        se = moments.std(ddof=1) / math.sqrt(moments.size) / math.gamma(0.5)
        assert abs(weighted_alternating_coeff(2, 4, 0.0) - est) < 3 * se

    def test_monotone_decreasing(self):
        vals = [weighted_alternating_coeff(n, 4, 0.0) for n in range(1, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_quadrature_fallback_matches_series(self):
        # d = 64 is above the direct-summation limit; compare with an exact
        # high-precision alternating sum
        for alpha in (3.0, 4.0):
            with mpmath.workdps(80):
                d2 = mpmath.mpf(2) / alpha
                ref = float(mpmath.nsum(
                    lambda n: mpmath.binomial(64, n) * (-1) ** (n + 1) * n**d2,
                    [1, 64]))
            assert weighted_alternating_coeff(64, alpha, 0.0) == pytest.approx(
                ref, rel=1e-8)

    def test_weighted_reduces_to_plain(self):
        # at a = 0 the weights drop out: the plain sum C(n, k) (-1)^{k+1} k^{1/2}
        for n in (2, 5, 9):
            plain = math.fsum(math.comb(n, k) * (-1) ** (k + 1) * k**0.5
                              for k in range(1, n + 1))
            assert weighted_alternating_coeff(n, 4, 0.0) == pytest.approx(
                plain, rel=1e-13)


class TestOutageSeries:
    def test_rayleigh_case(self):
        lam, alpha, m = 1e-4, 4.0, 1
        zeta = 3e4
        expected = 1 - laplace_field(zeta, lam, alpha, m)
        assert outage_series(1, 1.0, zeta, lam, alpha, m) == pytest.approx(
            expected, rel=1e-12)

    def test_shot_noise_oracle_d4(self):
        # E[(1 - e^{-theta zeta (Y + eta/rho)})^4] by direct simulation
        d, alpha, m = 4, 4.0, 1
        theta = sandwich_theta(d)
        assert theta == pytest.approx(24 ** -0.25, rel=1e-12)
        zeta, lam, eta_over_rho = 3e4, 1e-5, 1e-6
        radius = 3000.0
        rng = np.random.default_rng(7)
        trials = 100_000
        mu = lam * math.pi * radius**2
        counts = rng.poisson(mu, trials)
        total = counts.sum()
        r2 = radius**2 * rng.random(total)
        marks = rng.standard_exponential(total)
        y = np.bincount(np.repeat(np.arange(trials), counts),
                        weights=marks * r2 ** (-alpha / 2), minlength=trials)
        vals = (-np.expm1(-theta * zeta * (y + eta_over_rho))) ** d
        se = vals.std(ddof=1) / math.sqrt(trials)
        got = outage_series(d, theta, zeta, lam, alpha, m, eta_over_rho)
        assert abs(got - vals.mean()) < 3 * se

    @pytest.mark.parametrize("eta_over_rho", [0.0, 1e-5])
    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("d", [49, 64, 100])
    def test_large_d_matches_levy_integral(self, d, tight, eta_over_rho):
        # above d = 40 the series runs in mpmath; at alpha = 4 the shot noise
        # is Levy, so the outage is also a one-dimensional integral
        lam, alpha, m, zeta = 1e-3, 4.0, 4, 3e4
        theta = sandwich_theta(d) if tight else 1.0
        ref = levy_outage(d, theta, zeta, lam, interference_coeff(m, alpha), eta_over_rho)
        got = outage_series(d, theta, zeta, lam, alpha, m, eta_over_rho)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_high_precision_path_continuity(self):
        # d = 41 routes through mpmath; compare against d <= 40 behavior by
        # an independent high-precision expansion
        lam, alpha, m, zeta = 1e-6, 4.0, 2, 3e4
        with mpmath.workdps(80):
            coeff = interference_coeff(m, alpha)
            ref = float(mpmath.nsum(
                lambda k: mpmath.binomial(41, k) * (-1) ** k
                * mpmath.e ** (-lam * (k * zeta) ** mpmath.mpf("0.5") * coeff),
                [0, 41]))
        assert outage_series(41, 1.0, zeta, lam, alpha, m) == pytest.approx(
            ref, rel=1e-9, abs=1e-12)


class TestGammaFadingLaw:
    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            GammaFadingLaw(0)

    @pytest.mark.parametrize("d", [1, 4])
    def test_sample_mean(self, d):
        law = GammaFadingLaw(d)
        x = law.sample(np.random.default_rng(d), 100_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - d) < 3 * se
