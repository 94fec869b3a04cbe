"""Channel-layer tests: field statistics, precoder algebra, gain laws."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

from sdma_capacity.channel import (
    ORTHOGONALITY_TOL,
    aggregate_interference,
    antsel_gain,
    bd_precoder,
    bd_residual,
    crandn,
    default_window_radius,
    interference_mark,
    sample_field,
    signal_gain,
    sinr_sample,
    zf_precoder,
    zf_residual,
)
from sdma_capacity.network import NetworkParams, Scheme

BASE = NetworkParams()


def ks_ok(data, cdf, level=0.01):
    stat = stats.kstest(data, cdf).statistic
    crit = stats.kstwobign.isf(level) / math.sqrt(len(data))
    return stat < crit, stat, crit


class TestField:
    def test_window_radius_policy(self):
        assert default_window_radius(BASE.replace(lam=1e-6)) == pytest.approx(1e4)
        assert default_window_radius(BASE.replace(lam=1e-2)) == pytest.approx(1000.0)
        assert default_window_radius(BASE.replace(lam=0.0)) == pytest.approx(1000.0)

    def test_empty_field(self):
        fld = sample_field(0.0, 500.0, np.random.default_rng(0))
        assert fld.count == 0
        assert fld.positions.shape == (0, 2)

    def test_count_statistics(self):
        lam, radius = 1e-3, 200.0
        rng = np.random.default_rng(5)
        counts = [sample_field(lam, radius, rng).count for _ in range(4000)]
        mu = lam * math.pi * radius**2
        se = math.sqrt(mu / len(counts))
        assert abs(np.mean(counts) - mu) < 3 * se

    def test_points_inside_disc(self):
        fld = sample_field(1e-3, 300.0, np.random.default_rng(1))
        assert np.all(fld.radii <= 300.0 + 1e-9)

    def test_squared_radius_uniform(self):
        # uniform-on-disc means r^2/R^2 ~ U(0,1)
        rng = np.random.default_rng(2)
        radius = 250.0
        r2 = np.concatenate([
            sample_field(2e-3, radius, rng).radii ** 2 for _ in range(50)
        ]) / radius**2
        res = stats.cramervonmises(r2, "uniform")
        assert res.pvalue > 0.01

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_field(-1.0, 100.0, rng)
        with pytest.raises(ValueError):
            sample_field(1e-4, 0.0, rng)


class TestZfPrecoder:
    def test_single_user_is_matched_filter(self):
        rng = np.random.default_rng(3)
        h = crandn(rng, 1, 4)
        pre = zf_precoder(h)
        assert pre.gains[0] == pytest.approx(float(np.linalg.norm(h) ** 2), rel=1e-12)

    def test_orthogonality_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            stack = crandn(rng, 4, 8)
            pre = zf_precoder(stack)
            assert zf_residual(stack, pre) <= ORTHOGONALITY_TOL

    def test_unit_norm_beamformers(self):
        rng = np.random.default_rng(5)
        pre = zf_precoder(crandn(rng, 3, 6))
        norms = np.linalg.norm(pre.beamformers, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_gain_law(self):
        # stream gain ~ Gamma(M - S + 1, 1); here M = 6, S = 4 -> Gamma(3, 1)
        rng = np.random.default_rng(6)
        gains = np.array([
            zf_precoder(crandn(rng, 4, 6)).gains[0] for _ in range(20_000)
        ])
        ok, stat, crit = ks_ok(gains, lambda x: gammainc(3, x))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_too_many_rows(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            zf_precoder(crandn(rng, 5, 4))

    def test_rank_deficient(self):
        stack = np.ones((2, 4), dtype=complex)
        with pytest.raises(ValueError, match="resample"):
            zf_precoder(stack)


class TestBdPrecoder:
    def test_single_user_keeps_full_channel(self):
        rng = np.random.default_rng(8)
        h = crandn(rng, 2, 4)
        pre = bd_precoder([h])
        assert pre.extras["frob2"][0] == pytest.approx(
            float(np.linalg.norm(h) ** 2), rel=1e-12)

    def test_inter_user_leakage(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            channels = [crandn(rng, 2, 8) for _ in range(2)]
            pre = bd_precoder(channels)
            assert bd_residual(channels, pre) <= ORTHOGONALITY_TOL

    def test_effective_dimensions(self):
        rng = np.random.default_rng(10)
        channels = [crandn(rng, 2, 8) for _ in range(2)]
        pre = bd_precoder(channels)
        assert pre.bd_matrices[0].shape == (8, 6)
        assert pre.effective_channels[0].shape == (2, 6)

    def test_frobenius_gain_law(self):
        # ||G_k||_F^2 ~ Gamma(NM - (K-1)N^2, 1) = Gamma(12) at M=8, N=2, K=2
        rng = np.random.default_rng(11)
        gains = np.array([
            bd_precoder([crandn(rng, 2, 8) for _ in range(2)]).extras["frob2"][0]
            for _ in range(10_000)
        ])
        ok, stat, crit = ks_ok(gains, lambda x: gammainc(12, x))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_mu_max_bounded_by_frobenius(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pre = bd_precoder([crandn(rng, 2, 6) for _ in range(2)])
            assert np.all(pre.extras["mu2_max"] <= pre.extras["frob2"] + 1e-12)

    def test_infeasible(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            bd_precoder([crandn(rng, 2, 3) for _ in range(2)])


class TestSignalGain:
    def test_dpc_siso_mean(self):
        rng = np.random.default_rng(14)
        p = BASE.replace(M=1, N=1, K=1)
        x = np.array([signal_gain(Scheme.DPC_MIMO_UB, p, rng, explicit=True)
                      for _ in range(20_000)])
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) < 3 * se

    def test_explicit_rxzf_law(self):
        # residual after projecting out M-1 = 1 direction: Gamma(N - M + 1) = Gamma(2)
        rng = np.random.default_rng(15)
        p = BASE.replace(M=2, N=3, K=1)
        x = np.array([signal_gain(Scheme.ZF_RXZF, p, rng, explicit=True)
                      for _ in range(15_000)])
        ok, stat, crit = ks_ok(x, lambda t: gammainc(2, t))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_surrogate_antsel_mean(self):
        # E[max of 2 exponentials] = 1.5
        rng = np.random.default_rng(16)
        p = BASE.replace(M=2, N=2, K=2)
        x = np.array([signal_gain(Scheme.ZF_ANTSEL, p, rng) for _ in range(40_000)])
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.5) < 3 * se

    def test_explicit_zf_multi_law(self):
        rng = np.random.default_rng(17)
        p = BASE.replace(M=4, N=1, K=3)
        x = np.array([signal_gain(Scheme.ZF_MULTI, p, rng, explicit=True)
                      for _ in range(15_000)])
        ok, stat, crit = ks_ok(x, lambda t: gammainc(2, t))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_physical_antsel_within_model_brackets(self):
        # selection-then-ZF gain is positive and below the pre-selection norm
        rng = np.random.default_rng(19)
        p = BASE.replace(M=2, N=2, K=2)
        vals = np.array([antsel_gain(p, rng, physical=True) for _ in range(2000)])
        assert np.all(vals > 0)
        assert vals.mean() < 2.0 * p.N  # coarse sanity: below E||h||^2 with margin


class TestInterferenceMark:
    def test_siso_exponential(self):
        rng = np.random.default_rng(20)
        p = BASE.replace(M=1, N=1, K=1)
        x = np.array([interference_mark(Scheme.SISO_BASELINE, p, rng, explicit=True)
                      for _ in range(20_000)])
        ok, stat, crit = ks_ok(x, lambda t: -np.expm1(-np.asarray(t)))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_explicit_dpc_mark_law(self):
        # M orthonormal unit-power beams seen through an iid Gaussian row:
        # total power ~ Gamma(M, 1)
        rng = np.random.default_rng(21)
        p = BASE.replace(M=4, N=1, K=4)
        x = np.array([interference_mark(Scheme.DPC_MISO, p, rng, explicit=True)
                      for _ in range(15_000)])
        ok, stat, crit = ks_ok(x, lambda t: gammainc(4, t))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_explicit_zf_multi_mark_mean(self):
        # KN unit-norm beams: mean aggregate power KN
        rng = np.random.default_rng(22)
        p = BASE.replace(M=4, N=2, K=2)
        x = np.array([interference_mark(Scheme.ZF_MULTI, p, rng, explicit=True)
                      for _ in range(10_000)])
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 4.0) < 3 * se

    def test_explicit_bd_mark_mean(self):
        # K top-eigenmode unit-norm beams: mean aggregate power K
        rng = np.random.default_rng(123)
        p = BASE.replace(M=4, N=2, K=2)
        x = np.array([interference_mark(Scheme.BD_UB, p, rng, explicit=True)
                      for _ in range(20_000)])
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 2.0) < 3 * se

    def test_surrogate_matches_mark_shape(self):
        rng = np.random.default_rng(24)
        p = BASE.replace(M=4, N=2, K=2)
        x = np.array([interference_mark(Scheme.ZF_MULTI, p, rng) for _ in range(30_000)])
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 4.0) < 3 * se


class TestSinr:
    def test_aggregate_empty_field(self):
        fld = sample_field(0.0, 500.0, np.random.default_rng(25))
        assert aggregate_interference(Scheme.SISO_BASELINE, BASE, fld,
                                      np.random.default_rng(25)) == 0.0

    def test_interference_free_noiseless_is_infinite(self):
        p = BASE.replace(lam=0.0, eta=0.0)
        assert math.isinf(sinr_sample(Scheme.SISO_BASELINE, p,
                                      np.random.default_rng(26)))

    def test_noise_only_law(self):
        # lam = 0: SINR = H0 D^-alpha rho / eta with H0 ~ Exp(1)
        p = BASE.replace(lam=0.0, eta=1e-5)
        rng = np.random.default_rng(27)
        vals = np.array([sinr_sample(Scheme.SISO_BASELINE, p, rng)
                         for _ in range(20_000)])
        scaled = vals * p.eta_over_rho * p.D**p.alpha
        ok, stat, crit = ks_ok(scaled, lambda t: -np.expm1(-np.asarray(t)))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_power_scale_invariance_without_noise(self):
        p1 = BASE.replace(rho=1.0)
        p2 = BASE.replace(rho=5.0)
        a = sinr_sample(Scheme.SISO_BASELINE, p1, np.random.default_rng(28))
        b = sinr_sample(Scheme.SISO_BASELINE, p2, np.random.default_rng(28))
        assert a == b

    def test_window_truncation_stable(self):
        # doubling the disc radius moves the outage rate by less than the
        # binomial noise at this sample size
        p = BASE.replace(lam=1e-4)
        base_r = default_window_radius(p)
        n = 4000
        outcomes = []
        for radius in (base_r, 2 * base_r):
            rng = np.random.default_rng(30)
            hits = sum(
                sinr_sample(Scheme.SISO_BASELINE, p, rng, window_radius=radius)
                < p.beta
                for _ in range(n)
            )
            outcomes.append(hits / n)
        se = math.sqrt(outcomes[0] * (1 - outcomes[0]) / n)
        assert abs(outcomes[0] - outcomes[1]) < 4 * se
