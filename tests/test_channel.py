"""Channel-layer tests: precoder algebra, gain and mark laws, SINR samples."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

from sdma_capacity import channel
from sdma_capacity.channel import (
    ORTHOGONALITY_TOL,
    antsel_gain,
    bd_beams,
    bd_blocks,
    bd_precoder,
    bd_residual,
    crandn,
    default_window_radius,
    interference_marks,
    signal_gains,
    sinr_samples,
    zf_beams,
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
        gains = zf_beams(crandn(rng, 20_000, 4, 6))[1][:, 0]
        ok, stat, crit = ks_ok(gains, lambda x: gammainc(3, x))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    @pytest.mark.parametrize("s_count,m", [(4, 4), (2, 4), (4, 8), (1, 3)])
    def test_stacked_beams_match_per_matrix_pinv(self, s_count, m):
        # reference: one pinv per matrix, columns normalized
        stack = crandn(np.random.default_rng(31), 200, s_count, m)
        beams, gains = zf_beams(stack)
        for h, w, g in zip(stack, beams, gains):
            raw = np.linalg.pinv(h)
            norms = np.linalg.norm(raw, axis=0)
            assert np.allclose(w, raw / norms, rtol=0, atol=1e-12)
            assert np.allclose(g, 1.0 / norms**2, rtol=1e-12, atol=0)

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
        _, g = bd_blocks(crandn(rng, 10_000, 2, 2, 8))
        gains = np.sum(np.abs(g[:, 0]) ** 2, axis=(-2, -1))
        ok, stat, crit = ks_ok(gains, lambda x: gammainc(12, x))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_mu_max_bounded_by_frobenius(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pre = bd_precoder([crandn(rng, 2, 6) for _ in range(2)])
            assert np.all(pre.extras["mu2_max"] <= pre.extras["frob2"] + 1e-12)

    @pytest.mark.parametrize("k,n,m", [(2, 2, 4), (3, 2, 8), (1, 2, 4), (2, 1, 3)])
    def test_stacked_beams_match_per_user_svd(self, k, n, m):
        # reference: SVD null basis of the other users' rows, then the top
        # right-singular vector of G_k; beams agree up to a phase, so compare
        # the power each one delivers to a common receive row
        rng = np.random.default_rng(32)
        channels = crandn(rng, 100, k, n, m)
        rows = crandn(rng, 100, 1, m)
        power = np.abs(rows @ bd_beams(channels))[:, 0] ** 2
        for chans, row, got in zip(channels, rows[:, 0], power):
            for u in range(k):
                others = np.delete(chans, u, axis=0).reshape(-1, m)
                w = np.linalg.svd(others)[2][others.shape[0]:].conj().T if k > 1 \
                    else np.eye(m)
                beam = w @ np.linalg.svd(chans[u] @ w)[2][0].conj()
                assert abs(row @ beam) ** 2 == pytest.approx(got[u], rel=1e-9, abs=1e-12)

    def test_infeasible(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            bd_precoder([crandn(rng, 2, 3) for _ in range(2)])


class TestSignalGain:
    def test_dpc_siso_mean(self):
        rng = np.random.default_rng(14)
        p = BASE.replace(M=1, N=1, K=1)
        x = signal_gains(Scheme.DPC_MIMO_UB, p, rng, 20_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) < 3 * se

    def test_explicit_rxzf_law(self):
        # residual after projecting out M-1 = 1 direction: Gamma(N - M + 1) = Gamma(2)
        rng = np.random.default_rng(15)
        p = BASE.replace(M=2, N=3, K=1)
        x = signal_gains(Scheme.ZF_RXZF, p, rng, 15_000)
        ok, stat, crit = ks_ok(x, lambda t: gammainc(2, t))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_surrogate_antsel_mean(self):
        # E[max of 2 exponentials] = 1.5
        rng = np.random.default_rng(16)
        p = BASE.replace(M=2, N=2, K=2)
        x = antsel_gain(p, rng, 40_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.5) < 3 * se

    def test_explicit_zf_multi_law(self):
        rng = np.random.default_rng(17)
        p = BASE.replace(M=4, N=1, K=3)
        x = signal_gains(Scheme.ZF_MULTI, p, rng, 15_000)
        ok, stat, crit = ks_ok(x, lambda t: gammainc(2, t))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    @pytest.mark.parametrize("scheme,m,n,k", [
        (Scheme.DPC_MIMO_UB, 2, 3, 2), (Scheme.DPC_MISO, 3, 1, 3),
        (Scheme.ZF_MULTI, 6, 2, 2), (Scheme.ZF_RXZF, 1, 3, 1),
        (Scheme.ZF_MISO, 4, 1, 4), (Scheme.BD_UB, 4, 2, 2),
        (Scheme.BD_UB, 5, 1, 1), (Scheme.SISO_BASELINE, 1, 1, 1),
    ])
    def test_constructed_gain_is_scheme_gamma_law(self, scheme, m, n, k):
        # every Gamma-signal scheme's constructed H0 ~ Gamma(signal_dof, 1)
        p = BASE.replace(M=m, N=n, K=k)
        x = signal_gains(scheme, p, np.random.default_rng(18), 20_000)
        dof = scheme.signal_dof(p)
        ok, stat, crit = ks_ok(x, lambda t: gammainc(dof, t))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_physical_antsel_within_model_brackets(self):
        # selection-then-ZF gain is positive and below the pre-selection norm
        rng = np.random.default_rng(19)
        p = BASE.replace(M=2, N=2, K=2)
        vals = antsel_gain(p, rng, 2000, physical=True)
        assert np.all(vals > 0)
        assert vals.mean() < 2.0 * p.N  # coarse sanity: below E||h||^2 with margin


class TestInterferenceMark:
    def test_siso_exponential(self):
        rng = np.random.default_rng(20)
        p = BASE.replace(M=1, N=1, K=1)
        x = interference_marks(Scheme.SISO_BASELINE, p, rng, 20_000)
        ok, stat, crit = ks_ok(x, lambda t: -np.expm1(-np.asarray(t)))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_explicit_dpc_mark_law(self):
        # M orthonormal unit-power beams seen through an iid Gaussian row:
        # total power ~ Gamma(M, 1)
        rng = np.random.default_rng(21)
        p = BASE.replace(M=4, N=1, K=4)
        x = interference_marks(Scheme.DPC_MISO, p, rng, 15_000)
        ok, stat, crit = ks_ok(x, lambda t: gammainc(4, t))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_explicit_zf_multi_mark_mean(self):
        # KN unit-norm beams: mean aggregate power KN
        rng = np.random.default_rng(22)
        p = BASE.replace(M=4, N=2, K=2)
        x = interference_marks(Scheme.ZF_MULTI, p, rng, 10_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 4.0) < 3 * se

    def test_explicit_bd_mark_mean(self):
        # K top-eigenmode unit-norm beams: mean aggregate power K
        rng = np.random.default_rng(123)
        p = BASE.replace(M=4, N=2, K=2)
        x = interference_marks(Scheme.BD_UB, p, rng, 20_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 2.0) < 3 * se

    def test_zf_miso_mark_is_not_gamma(self):
        # unit-norm ZF columns are not orthogonal: the mark has mean M but
        # extra variance sum_{s != t} |w_s^H w_t|^2 (about 9.8 at M = 4,
        # against Gamma(4)'s 4)
        rng = np.random.default_rng(33)
        p = BASE.replace(M=4, N=1, K=4)
        x = interference_marks(Scheme.ZF_MISO, p, rng, 20_000)
        assert x.var(ddof=1) > 8.0

    def test_zf_antsel_mark_uses_zf_beams(self):
        # the M selected rows are zero-forced: mean M, variance well above
        # the orthonormal frame's M (its sample variance has SE 0.05 here)
        rng = np.random.default_rng(34)
        p = BASE.replace(M=4, N=4, K=4)
        x = interference_marks(Scheme.ZF_ANTSEL, p, rng, 20_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 4.0) < 3 * se
        assert x.var(ddof=1) > 1.5 * 4.0


class TestSinr:
    def test_interference_free_noiseless_is_infinite(self):
        p = BASE.replace(lam=0.0, eta=0.0)
        assert np.all(np.isinf(sinr_samples(Scheme.SISO_BASELINE, p,
                                            np.random.default_rng(26), 100)))

    def test_noise_only_law(self):
        # lam = 0: SINR = H0 D^-alpha rho / eta with H0 ~ Exp(1)
        p = BASE.replace(lam=0.0, eta=1e-5)
        rng = np.random.default_rng(27)
        vals = sinr_samples(Scheme.SISO_BASELINE, p, rng, 20_000)
        scaled = vals * p.eta_over_rho * p.D**p.alpha
        ok, stat, crit = ks_ok(scaled, lambda t: -np.expm1(-np.asarray(t)))
        assert ok, f"KS stat {stat:.4f} >= {crit:.4f}"

    def test_power_scale_invariance_without_noise(self):
        p1 = BASE.replace(rho=1.0)
        p2 = BASE.replace(rho=5.0)
        a = sinr_samples(Scheme.SISO_BASELINE, p1, np.random.default_rng(28), 100)
        b = sinr_samples(Scheme.SISO_BASELINE, p2, np.random.default_rng(28), 100)
        assert np.array_equal(a, b)

    def test_blocked_shot_noise_matches_per_trial_reference(self, monkeypatch):
        # blocks of 7 points split trials; the reference replays the same
        # draws (Poisson counts, H0, then radii and marks block by block)
        # and gives each point to its trial by np.repeat
        monkeypatch.setattr(channel, "BLOCK_POINTS", 7)
        p = BASE.replace(eta=1e-6)
        n, radius = 50, default_window_radius(p)
        rng = np.random.default_rng(29)
        counts = rng.poisson(p.lam * math.pi * radius**2, size=n)
        h0 = signal_gains(Scheme.SISO_BASELINE, p, rng, n)
        owner = np.repeat(np.arange(n), counts)
        shot = np.full(n, p.eta_over_rho)
        for start in range(0, owner.size, 7):
            size = min(7, owner.size - start)
            contrib = (radius**2 * rng.random(size)) ** (-p.alpha / 2.0)
            contrib *= interference_marks(Scheme.SISO_BASELINE, p, rng, size)
            np.add.at(shot, owner[start:start + size], contrib)
        sinr = sinr_samples(Scheme.SISO_BASELINE, p, np.random.default_rng(29), n)
        assert np.allclose(sinr, h0 * p.D ** (-p.alpha) / shot, rtol=1e-12, atol=0)
