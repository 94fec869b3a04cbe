"""Closed-form density/outage tests against frozen oracles and each other."""

import math

import numpy as np
import pytest

from sdma_capacity.analytic import (
    area_spectral_efficiency,
    density_dpc_mimo,
    density_for_scheme,
    density_sandwich,
    exact_density_root,
    exact_outage,
    noise_floor_outage,
    outage_bracket,
    scaling_exponent,
    small_eps_density,
    success_upper_bound,
)
from sdma_capacity.kernels import (
    f_coeff,
    interference_coeff,
    laplace_field,
    weighted_alternating_coeff,
)
from sdma_capacity.montecarlo import fit_ase_slope
from sdma_capacity.network import NetworkParams, Scheme
from oracles import levy_outage, poisson_tail, sibuya_outage_root

# reference operating point: D = 10 m, eps = 0.1, alpha = 4, beta = 3, eta = 0
BASE = NetworkParams()


def miso_params(m: int) -> NetworkParams:
    return BASE.replace(M=m, N=1, K=m)


class TestASE:
    def test_formula(self):
        p = BASE.replace(M=4, N=1, K=4)
        assert area_spectral_efficiency(p, 2e-4) == pytest.approx(
            4 * 2e-4 * 0.9 * 2.0, rel=1e-14)

    def test_zero_density(self):
        assert area_spectral_efficiency(BASE, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            area_spectral_efficiency(BASE, -1.0)


class TestNoiseFloor:
    def test_zero_noise(self):
        assert noise_floor_outage(BASE, 4) == 0.0

    def test_rayleigh_value(self):
        p = BASE.replace(eta=1e-5, rho=1.0)
        # P(Exp(1) < zeta eta / rho) = 1 - e^{-0.3}
        assert noise_floor_outage(p, 1) == pytest.approx(-math.expm1(-0.3), rel=1e-12)

    def test_monotone_in_d(self):
        p = BASE.replace(eta=3e-5)
        vals = [noise_floor_outage(p, d) for d in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestLargeDeviationBound:
    def test_no_interference_no_noise(self):
        p = BASE.replace(lam=0.0)
        assert success_upper_bound(p, 4) == 1.0

    def test_interference_only_value(self):
        p = BASE.replace(lam=1e-4, M=1)
        ref = laplace_field(p.zeta / 4.0, p.lam, p.alpha, 1)
        assert success_upper_bound(p, 1) == pytest.approx(ref, rel=1e-12)

    def test_is_an_upper_bound_on_exact_success(self):
        # d = 1 admits the exact Rayleigh success probability
        for lam in (1e-5, 1e-4, 1e-3):
            p = BASE.replace(lam=lam, M=1)
            exact = laplace_field(p.zeta, lam, p.alpha, 1)
            assert success_upper_bound(p, 1) >= exact


class TestOutageBracket:
    def test_d1_collapse(self):
        p = BASE.replace(M=1)
        lower, upper = outage_bracket(p, 1)
        exact = 1 - laplace_field(p.zeta, p.lam, p.alpha, 1)
        assert lower == pytest.approx(exact, rel=1e-12)
        assert upper == pytest.approx(exact, rel=1e-12)

    def test_no_interference_no_noise(self):
        p = BASE.replace(lam=0.0)
        assert outage_bracket(p, 4) == (0.0, 0.0)

    def test_contains_mc_outage_gamma4(self):
        # signal Gamma(4, 1), marks Gamma(2, 1): direct shot-noise simulation
        p = BASE.replace(lam=1e-5, M=2)
        lower, upper = outage_bracket(p, 4)
        rng = np.random.default_rng(99)
        trials, radius = 200_000, 3000.0
        counts = rng.poisson(p.lam * math.pi * radius**2, trials)
        total = counts.sum()
        marks = rng.gamma(2.0, 1.0, total)
        r2 = radius**2 * rng.random(total)
        y = np.bincount(np.repeat(np.arange(trials), counts),
                        weights=marks * r2 ** (-p.alpha / 2), minlength=trials)
        h0 = rng.gamma(4.0, 1.0, trials)
        p_hat = np.mean(h0 * p.D**-p.alpha < p.beta * y)
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        assert lower - 3 * se <= p_hat <= upper + 3 * se
        assert lower < upper


class TestNoisySmallEps:
    @pytest.mark.parametrize("a", [0.003, 0.03, 0.3, 3.0])
    @pytest.mark.parametrize("d", [1, 4, 16, 64, 256])
    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_converges_to_exact_root(self, alpha, d, a):
        # zeta = beta D^alpha = 3, so a = zeta eta / rho = 3 eta
        p = NetworkParams(alpha=alpha, beta=3.0, D=1.0, epsilon=0.01, eta=a / 3)
        a = p.zeta * p.eta_over_rho
        res = small_eps_density(p, Scheme.DPC_MISO, d, 1)
        assert res.noise_limited == (poisson_tail(d, a) > p.epsilon)
        if res.noise_limited:
            assert res.lambda_eps == 0.0
            return
        # root of the exact Poisson-Sibuya outage, in A = lam I_1 zeta^delta
        delta = 2 / alpha
        root = (sibuya_outage_root(d, a, delta, p.epsilon)
                / (interference_coeff(1, alpha) * p.zeta**delta))
        # at alpha = 4 (Levy shot noise) the second-order term nearly
        # vanishes; at alpha = 3 it is O(epsilon): 0.88-1.03% measured
        tolerance = 0.01 if alpha == 4.0 else 0.02
        assert res.lambda_eps == pytest.approx(root, rel=tolerance)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_noisy_sweep_rows_at_large_d_carry_values(self, alpha):
        # the 20 dB sweep point at D = 1 (a = 0.03); d = 64 and 256 used to
        # end in "F-coefficient sum non-positive" error rows
        p = BASE.replace(alpha=alpha, D=1.0, eta=0.01)
        for scheme in (Scheme.DPC_MIMO_UB, Scheme.BD_UB):
            for antennas in (8, 16):
                m, n, k = scheme.default_config(antennas)
                res = density_for_scheme(p.replace(M=m, N=n, K=k), scheme)
                assert math.isfinite(res.lambda_eps) and res.lambda_eps > 0


class TestDpcMimo:
    def test_siso_reduction(self):
        p = BASE.replace(M=1, N=1, K=1)
        res = density_dpc_mimo(p)
        ref = p.epsilon / (interference_coeff(1, 4) * math.sqrt(3) * 100.0)
        assert res.lambda_eps == pytest.approx(ref, rel=1e-12)

    def test_reference_point_m4(self):
        p = BASE.replace(M=4, N=4, K=4)
        res = density_dpc_mimo(p)
        ref = (f_coeff(16, 4) * 0.1
               / (interference_coeff(4, 4) * math.sqrt(3) * 100.0))
        assert res.lambda_eps == pytest.approx(ref, rel=1e-12)
        assert res.method == "small-eps"

    def test_upper_bound_formula(self):
        p = BASE.replace(M=2, N=2, K=2, eta=1e-6)
        res = density_dpc_mimo(p, method="upper-bound")
        d = 4
        ref = (16.0 ** 0.5 / (interference_coeff(2, 4) * math.sqrt(3) * 100.0)
               * (-math.log(0.9) + p.eta * p.zeta / (4 * d * p.rho)))
        assert res.lambda_eps == pytest.approx(ref, rel=1e-12)

    def test_sandwich_brackets_small_eps(self):
        for m in (1, 2, 3):
            p = BASE.replace(M=m, N=m, K=m)
            res = density_dpc_mimo(p, method="sandwich")
            assert res.lambda_lower <= res.lambda_upper
            # the large-deviation inversion is looser than the sandwich upper end
            ub = density_dpc_mimo(p, method="upper-bound").lambda_eps
            assert res.lambda_lower <= ub

    def test_sandwich_d1_endpoints_equal(self):
        p = BASE.replace(M=1, N=1, K=1)
        lower, upper = density_sandwich(p, 1, 1)
        assert lower == pytest.approx(upper, rel=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            density_dpc_mimo(BASE, method="bogus")

    def test_infeasible(self):
        with pytest.raises(ValueError):
            density_dpc_mimo(BASE.replace(M=4, N=4, K=2))


class TestDpcMiso:
    def test_matches_mimo_with_one_receive_antenna(self):
        for m in (2, 4, 8):
            p = miso_params(m)
            a = density_for_scheme(p, Scheme.DPC_MISO).lambda_eps
            b = density_dpc_mimo(p).lambda_eps
            assert a == pytest.approx(b, rel=1e-12)

    def test_slope_near_linear(self):
        ms = [2, 4, 8, 16]
        ases = [density_for_scheme(miso_params(m), Scheme.DPC_MISO).ase for m in ms]
        assert fit_ase_slope(ms, ases) == pytest.approx(1.0, abs=0.1)


class TestZf:
    def test_miso_closed_form_m1(self):
        p = BASE.replace(M=1, N=1, K=1)
        res = density_for_scheme(p, Scheme.ZF_MISO)
        ref = -math.log(0.9) / (interference_coeff(1, 4) * math.sqrt(3) * 100.0)
        assert res.lambda_eps == pytest.approx(ref, rel=1e-12)
        assert res.lambda_eps == pytest.approx(1.2327e-4, rel=1e-4)

    def test_miso_noise_limited_clamp(self):
        # eta zeta / rho > -log(1-eps): density clamps to zero
        p = miso_params(2).replace(eta=1e-4)
        assert p.zeta * p.eta_over_rho > -math.log1p(-p.epsilon)
        res = density_for_scheme(p, Scheme.ZF_MISO)
        assert res.lambda_eps == 0.0
        assert res.noise_limited

    def test_multi_slope_fully_loaded(self):
        # full load M = KN with N = 2: ASE grows like M^{1 - 2/alpha}
        grid = [(2 * a, 2, a) for a in (2, 4, 8, 16)]
        ases = [density_for_scheme(BASE.replace(M=m, N=n, K=k), Scheme.ZF_MULTI).ase
                for m, n, k in grid]
        assert fit_ase_slope([g[0] for g in grid], ases) == pytest.approx(
            0.5, abs=0.1)

    def test_rxzf_law(self):
        p = BASE.replace(M=2, N=4, K=1)
        res = density_for_scheme(p, Scheme.ZF_RXZF)
        ref = small_eps_density(p, Scheme.ZF_RXZF, 3, 2).lambda_eps
        assert res.lambda_eps == pytest.approx(ref, rel=1e-12)

    def test_infeasible_combinations(self):
        with pytest.raises(ValueError):
            # M < KN
            density_for_scheme(BASE.replace(M=2, N=2, K=2), Scheme.ZF_MULTI)
        with pytest.raises(ValueError):
            # N <= M
            density_for_scheme(BASE.replace(M=4, N=4, K=1), Scheme.ZF_RXZF)
        with pytest.raises(ValueError):
            # N != 1
            density_for_scheme(BASE.replace(M=2, N=2, K=2), Scheme.ZF_MISO)


class TestAntsel:
    def test_n1_equals_miso_small_eps(self):
        p = BASE.replace(M=2, N=1, K=2)
        res = density_for_scheme(p, Scheme.ZF_ANTSEL)
        ref = small_eps_density(p, Scheme.ZF_ANTSEL, 1, 2).lambda_eps
        assert res.lambda_eps == pytest.approx(ref, rel=1e-12)

    def test_selection_gain_ratio_n2(self):
        p1 = BASE.replace(M=2, N=1, K=2)
        p2 = BASE.replace(M=2, N=2, K=2)
        ratio = (density_for_scheme(p2, Scheme.ZF_ANTSEL).lambda_eps
                 / density_for_scheme(p1, Scheme.ZF_ANTSEL).lambda_eps)
        assert ratio == pytest.approx(1.0 / (2 - math.sqrt(2)), rel=1e-12)

    @pytest.mark.parametrize("eta", [1e-6, 1e-5])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_noisy_small_eps_converges_to_root(self, n, eta):
        p = BASE.replace(M=n, N=n, K=n, eta=eta, epsilon=0.01)
        lin = density_for_scheme(p, Scheme.ZF_ANTSEL)
        root = exact_density_root(Scheme.ZF_ANTSEL, p)
        assert lin.noise_limited == root.noise_limited
        if root.noise_limited:
            assert lin.lambda_eps == root.lambda_eps == 0.0
        else:
            assert lin.lambda_eps == pytest.approx(root.lambda_eps, rel=0.01)

    def test_noise_weighting_reduces_density(self):
        p = BASE.replace(M=2, N=2, K=2)
        clean = density_for_scheme(p, Scheme.ZF_ANTSEL).lambda_eps
        noisy = density_for_scheme(p.replace(eta=1e-6), Scheme.ZF_ANTSEL).lambda_eps
        assert 0 < noisy < clean


class TestBd:
    def test_single_user_reduction(self):
        # K = 1, N = 1: dof M, marks Gamma(1)
        p = BASE.replace(M=4, N=1, K=1)
        res = density_for_scheme(p, Scheme.BD_UB)
        ref = (f_coeff(4, 4) * 0.1
               / (interference_coeff(1, 4) * math.sqrt(3) * 100.0))
        assert res.lambda_eps == pytest.approx(ref, rel=1e-12)
        assert res.method == "upper-bound"

    def test_slope_in_n_at_k2(self):
        ns = [2, 4, 8, 16]
        ases = [density_for_scheme(BASE.replace(M=2 * n, N=n, K=2), Scheme.BD_UB).ase
                for n in ns]
        assert fit_ase_slope(ns, ases) == pytest.approx(4 / 4, abs=0.15)


EXPONENT_CHECKED = [Scheme.DPC_MIMO_UB, Scheme.DPC_MISO, Scheme.ZF_MULTI,
                    Scheme.ZF_MISO, Scheme.BD_UB]
RXZF_WHY = ("the ASE counts K = 1 receiver, not the M streams each "
            "transmitter sends (ROADMAP item 4)")
ANTSEL_WHY = ("the closed form tends to 1 - delta, the known red of "
              "acceptance criterion 6 (ROADMAP item 4)")


def _exponent_red(scheme, alpha, measured, why):
    return pytest.param(scheme, alpha, marks=pytest.mark.xfail(
        strict=True, reason=f"closed-form slope {measured}: {why}"))


class TestDispatchAndExponents:
    def test_dispatch_agrees_with_direct_calls(self):
        cases = [
            (Scheme.DPC_MIMO_UB, BASE.replace(M=2, N=2, K=2)),
            (Scheme.DPC_MISO, miso_params(4)),
            (Scheme.ZF_MULTI, BASE.replace(M=4, N=2, K=2)),
            (Scheme.ZF_RXZF, BASE.replace(M=2, N=4, K=1)),
            (Scheme.ZF_MISO, miso_params(4)),
            (Scheme.ZF_ANTSEL, BASE.replace(M=4, N=4, K=4)),
            (Scheme.BD_UB, BASE.replace(M=4, N=2, K=2)),
            (Scheme.SISO_BASELINE, BASE),
        ]
        for scheme, p in cases:
            res = density_for_scheme(p, scheme)
            assert res.scheme is scheme
            assert res.lambda_eps > 0

    def test_exponent_table(self):
        assert scaling_exponent(Scheme.DPC_MIMO_UB, 4) == 1.5
        assert scaling_exponent(Scheme.DPC_MISO, 4) == 1.0
        assert scaling_exponent(Scheme.ZF_MISO, 4) == 0.5
        assert scaling_exponent(Scheme.ZF_MULTI, 4) == 0.5
        assert scaling_exponent(Scheme.BD_UB, 4) == 1.0
        assert scaling_exponent(Scheme.ZF_ANTSEL, 4) == 1.0
        with pytest.raises(ValueError):
            scaling_exponent(Scheme.ZF_MISO, 2.0)

    @pytest.mark.parametrize("scheme,alpha", [
        (scheme, alpha) for scheme in EXPONENT_CHECKED for alpha in (3.0, 4.0)
    ] + [
        _exponent_red(Scheme.ZF_RXZF, 3.0, "-0.002 against 0.333", RXZF_WHY),
        _exponent_red(Scheme.ZF_RXZF, 4.0, "-0.002 against 0.5", RXZF_WHY),
        _exponent_red(Scheme.ZF_ANTSEL, 3.0, "0.466 against 1.0", ANTSEL_WHY),
        _exponent_red(Scheme.ZF_ANTSEL, 4.0, "0.598 against 1.0", ANTSEL_WHY),
    ])
    def test_exponent_column_matches_asymptotic_slope(self, scheme, alpha):
        # local slope of the closed-form ASE along the scheme's own sweep
        axis, ases = [], []
        for a in (64, 128, 256):
            m, n, k = scheme.default_config(a)
            axis.append(scheme.spec.sweep_axis(m, n))
            p = BASE.replace(alpha=alpha, M=m, N=n, K=k)
            ases.append(density_for_scheme(p, scheme).ase)
        slope = fit_ase_slope(axis, ases)
        assert slope == pytest.approx(scaling_exponent(scheme, alpha), abs=0.005)

    @pytest.mark.parametrize("scheme,params", [
        (Scheme.DPC_MISO, miso_params(4)),
        (Scheme.ZF_MULTI, NetworkParams(M=4, N=2, K=2)),
        (Scheme.ZF_MISO, miso_params(4)),
        (Scheme.BD_UB, NetworkParams(M=4, N=2, K=2)),
    ])
    def test_density_monotonicity(self, scheme, params):
        base = density_for_scheme(params, scheme).lambda_eps
        up_eps = density_for_scheme(params.replace(epsilon=0.2), scheme).lambda_eps
        up_beta = density_for_scheme(params.replace(beta=6.0), scheme).lambda_eps
        up_dist = density_for_scheme(params.replace(D=20.0), scheme).lambda_eps
        noisy = density_for_scheme(params.replace(eta=1e-6), scheme).lambda_eps
        assert up_eps > base
        assert up_beta < base
        assert up_dist < base
        assert noisy < base


class TestExactOutageAndRoot:
    def test_exact_outage_rayleigh(self):
        p = miso_params(2)
        ref = 1 - laplace_field(p.zeta, p.lam, p.alpha, 2)
        assert exact_outage(Scheme.ZF_MISO, p) == pytest.approx(ref, rel=1e-12)

    def test_exact_outage_antsel_uses_order_statistic(self):
        p = BASE.replace(M=2, N=2, K=2, lam=1e-6)
        got = exact_outage(Scheme.ZF_ANTSEL, p)
        # small-density linearization with coefficient S_2 = 2 - sqrt(2)
        lin = (p.lam * weighted_alternating_coeff(2, 4, 0.0)
               * interference_coeff(2, 4) * p.zeta ** 0.5)
        assert got == pytest.approx(lin, rel=0.02)

    def test_exact_outage_antsel_large_n_matches_levy_integral(self):
        # N = 64 routes through the high-precision series; at alpha = 4 the
        # outage is also an integral over the Levy shot-noise law
        p = BASE.replace(M=64, N=64, K=64, eta=1e-5, lam=1e-4)
        ref = levy_outage(64, 1.0, p.zeta, p.lam, interference_coeff(64, 4.0),
                          p.eta_over_rho)
        assert ref == pytest.approx(0.209394, abs=1e-6)
        assert exact_outage(Scheme.ZF_ANTSEL, p) == pytest.approx(ref, rel=1e-9)

    def test_exact_outage_unsupported(self):
        with pytest.raises(ValueError):
            exact_outage(Scheme.DPC_MISO, miso_params(2))

    def test_root_matches_closed_form_miso(self):
        for m in (1, 2, 4):
            p = miso_params(m)
            root = exact_density_root(Scheme.ZF_MISO, p).lambda_eps
            closed = density_for_scheme(p, Scheme.ZF_MISO).lambda_eps
            assert root == pytest.approx(closed, rel=2e-6)

    def test_small_eps_converges_to_root(self):
        p = BASE.replace(M=2, N=2, K=2, epsilon=1e-3)
        root = exact_density_root(Scheme.ZF_ANTSEL, p).lambda_eps
        lin = density_for_scheme(p, Scheme.ZF_ANTSEL).lambda_eps
        assert lin == pytest.approx(root, rel=0.02)

    def test_antsel_root_beats_miso_root(self):
        p_sel = BASE.replace(M=2, N=2, K=2)
        p_miso = miso_params(2)
        r_sel = exact_density_root(Scheme.ZF_ANTSEL, p_sel).lambda_eps
        r_miso = exact_density_root(Scheme.ZF_MISO, p_miso).lambda_eps
        assert r_sel > r_miso

    def test_noise_limited_root(self):
        p = miso_params(2).replace(eta=1e-3)
        res = exact_density_root(Scheme.ZF_MISO, p)
        assert res.noise_limited
        assert res.lambda_eps == 0.0
