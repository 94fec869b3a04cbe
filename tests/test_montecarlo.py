"""Monte Carlo engine tests: determinism, calibration, density quantiles, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from sdma_capacity import montecarlo
from sdma_capacity.analytic import density_for_scheme, exact_outage
from sdma_capacity.kernels import interference_coeff
from sdma_capacity.montecarlo import (
    BATCH_SIZE,
    InconclusiveBisection,
    estimate_outage,
    find_max_density,
    fit_ase_slope,
    run_sweep,
    validate_distribution,
    wilson_interval,
)
from sdma_capacity.network import NetworkParams, Scheme

from oracles import sibuya_success

BASE = NetworkParams()


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == pytest.approx(1.0, abs=1e-12) and lo < 1.0

    def test_width_shrinks(self):
        w1 = np.diff(wilson_interval(50, 1000))[0]
        w2 = np.diff(wilson_interval(500, 10_000))[0]
        assert w2 < w1

    def test_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestEstimateOutage:
    def test_near_zero_threshold(self):
        p = BASE.replace(beta=1e-12)
        est = estimate_outage(Scheme.SISO_BASELINE, p, 5000, seed=1)
        assert est.p_hat == 0.0

    def test_dense_field_saturates(self):
        # exact outage at this density is 1 - e^{-8.5}, so all but about
        # one in 5,000 trials are in outage
        p = BASE.replace(lam=1e-2)
        est = estimate_outage(Scheme.SISO_BASELINE, p, 500, seed=1)
        assert est.p_hat > 0.99

    def test_matches_exact_siso(self):
        p = BASE.replace(lam=1e-4)
        est = estimate_outage(Scheme.SISO_BASELINE, p, 100_000, seed=7)
        exact = exact_outage(Scheme.SISO_BASELINE, p)
        assert est.ci_low - 0.002 <= exact <= est.ci_high + 0.002

    def test_bit_identical_across_worker_counts(self):
        p = BASE.replace(lam=1e-4)
        trials = 3 * BATCH_SIZE + 17
        ests = [
            estimate_outage(Scheme.SISO_BASELINE, p, trials, seed=11, workers=w)
            for w in (1, 2, 4)
        ]
        assert len({e.p_hat for e in ests}) == 1

    def test_seed_sensitivity(self):
        p = BASE.replace(lam=1e-4)
        a = estimate_outage(Scheme.SISO_BASELINE, p, 20_000, seed=1)
        b = estimate_outage(Scheme.SISO_BASELINE, p, 20_000, seed=2)
        assert a.p_hat != b.p_hat

    def test_explicit_agrees_with_surrogate(self):
        # two independent generators: the explicit path draws a Poisson window
        # of constructed channels per trial, the surrogate path the radially
        # ordered lam* draw
        p = BASE.replace(lam=1e-4)
        sur = estimate_outage(Scheme.SISO_BASELINE, p, 100_000, seed=3)
        exp = estimate_outage(Scheme.SISO_BASELINE, p, 2_000, seed=3, explicit=True)
        assert exp.ci_low <= sur.p_hat <= exp.ci_high

    def test_explicit_bit_identical_across_worker_counts(self):
        p = BASE.replace(lam=1e-4)
        trials = BATCH_SIZE + 17
        ests = [
            estimate_outage(Scheme.SISO_BASELINE, p, trials, seed=11, explicit=True,
                            workers=w)
            for w in (1, 2)
        ]
        assert ests[0].p_hat == ests[1].p_hat

    def test_explicit_siso_matches_exact_outage(self):
        p = BASE.replace(lam=1e-4)
        trials = 20_000
        exact = exact_outage(Scheme.SISO_BASELINE, p)
        est = estimate_outage(Scheme.SISO_BASELINE, p, trials, seed=13, explicit=True)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(est.p_hat - exact) <= 4 * se

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_explicit_no_outage_without_interference_or_noise(self, scheme):
        m, n, k = scheme.default_config(2)
        p = BASE.replace(lam=0.0, eta=0.0, M=m, N=n, K=k)
        est = estimate_outage(scheme, p, 1000, seed=7, explicit=True)
        assert est.p_hat == 0.0

    def test_noise_only_outage_at_zero_density(self):
        # at lam = 0 only noise-outage trials count, and their lam* is clamped
        # to 0: exact outage 1 - exp(-beta eta D^alpha / rho) = 1 - e^{-0.3}
        p = BASE.replace(lam=0.0, eta=1e-5)
        est = estimate_outage(Scheme.SISO_BASELINE, p, 100_000, seed=5)
        exact = -math.expm1(-p.beta * p.eta_over_rho * p.D**p.alpha)
        assert est.ci_low <= exact <= est.ci_high

    def test_ci_calibration(self):
        # the 95% Wilson interval should cover the exact SISO outage in at
        # least 90 of 100 independent seeds
        p = BASE.replace(lam=1e-4)
        exact = exact_outage(Scheme.SISO_BASELINE, p)
        hits = sum(
            est.ci_low <= exact <= est.ci_high
            for est in (estimate_outage(Scheme.SISO_BASELINE, p, 10_000, seed=s)
                        for s in range(100))
        )
        assert hits >= 90

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            estimate_outage(Scheme.SISO_BASELINE, BASE, 0, seed=1)

    FIXED_DENSITY_CASES = [
        (Scheme.DPC_MIMO_UB, BASE.replace(lam=3e-4, M=3, N=3, K=3)),
        (Scheme.ZF_ANTSEL, BASE.replace(lam=1e-4, M=4, N=4, K=4, alpha=3.0)),
        (Scheme.SISO_BASELINE, BASE.replace(lam=2e-5, eta=1e-5)),
        (Scheme.SISO_BASELINE, BASE.replace(lam=0.0, eta=1e-3)),
    ]

    @pytest.mark.parametrize("scheme,params", FIXED_DENSITY_CASES)
    def test_matches_exact_outage(self, scheme, params):
        # gamma, order-statistic and exponential signals, with and without
        # noise, against their exact outage within 4 standard errors
        trials = 100_000
        est = estimate_outage(scheme, params, trials, seed=17)
        if scheme is Scheme.DPC_MIMO_UB:
            delta = 2 / params.alpha
            big_a = (params.lam * interference_coeff(scheme.mark_shape(params), params.alpha)
                     * params.zeta**delta)
            exact = 1.0 - float(sibuya_success(scheme.signal_dof(params),
                                               params.zeta * params.eta_over_rho,
                                               big_a, delta))
        else:
            exact = exact_outage(scheme, params)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(est.p_hat - exact) <= 4 * se + 1e-12

    @pytest.mark.parametrize("scheme,params", FIXED_DENSITY_CASES)
    def test_monotone_in_density_on_one_seed(self, scheme, params):
        # on one seed every density reads the same lam* draws, so the outage
        # count cannot fall as lam grows
        lam = params.lam or 1e-4
        counts = [estimate_outage(scheme, params.replace(lam=f * lam), 5_000,
                                  seed=9).p_hat
                  for f in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert counts == sorted(counts)


class TestCriticalDensities:
    """The per-trial critical densities lam* behind ``find_max_density``."""

    @staticmethod
    def _lam_stars(scheme, params, trials, seed):
        return np.concatenate(
            montecarlo._critical_densities(scheme, params, seed, trials))[:trials]

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    @pytest.mark.parametrize("scheme,params", [
        (Scheme.SISO_BASELINE, BASE),
        (Scheme.ZF_ANTSEL, BASE.replace(M=4, N=4, K=4)),
        (Scheme.DPC_MIMO_UB, BASE.replace(M=2, N=2, K=2)),
    ])
    def test_outage_fraction_matches_exact(self, scheme, params, alpha):
        # a trial is in outage at lam exactly when lam* < lam, so the
        # fraction of lam* below lam estimates the outage at lam
        p = params.replace(alpha=alpha)
        trials = 200_000
        lam_star = self._lam_stars(scheme, p, trials, seed=31)
        guess = density_for_scheme(p, scheme).lambda_eps
        for lam in (0.5 * guess, guess, 2.0 * guess):
            if scheme is Scheme.SISO_BASELINE:
                exact = -math.expm1(-lam * p.beta ** (2 / alpha) * p.D**2
                                    * interference_coeff(1, alpha))
            elif scheme is Scheme.DPC_MIMO_UB:
                delta = 2 / alpha
                big_a = lam * interference_coeff(scheme.mark_shape(p), alpha) * p.zeta**delta
                exact = 1.0 - float(sibuya_success(scheme.signal_dof(p), 0.0, big_a, delta))
            else:
                exact = exact_outage(scheme, p.replace(lam=lam))
            se = math.sqrt(exact * (1 - exact) / trials)
            frac = np.count_nonzero(lam_star < lam) / trials
            assert abs(frac - exact) <= 4 * se, (lam, frac, exact)

    def test_doubling_reuses_batches_exactly(self):
        # a doubled search draws only the new batches; the first n values,
        # partial batch included, are those of the n-trial call
        p = BASE.replace(M=2, N=1, K=2)
        n = 2 * BATCH_SIZE + 5
        first = montecarlo._critical_densities(Scheme.ZF_MISO, p, 9, n)
        grown = montecarlo._critical_densities(Scheme.ZF_MISO, p, 9, 2 * n, drawn=first)
        fresh = montecarlo._critical_densities(Scheme.ZF_MISO, p, 9, 2 * n)
        assert len(first) == 3 and len(fresh) == 5
        assert all(a is b for a, b in zip(grown, first))
        for a, b in zip(grown, fresh):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(self._lam_stars(Scheme.ZF_MISO, p, n, 9),
                                      self._lam_stars(Scheme.ZF_MISO, p, 2 * n, 9)[:n])
        # estimates at n and after doubling to 2n and 4n equal fresh calls
        for cap in (n, 2 * n, 4 * n):
            brackets = []
            for init in (n, cap):
                with pytest.raises(InconclusiveBisection) as err:
                    find_max_density(Scheme.ZF_MISO, p, seed=9, tolerance=0.0,
                                     trials_init=init, trials_cap=cap)
                brackets.append(err.value.bracket)
            assert brackets[0] == brackets[1]

    @pytest.mark.parametrize("n", [1000, 3 * BATCH_SIZE + 17])
    @pytest.mark.parametrize("scheme,params", [
        (Scheme.SISO_BASELINE, BASE),
        (Scheme.ZF_ANTSEL, BASE.replace(M=4, N=4, K=4)),
        (Scheme.DPC_MIMO_UB, BASE.replace(M=2, N=2, K=2, eta=1e-5)),
    ])
    def test_outage_and_density_share_one_generator(self, scheme, params, n):
        # lambda_eps is the ceil(n eps)-th smallest lam*, so on the same seed
        # and trial count exactly that many trials are in outage at lambda_eps
        res = find_max_density(scheme, params, seed=13, tolerance=10.0,
                               trials_init=n, trials_cap=n)
        est = estimate_outage(scheme, params.replace(lam=res.lambda_eps), n, 13)
        assert est.p_hat == math.ceil(n * params.epsilon) / n

    def test_bit_identical_across_worker_counts(self):
        p = BASE.replace(M=2, N=1, K=2)
        res = [find_max_density(Scheme.ZF_MISO, p, seed=4, tolerance=0.05,
                                trials_init=3 * BATCH_SIZE + 17, workers=w)
               for w in (1, 2)]
        assert res[0] == res[1]
        assert res[0].extras["trials"] > 3 * BATCH_SIZE + 17

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from([
            (Scheme.SISO_BASELINE, BASE),
            (Scheme.ZF_MISO, BASE.replace(M=2, N=1, K=2)),
            (Scheme.ZF_ANTSEL, BASE.replace(M=2, N=2, K=2)),
            (Scheme.DPC_MIMO_UB, BASE.replace(M=2, N=2, K=2, alpha=3.0)),
        ]),
        eps=st.lists(st.floats(0.01, 0.5), min_size=2, max_size=2).map(sorted),
        beta=st.lists(st.floats(0.5, 10.0), min_size=2, max_size=2).map(sorted),
        dist=st.lists(st.floats(1.0, 20.0), min_size=2, max_size=2).map(sorted),
        eta=st.lists(st.floats(0.0, 1e-3), min_size=2, max_size=2).map(sorted),
    )
    def test_monotone_in_eps_beta_distance_eta(self, case, eps, beta, dist, eta):
        # the draws do not depend on epsilon, beta, D or eta, so at a fixed
        # seed and trial count each moves lambda_eps one way only
        scheme, params = case

        def lam_eps(**kw):
            p = params.replace(epsilon=eps[0], beta=beta[0], D=dist[0], eta=eta[0])
            return find_max_density(scheme, p.replace(**kw), seed=17, tolerance=2.0,
                                    trials_init=BATCH_SIZE,
                                    trials_cap=BATCH_SIZE).lambda_eps

        base = lam_eps()
        assert lam_eps(epsilon=eps[1]) >= base
        assert lam_eps(beta=beta[1]) <= base
        assert lam_eps(D=dist[1]) <= base
        assert lam_eps(eta=eta[1]) <= base


class TestFindMaxDensity:
    def test_recovers_exact_miso_m2(self):
        p = BASE.replace(M=2, N=1, K=2)
        res = find_max_density(Scheme.ZF_MISO, p, seed=5, tolerance=0.03)
        closed = density_for_scheme(p, Scheme.ZF_MISO).lambda_eps
        assert res.lambda_eps == pytest.approx(closed, rel=0.08)
        assert res.lambda_lower <= res.lambda_eps <= res.lambda_upper

    def test_monotone_in_epsilon(self):
        p = BASE.replace(M=2, N=1, K=2)
        tight = find_max_density(Scheme.ZF_MISO, p.replace(epsilon=0.05),
                                 seed=9, tolerance=0.05)
        loose = find_max_density(Scheme.ZF_MISO, p.replace(epsilon=0.2),
                                 seed=9, tolerance=0.05)
        assert tight.lambda_eps < loose.lambda_eps

    def test_noise_limited_flag(self):
        p = BASE.replace(M=2, N=1, K=2, eta=1e-3)
        res = find_max_density(Scheme.ZF_MISO, p, seed=1)
        assert res.noise_limited
        assert res.lambda_eps == 0.0

    @pytest.mark.parametrize("n", [1, 100, 1000, 12_345])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_interval_ends_are_binomial_order_statistics(self, n, eps):
        # with values 1..n the r-th order statistic is r; the interval ends
        # sit at the binomial(n, eps) 2.5% quantile and one past the 97.5%
        from scipy.stats import binom

        values = np.random.default_rng(n).permutation(np.arange(1.0, n + 1))
        r = int(binom.ppf(0.025, n, eps))
        s = int(binom.ppf(0.975, n, eps)) + 1
        want = (math.ceil(n * eps), float(r) if r >= 1 else 0.0,
                float(s) if s <= n else math.inf)
        assert montecarlo._quantile_interval(values, eps) == want

    def test_inconclusive_raises_with_bracket(self):
        # a microscopic trial cap cannot narrow the interval to the tolerance
        p = BASE.replace(M=2, N=1, K=2)
        with pytest.raises(InconclusiveBisection) as err:
            find_max_density(Scheme.ZF_MISO, p, seed=1, tolerance=0.001,
                             trials_init=100, trials_cap=100)
        assert isinstance(err.value.bracket, tuple)


class TestRunSweep:
    def test_analytic_slopes(self):
        grid = [(m, 1, m) for m in (2, 4, 8, 16)]
        table = run_sweep([Scheme.ZF_MISO], grid, BASE.replace(N=1))
        slope = table.slopes[("zf-miso", "exact-root")]
        assert slope == pytest.approx(0.5, abs=0.1)

    def test_single_point_has_no_slope(self):
        table = run_sweep([Scheme.ZF_MISO], [(4, 1, 4)], BASE)
        assert len(table.rows) == 1
        assert table.slopes[("zf-miso", "exact-root")] is None

    def test_per_row_failure_recorded(self):
        # (2, 2, 2) is infeasible for zf-multi (M < KN); sweep must continue
        grid = [(2, 2, 2), (8, 2, 2), (16, 2, 2)]
        table = run_sweep([Scheme.ZF_MULTI], grid, BASE)
        errors = [r for r in table.rows if r.error is not None]
        good = [r for r in table.rows if r.error is None]
        assert len(errors) == 1 and len(good) == 2

    def test_mc_rows_report_trials(self):
        p = BASE.replace(N=1)
        table = run_sweep([Scheme.ZF_MISO], [(2, 1, 2)], p, mode="mc", seed=3,
                          tolerance=0.1)
        res = find_max_density(Scheme.ZF_MISO, p.replace(M=2, K=2), seed=3,
                               tolerance=0.1)
        (row,) = table.rows
        assert (row.lambda_eps, row.trials, row.seed) == \
            (res.lambda_eps, res.extras["trials"], 3)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], [(2, 1, 2)], BASE)
        with pytest.raises(ValueError):
            run_sweep([Scheme.ZF_MISO], [], BASE)
        with pytest.raises(ValueError):
            run_sweep([Scheme.ZF_MISO], [(2, 1, 2)], BASE, mode="bogus")

    def test_fit_ase_slope_exact_line(self):
        xs = [2, 4, 8, 16]
        ys = [3.0 * x**0.7 for x in xs]
        assert fit_ase_slope(xs, ys) == pytest.approx(0.7, rel=1e-9)
        with pytest.raises(ValueError):
            fit_ase_slope([2], [1.0])


class TestValidateDistribution:
    def test_exponential_passes(self):
        report = validate_distribution(
            lambda rng, n: rng.standard_exponential(n),
            lambda x: -np.expm1(-np.asarray(x)), 20_000, seed=1)
        assert report.passed

    def test_wrong_law_fails(self):
        report = validate_distribution(
            lambda rng, n: rng.gamma(2.0, 1.0, n),
            lambda x: -np.expm1(-np.asarray(x)), 20_000, seed=1)
        assert not report.passed

    def test_gamma_reference(self):
        report = validate_distribution(
            lambda rng, n: rng.gamma(3.0, 1.0, n),
            lambda x: gammainc(3, np.asarray(x)), 20_000, seed=2)
        assert report.passed

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            validate_distribution(lambda rng, n: rng.standard_exponential(n),
                                  lambda x: x, 10, seed=1)
