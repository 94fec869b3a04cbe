"""Acceptance gate: the nine release criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict line.
Criterion 6 is evaluated per scheme; the antenna-selection slope target is
known not to be met by the implemented closed form (its analytic ASE grows
sub-linearly in the antenna count because the selection coefficient gains
only logarithmically), and that case is deliberately left failing rather
than loosened.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from sdma_capacity.analytic import (
    density_dpc_mimo,
    density_for_scheme,
    density_sandwich,
    exact_density_root,
    outage_bracket,
    small_eps_density,
)
from sdma_capacity.channel import antsel_gain, signal_gains
from sdma_capacity.kernels import f_coeff, interference_coeff
from sdma_capacity.montecarlo import (
    estimate_outage,
    find_max_density,
    fit_ase_slope,
    validate_distribution,
)
from sdma_capacity.network import NetworkParams, Scheme
from sdma_capacity import cli

BASE = NetworkParams()  # D = 10, eps = 0.1, alpha = 4, beta = 3, eta = 0


def verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


def test_criterion_1_kernel_identities():
    worst_i, worst_f = 0.0, 0.0
    for alpha in (2.5, 3.0, 4.0, 6.0):
        d2 = 2.0 / alpha
        for m in range(1, 65):
            ref = math.pi * math.exp(gammaln(1 - d2) + gammaln(m + d2) - gammaln(m))
            worst_i = max(worst_i, abs(interference_coeff(m, alpha) / ref - 1))
        for d in range(1, 33):
            ref = math.exp(gammaln(1 - d2) + gammaln(d) - gammaln(d - d2))
            worst_f = max(worst_f, abs(f_coeff(d, alpha) / ref - 1))
    ok = worst_i <= 1e-10 and worst_f <= 1e-9
    verdict("1 kernel identities", ok,
            f"interference residual {worst_i:.2e} (<=1e-10), "
            f"F residual {worst_f:.2e} (<=1e-9)")
    assert ok


def test_criterion_2_siso_exact_oracle():
    details, ok = [], True
    for lam in (1e-5, 1e-4, 5e-4):
        p = BASE.replace(lam=lam)
        p_suc = math.exp(-lam * math.sqrt(p.beta) * p.D**2
                         * interference_coeff(1, p.alpha))
        est = estimate_outage(Scheme.SISO_BASELINE, p, 100_000, seed=202)
        se = math.sqrt(p_suc * (1 - p_suc) / est.trials)
        gap = abs((1 - est.p_hat) - p_suc)
        ok = ok and gap <= 3 * se
        details.append(f"lam={lam:g} |gap|={gap:.2e} 3se={3 * se:.2e}")
    verdict("2 siso exact oracle", ok, "; ".join(details))
    assert ok


def test_criterion_3_zf_miso_closed_form():
    details, ok = [], True
    for m in (2, 4):
        p = BASE.replace(M=m, N=1, K=m)
        closed = density_for_scheme(p, Scheme.ZF_MISO).lambda_eps
        mc = find_max_density(Scheme.ZF_MISO, p, seed=303, tolerance=0.02).lambda_eps
        rel = abs(mc / closed - 1)
        ok = ok and rel <= 0.05
        details.append(f"M={m} rel={rel:.3f} (<=0.05)")
    verdict("3 zf-miso closed form", ok, "; ".join(details))
    assert ok


def test_criterion_4_bound_sandwich():
    details, ok = [], True
    for m in (1, 2, 3):
        p = BASE.replace(M=m, N=m, K=m)
        d = m * m
        lower, _ = density_sandwich(p, d, m)
        upper = density_dpc_mimo(p, method="upper-bound").lambda_eps
        # cap the per-probe budget: probes landing on the root itself are
        # inherently inconclusive and would otherwise burn the full default
        mc = find_max_density(Scheme.DPC_MIMO_UB, p, seed=404, tolerance=0.03,
                              trials_cap=2_000_000).lambda_eps
        in_bracket = lower * 0.97 <= mc <= upper * 1.03
        ok = ok and in_bracket
        details.append(f"M=N={m} lower={lower:.3e} mc={mc:.3e} upper={upper:.3e}")
        guess = small_eps_density(p, Scheme.DPC_MIMO_UB, d, m).lambda_eps
        for scale in (0.5, 1.0, 1.5):
            pl = p.replace(lam=scale * guess)
            lo_out, hi_out = outage_bracket(pl, d)
            est = estimate_outage(Scheme.DPC_MIMO_UB, pl, 100_000, seed=414)
            inside = est.ci_high >= lo_out and est.ci_low <= hi_out
            ok = ok and inside
            if not inside:
                details.append(
                    f"M=N={m} lam={pl.lam:.2e} p_hat={est.p_hat:.4f} "
                    f"outside [{lo_out:.4f}, {hi_out:.4f}]")
    verdict("4 bound sandwich", ok, "; ".join(details))
    assert ok


def test_criterion_5_distribution_suite():
    details, ok = [], True
    from scipy.special import gammainc

    for m, k, n in ((4, 2, 1), (6, 2, 2), (8, 4, 1)):
        dof = m - k * n + 1
        p = BASE.replace(M=m, N=n, K=k)
        rep = validate_distribution(
            lambda rng, size, p=p: signal_gains(Scheme.ZF_MULTI, p, rng, size),
            lambda x, d=dof: gammainc(d, x), 100_000, seed=505)
        ok = ok and rep.passed
        details.append(f"zf({m},{k},{n}) ks={rep.statistic:.4f}"
                       f"{'<' if rep.passed else '>='}{rep.critical_value:.4f}")

    p = BASE.replace(M=8, N=2, K=2)
    rep = validate_distribution(
        lambda rng, size: signal_gains(Scheme.BD_UB, p, rng, size),
        lambda x: gammainc(12, x), 100_000, seed=515)
    ok = ok and rep.passed
    details.append(f"bd(8,2,2) ks={rep.statistic:.4f}"
                   f"{'<' if rep.passed else '>='}{rep.critical_value:.4f}")

    for n in (2, 4):
        p = BASE.replace(N=n)
        rep = validate_distribution(
            lambda rng, size, p=p: antsel_gain(p, rng, size),
            lambda x, nn=n: (-np.expm1(-np.asarray(x, dtype=float))) ** nn,
            100_000, seed=525)
        ok = ok and rep.passed
        details.append(f"antsel(N={n}) ks={rep.statistic:.4f}"
                       f"{'<' if rep.passed else '>='}{rep.critical_value:.4f}")

    verdict("5 distribution suite", ok, "; ".join(details))
    assert ok


def _slope_case(scheme: Scheme) -> tuple[list[int], list[float], float, float]:
    """(axis points, ASEs, target, tolerance) for the slope criterion."""
    axis = [2, 4, 8, 16]
    targets = {
        Scheme.DPC_MIMO_UB: (1.5, 0.15),
        Scheme.DPC_MISO: (1.0, 0.1),
        Scheme.ZF_MISO: (0.5, 0.1),
        Scheme.ZF_ANTSEL: (1.0, 0.1),
        Scheme.BD_UB: (1.0, 0.15),
    }
    ases = []
    for a in axis:
        m, n, k = scheme.default_config(a)
        ases.append(density_for_scheme(BASE.replace(M=m, N=n, K=k), scheme).ase)
    target, tol = targets[scheme]
    return axis, ases, target, tol


@pytest.mark.parametrize("scheme", [
    Scheme.DPC_MIMO_UB, Scheme.DPC_MISO, Scheme.ZF_MISO, Scheme.ZF_ANTSEL,
    Scheme.BD_UB,
])
def test_criterion_6_scaling_slopes(scheme):
    axis, ases, target, tol = _slope_case(scheme)
    slope = fit_ase_slope(axis, ases)
    ok = abs(slope - target) <= tol
    verdict(f"6 scaling slope [{scheme.value}]", ok,
            f"fitted {slope:.3f}, target {target} +/- {tol}")
    assert ok


def test_criterion_7_ordering_m8():
    p_dpc = BASE.replace(M=8, N=8, K=8)
    p_sel = BASE.replace(M=8, N=8, K=8)
    p_miso = BASE.replace(M=8, N=1, K=8)
    a_dpc = density_dpc_mimo(p_dpc).ase
    a_sel = density_for_scheme(p_sel, Scheme.ZF_ANTSEL).ase
    a_miso = density_for_scheme(p_miso, Scheme.ZF_MISO).ase
    analytic_ok = a_dpc > a_sel > a_miso

    mc = {}
    for label, scheme, p in (("dpc", Scheme.DPC_MIMO_UB, p_dpc),
                             ("antsel", Scheme.ZF_ANTSEL, p_sel),
                             ("miso", Scheme.ZF_MISO, p_miso)):
        mc[label] = find_max_density(scheme, p, seed=707, tolerance=0.05,
                                     trials_cap=1_000_000).ase
    mc_ok = mc["dpc"] > mc["antsel"] > mc["miso"]
    ok = analytic_ok and mc_ok
    verdict("7 ordering at M=N=8", ok,
            f"analytic {a_dpc:.2e} > {a_sel:.2e} > {a_miso:.2e} "
            f"({analytic_ok}); mc {mc['dpc']:.2e} > {mc['antsel']:.2e} > "
            f"{mc['miso']:.2e} ({mc_ok})")
    assert ok


def test_criterion_8_determinism(tmp_path, monkeypatch):
    args = ["simulate", "--scheme", "siso", "--lambda", "1e-4",
            "--trials", "65536", "--seed", "808"]
    outputs = []
    for i, workers in enumerate((1, 1, 4, 16)):
        monkeypatch.setenv("SDMA_WORKERS", str(workers))
        out = tmp_path / f"run{i}-w{workers}.csv"
        rc = cli.main(args + ["--out", str(out)])
        assert rc == cli.EXIT_OK
        outputs.append(out.read_bytes())
    ok = len(set(outputs)) == 1
    verdict("8 determinism", ok,
            f"{len(outputs)} runs (workers 1,1,4,16), "
            f"{len(set(outputs))} distinct output(s)")
    assert ok


def test_criterion_9_small_eps_consistency():
    details, ok = [], True
    for label, scheme, p in (
        ("zf-miso", Scheme.ZF_MISO, BASE.replace(M=2, N=1, K=2)),
        ("antsel", Scheme.ZF_ANTSEL, BASE.replace(M=2, N=2, K=2)),
    ):
        devs = []
        for eps in (0.1, 0.01, 0.001):
            pe = p.replace(epsilon=eps)
            if scheme is Scheme.ZF_MISO:
                lin = small_eps_density(pe, scheme, 1, pe.M).lambda_eps
            else:
                lin = density_for_scheme(pe, Scheme.ZF_ANTSEL).lambda_eps
            root = exact_density_root(scheme, pe).lambda_eps
            devs.append(abs(lin / root - 1))
        mono = devs[0] > devs[1] > devs[2]
        ok = ok and mono
        details.append(f"{label} deviations {devs[0]:.4f} > {devs[1]:.4f} > "
                       f"{devs[2]:.4f} ({mono})")
    verdict("9 small-eps consistency", ok, "; ".join(details))
    assert ok
