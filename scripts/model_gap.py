"""Model gap of the Gamma-mark surrogate against the constructed interferers.

The shot noise takes only E[I^delta] (delta = 2/alpha) from the mark law:
its Laplace transform is exp(-lam pi Gamma(1 - delta) E[I^delta] s^delta).
So every closed form holds for the constructed marks with I_m replaced by
pi Gamma(1 - delta) E_phys[I^delta], and at eta = 0 the density lam_eps
scales exactly by E_Gamma[G^delta] / E_phys[I^delta], G ~ Gamma(m, 1).

For each case this draws ``--samples`` marks from the package's batched
explicit sampler (``channel.interference_marks``) and prints the mark mean
and variance (Gamma(m) has both equal to m) and the ratio
E_phys[I^delta] / E_Gamma[G^delta] with its standard error at alpha = 3, 4.

    PYTHONPATH=src python scripts/model_gap.py [--samples 1000000] [--seed 1]
"""

from __future__ import annotations

import argparse
import math

import numpy as np
from scipy.special import gammaln

from sdma_capacity.channel import interference_marks
from sdma_capacity.network import NetworkParams, Scheme

ALPHAS = (3.0, 4.0)
CASES = (  # (scheme, M, N, K)
    (Scheme.SISO_BASELINE, 1, 1, 1),
    (Scheme.DPC_MIMO_UB, 4, 4, 4),
    (Scheme.ZF_RXZF, 4, 8, 1),
    *((Scheme.ZF_MISO, m, 1, m) for m in (2, 4, 8, 16, 32)),
    (Scheme.ZF_MULTI, 4, 2, 2),
    (Scheme.ZF_MULTI, 8, 2, 4),
    (Scheme.ZF_ANTSEL, 4, 4, 4),
    (Scheme.BD_UB, 4, 2, 2),
    (Scheme.BD_UB, 8, 4, 2),
)


def mark_moments(scheme: Scheme, params: NetworkParams, samples: int,
                 rng: np.random.Generator) -> dict:
    """Sums of I, I^2 and, per alpha, I^delta and I^(2 delta) over the draws."""
    block = max(256, 2**18 // params.M**2)  # a few MB of stacked matrices
    sums = np.zeros(2 + 2 * len(ALPHAS))
    for start in range(0, samples, block):
        marks = interference_marks(scheme, params, rng, min(block, samples - start))
        powers = [marks, marks**2]
        for alpha in ALPHAS:
            x = marks ** (2.0 / alpha)
            powers += [x, x * x]
        sums += [p.sum() for p in powers]
    return dict(zip(["i", "i2"] + [f"{k}{a:g}" for a in ALPHAS for k in ("d", "d2")],
                    sums / samples))


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    head = " | ".join(f"ratio a={a:g}" for a in ALPHAS)
    print(f"| scheme | M/N/K | m | mean | variance | {head} |")
    print("|---|---|---|---|---|" + "---|" * len(ALPHAS))
    for scheme, m_tx, n_rx, k in CASES:
        params = NetworkParams(M=m_tx, N=n_rx, K=k)
        shape = scheme.mark_shape(params)
        mom = mark_moments(scheme, params, args.samples, rng)
        cells = []
        for alpha in ALPHAS:
            delta = 2.0 / alpha
            gamma_moment = math.exp(gammaln(shape + delta) - gammaln(shape))
            mean, second = mom[f"d{alpha:g}"], mom[f"d2{alpha:g}"]
            se = math.sqrt((second - mean**2) / args.samples)
            cells.append(f"{mean / gamma_moment:.4f} ± {se / gamma_moment:.4f}")
        print(f"| {scheme.value} | {m_tx}/{n_rx}/{k} | {shape} | {mom['i']:.3f} | "
              f"{mom['i2'] - mom['i']**2:.2f} | {' | '.join(cells)} |")


if __name__ == "__main__":
    main()
