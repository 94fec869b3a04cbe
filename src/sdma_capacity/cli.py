"""Command-line front end: analytic | simulate | sweep | validate.

Flags override config-file values. Exit codes: 0 success, 2 configuration
error, 3 numerical failure, 4 inconclusive Monte Carlo. Worker count for the
simulator is taken from the SDMA_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import sys

from . import analytic, checks, reporting
from .config import ConfigError, ExperimentConfig
from .montecarlo import InconclusiveBisection, estimate_outage, find_max_density, run_sweep
from .network import Scheme

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdma-lab",
        description="Transmission-capacity laboratory for SDMA ad hoc networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("analytic", "closed-form densities, bounds, and scaling exponents"),
        ("simulate", "Monte Carlo outage estimation / density search"),
        ("sweep", "antenna sweep with log-log slope summary"),
        ("validate", "kernel identities and distribution test suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common_flags(p)
        if name == "simulate":
            p.add_argument("--find-density", action="store_true",
                           help="search the maximum contention density instead "
                                "of estimating outage at --lambda")
    return parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="INI config file")
    p.add_argument("--scheme", action="append", metavar="NAME",
                   help="scheme name (repeatable): " + ", ".join(s.value for s in Scheme))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--distance", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--snr-db", type=float,
                   help="sets eta/rho from an SNR in dB at the link distance "
                        "(eta = rho * beta-independent 10^(-snr/10))")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--mode", choices=["analytic", "mc", "both"])
    p.add_argument("--method", choices=["small-eps", "upper-bound", "sandwich"])
    p.add_argument("--grid", help="comma list of antenna counts or M:N:K triples")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=["csv", "json"])


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {
        "m": args.m, "n": args.n, "k": args.k, "alpha": args.alpha,
        "beta": args.beta, "epsilon": args.epsilon, "distance": args.distance,
        "rho": args.rho, "eta": args.eta, "lam": args.lam,
        "trials": args.trials, "seed": args.seed, "tolerance": args.tolerance,
        "mode": args.mode, "method": args.method, "out": args.out,
        "format": args.format,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    if args.scheme:
        cfg.schemes = args.scheme
    if args.grid:
        cfg.grid = [s.strip() for s in args.grid.split(",") if s.strip()]
    if args.snr_db is not None:
        cfg.eta = cfg.rho * 10.0 ** (-args.snr_db / 10.0)
    cfg.validate()
    return cfg


def cmd_analytic(cfg: ExperimentConfig) -> int:
    rows, exponents = [], {}
    for name in cfg.schemes:
        scheme = Scheme.from_name(name)
        m, n, k = scheme.default_config(cfg.m) if (cfg.m, cfg.n, cfg.k) == (1, 1, 1) \
            else (cfg.m, cfg.n, cfg.k)
        params = cfg.network_params().replace(M=m, N=n, K=k)
        result = analytic.density_for_scheme(params, scheme, method=cfg.method)
        rows.append(reporting.density_row(params, result))
        exponents[scheme.value] = analytic.scaling_exponent(scheme, params.alpha)
    reporting.write_output(cfg.out, "analytic", rows, reporting.DENSITY_COLUMNS,
                           cfg.format, cfg.as_dict(), exponents=exponents)
    print(f"wrote {len(rows)} analytic rows to {cfg.out}")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, find_density: bool) -> int:
    rows = []
    for name in cfg.schemes:
        scheme = Scheme.from_name(name)
        params = cfg.network_params()
        scheme.check_feasible(params)
        if find_density:
            result = find_max_density(scheme, params, seed=cfg.seed,
                                      tolerance=cfg.tolerance)
            rows.append(reporting.density_row(params, result, trials=result.extras["trials"],
                                              seed=cfg.seed))
        else:
            est = estimate_outage(scheme, params, cfg.trials, cfg.seed)
            rows.append(reporting.outage_row(est))
    kind = "density" if find_density else "outage"
    columns = reporting.DENSITY_COLUMNS if find_density else reporting.OUTAGE_COLUMNS
    reporting.write_output(cfg.out, kind, rows, columns, cfg.format, cfg.as_dict())
    print(f"wrote {len(rows)} {kind} rows to {cfg.out}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if len(cfg.grid) < 2:
        raise ConfigError("sweep needs a grid of at least 2 points")
    rows, slopes = [], {}
    any_ok = False
    base = cfg.network_params()
    for name in cfg.schemes:
        scheme = Scheme.from_name(name)
        table = run_sweep([scheme], cfg.antenna_grid(scheme), base,
                          mode=cfg.mode, seed=cfg.seed, tolerance=cfg.tolerance,
                          analytic_method=cfg.method)
        for row in table.rows:
            rows.append(reporting.sweep_row(row, base))
            any_ok = any_ok or row.error is None
        slopes.update(table.slopes)
    reporting.write_output(cfg.out, "sweep", rows, reporting.DENSITY_COLUMNS,
                           cfg.format, cfg.as_dict(), slopes=slopes)
    for key, slope in sorted(slopes.items()):
        label = "undefined" if slope is None else f"{slope:.3f}"
        print(f"slope {key[0]} [{key[1]}]: {label}")
    if not any_ok:
        print("every sweep row failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_validate(cfg: ExperimentConfig) -> int:
    results = checks.run_all(seed=cfg.seed)
    reporting.write_output(cfg.out, "validation", [], reporting.DENSITY_COLUMNS,
                           "json", cfg.as_dict(), checks=results)
    failed = [c for c in results if not c["passed"]]
    for c in results:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: residual={c['residual']:.3e} "
              f"threshold={c['threshold']:.3e}")
    print(f"report written to {cfg.out}")
    return EXIT_NUMERICAL if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate" and cfg.out == "results.csv":
        cfg.out = "validation.json"
    try:
        if args.command == "analytic":
            return cmd_analytic(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.find_density)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
    except InconclusiveBisection as exc:
        print(f"inconclusive Monte Carlo: {exc} (interval {exc.bracket})",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
