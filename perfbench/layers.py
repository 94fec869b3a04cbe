"""Per-layer metrics from one traced pass.

Which end-to-end metric each layer metric should move, and on which
workload, is listed in NOTES.md. A metric of a layer the workload does not
load reads 0 (no calls), which is the expected reading for it there.
"""

from __future__ import annotations

import json
import math
import os

import passes
import workloads
from tracer import Tracer

from sdma_capacity import montecarlo
from sdma_capacity.kernels import _SERIES_LIMIT

COUNT_METRICS = (
    "montecarlo.estimate_outage.calls",
    "montecarlo.estimate_outage.trials",
    "montecarlo.estimate_outage.points_computed",
    "montecarlo.estimate_outage.points_per_batch_computed",
    "montecarlo.find_max_density.calls",
    "montecarlo.find_max_density.estimate_calls",
    "montecarlo.find_max_density.trials",
    "montecarlo.find_max_density.probes",
    "montecarlo.find_max_density.inconclusive",
    "channel.sinr_sample.calls",
    "channel.interference_mark.calls",
    "channel.zf_precoder.calls",
    "channel.bd_precoder.calls",
    "kernels.f_coeff.calls",
    "kernels.weighted_alternating_coeff.calls",
    "kernels.outage_series.calls",
    "analytic.density_for_scheme.calls",
    "analytic.exact_density_root.calls",
    "cli.main.calls",
    "reporting.write_output.calls",
    "reporting.write_output.bytes",
)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _estimate_detail(args, kwargs, result, error):
    return (_arg(args, kwargs, 1, "params"), _arg(args, kwargs, 2, "trials"),
            _arg(args, kwargs, 3, "seed"), result)


def _first_arg(args, kwargs, result, error):
    return _arg(args, kwargs, 0, "d")


def _density_input(args, kwargs, result, error):
    return (_arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "scheme"),
            _arg(args, kwargs, 2, "method", "small-eps"))


def _written_bytes(args, kwargs, result, error):
    path = _arg(args, kwargs, 0, "path")
    return os.path.getsize(path) if error is None and os.path.exists(path) else 0


def _search_error(args, kwargs, result, error):
    return isinstance(error, montecarlo.InconclusiveBisection)


DETAILS = {
    "montecarlo.estimate_outage": _estimate_detail,
    "montecarlo.find_max_density": _search_error,
    "kernels.weighted_alternating_coeff": _first_arg,
    "kernels.outage_series": _first_arg,
    "analytic.density_for_scheme": _density_input,
    "reporting.write_output": _written_bytes,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, cache_counts: tuple[int, int]) -> dict:
    s = tr.summary()

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def per_call(name, scale):
        info = s.get(name, {"calls": 0, "ns": 0.0})
        return _ratio(info["ns"], info["calls"]) / scale

    def self_ms(name):
        return s.get(name, {}).get("self_ns", 0.0) / 1e6

    m: dict[str, float] = {}
    radius = tr.originals["channel.default_window_radius"]

    # montecarlo trial generator
    est = tr.spans_of("montecarlo.estimate_outage")
    trials = points = 0.0
    per_batch = 0.0
    for i in est:
        params, n, _seed, _res = tr.extra[int(i)]
        per_trial = params.lam * math.pi * radius(params) ** 2
        trials += n
        points += n * per_trial
        per_batch = max(per_batch, min(n, montecarlo.BATCH_SIZE) * per_trial)
    est_ns = tr.duration_ns(est)
    m["montecarlo.estimate_outage.calls"] = len(est)
    m["montecarlo.estimate_outage.trials"] = int(trials)
    m["montecarlo.estimate_outage.ns_per_trial"] = _ratio(est_ns, trials)
    m["montecarlo.estimate_outage.points_computed"] = round(points)
    m["montecarlo.estimate_outage.ns_per_point"] = _ratio(est_ns, points)
    m["montecarlo.estimate_outage.points_per_batch_computed"] = round(per_batch)

    # montecarlo density estimator
    searches = tr.spans_of("montecarlo.find_max_density")
    inner = tr.children_of("montecarlo.find_max_density", "montecarlo.estimate_outage")
    decisive = s_trials = indecisive_trials = 0
    probes = set()
    for i in inner:
        params, n, seed, res = tr.extra[int(i)]
        probes.add((int(tr.parent[int(i)]), seed))
        s_trials += n
        if res.ci_low > params.epsilon or res.ci_high < params.epsilon:
            decisive += 1
        else:
            indecisive_trials += n
    m["montecarlo.find_max_density.calls"] = len(searches)
    m["montecarlo.find_max_density.estimate_calls"] = len(inner)
    m["montecarlo.find_max_density.trials"] = s_trials
    m["montecarlo.find_max_density.probes"] = len(probes)
    m["montecarlo.find_max_density.decisive_ratio"] = _ratio(decisive, len(inner))
    m["montecarlo.find_max_density.indecisive_trial_share"] = _ratio(indecisive_trials, s_trials)
    m["montecarlo.find_max_density.inconclusive"] = sum(bool(tr.extra[int(i)]) for i in searches)

    # channel
    for name in ("sinr_sample", "interference_mark", "zf_precoder", "bd_precoder"):
        m[f"channel.{name}.calls"] = calls(f"channel.{name}")
        m[f"channel.{name}.us_per_call"] = per_call(f"channel.{name}", 1e3)
    m["channel.interference_mark.per_trial"] = _ratio(calls("channel.interference_mark"),
                                                      calls("channel.sinr_sample"))
    m["channel.signal_gain.us_per_call"] = per_call("channel.signal_gain", 1e3)

    # kernels
    m["kernels.f_coeff.calls"] = calls("kernels.f_coeff")
    m["kernels.f_coeff.self_ms"] = self_ms("kernels.f_coeff")
    for name, share in (("weighted_alternating_coeff", "quad_share"),
                        ("outage_series", "mpmath_share")):
        idx = tr.spans_of(f"kernels.{name}")
        large = sum(tr.extra[int(i)] > _SERIES_LIMIT for i in idx)
        m[f"kernels.{name}.calls"] = len(idx)
        m[f"kernels.{name}.self_ms"] = self_ms(f"kernels.{name}")
        m[f"kernels.{name}.{share}"] = _ratio(large, len(idx))
    hits, misses = cache_counts
    m["kernels.interference_coeff.cache_hit_ratio"] = _ratio(hits, hits + misses)

    # analytic
    dens = tr.spans_of("analytic.density_for_scheme")
    seen, repeats = set(), 0
    for i in dens:
        key = tr.extra[int(i)]
        repeats += key in seen
        seen.add(key)
    m["analytic.density_for_scheme.calls"] = len(dens)
    m["analytic.density_for_scheme.us_per_call"] = per_call("analytic.density_for_scheme", 1e3)
    m["analytic.repeat_input_share"] = _ratio(repeats, len(dens))
    roots = calls("analytic.exact_density_root")
    m["analytic.exact_density_root.calls"] = roots
    m["analytic.exact_density_root.ms_per_call"] = per_call("analytic.exact_density_root", 1e6)
    m["analytic.exact_density_root.outage_evals_per_root"] = _ratio(
        len(tr.children_of("analytic.exact_density_root", "analytic.exact_outage")), roots)

    # front end
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_ms"] = self_ms("cli.main")
    m["cli.build_parser.us_per_call"] = per_call("cli.build_parser", 1e3)
    writes = tr.spans_of("reporting.write_output")
    m["reporting.write_output.calls"] = len(writes)
    m["reporting.write_output.ms_per_call"] = per_call("reporting.write_output", 1e6)
    m["reporting.write_output.bytes"] = int(sum(tr.extra[int(i)] for i in writes))

    # checks
    m["checks.run_all.s"] = s.get("checks.run_all", {}).get("ns", 0.0) / 1e9
    return m


def traced_pass(workload: str, seed: int, out_dir: str) -> dict:
    """Pass 0 with every public function of the package wrapped."""
    refs = workloads.References()
    tr = Tracer(DETAILS)
    tr.install()
    cache = tr.originals["kernels.interference_coeff"].cache_info
    counted = [0, 0]
    mark = []

    # interference_coeff cache hits are counted only while the tracer records
    def resume():
        mark[:] = cache()[:2]
        tr.active = True

    def pause():
        tr.active = False
        now = cache()
        counted[0] += now.hits - mark[0]
        counted[1] += now.misses - mark[1]

    try:
        resume()
        res = passes.run_pass(workload, seed, 0, out_dir, refs, pause, resume)
        pause()
    finally:
        tr.uninstall()
    metrics = layer_metrics(tr, tuple(counted))
    with open(out_dir.rstrip(os.sep) + ".spans.json", "w") as fh:
        json.dump(tr.summary(), fh, indent=1, sort_keys=True)
    return {**res.as_dict(), "layers": metrics, "span_count": int(len(tr.name_id)),
            "counts": {k: metrics[k] for k in COUNT_METRICS}}

