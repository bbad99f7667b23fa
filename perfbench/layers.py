"""The layer entry points the traced pass rebinds, and the per-layer metrics
computed from their spans.

Every entry point is rebound in the module that calls it, so the library
code runs unchanged and only calls that cross a layer boundary are timed.
``smooth_ramp_derivative`` opens no span: the surrogate layer hands it the
margins it evaluates, and the in-band share of those margins is the useful
fraction of the (point, candidate) pairs that ``psgd`` and
``gradient_norms`` attempt.
"""

from __future__ import annotations

import numpy as np

from tracing import Tracer, self_times

# (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("distributions.draw_s", "s"),
    ("distributions.draw_calls", "count"),
    ("distributions.points_drawn", "count"),
    ("learner.self_s", "s"),
    ("learner.sigmas", "count"),
    ("learner.candidates", "count"),
    ("surrogate.psgd_s", "s"),
    ("surrogate.psgd_steps", "count"),
    ("surrogate.psgd_band_frac", "ratio"),
    ("surrogate.gradient_norms_s", "s"),
    ("surrogate.gradient_norms_pairs", "count"),
    ("surrogate.gradient_norms_band_frac", "ratio"),
    ("testers.stationary_s", "s"),
    ("testers.stationary_calls", "count"),
    ("testers.disagreement_s", "s"),
    ("testers.disagreement_calls", "count"),
    ("testers.hyper_s", "s"),
    ("testers.hyper_calls", "count"),
    ("sos_hyper.tensor_s", "s"),
    ("sos_hyper.build_s", "s"),
    ("sos_hyper.formulation_s", "s"),
    ("sos_hyper.matrix_n", "count"),
    ("sos_hyper.constraints_m", "count"),
    ("sdp.solve_s", "s"),
    ("sdp.solves", "count"),
    ("sdp.iterations", "count"),
    ("sdp.s_per_iteration", "s"),
    ("sdp.optimal_frac", "ratio"),
    ("numerics.eig_s", "s"),
    ("numerics.project_s", "s"),
)

# span name -> per-layer time metric it feeds (self time, summed per run)
SELF_TIME = {
    "distributions.draw": "distributions.draw_s",
    "learner": "learner.self_s",
    "surrogate.psgd": "surrogate.psgd_s",
    "surrogate.gradient_norms": "surrogate.gradient_norms_s",
    "testers.stationary": "testers.stationary_s",
    "testers.disagreement": "testers.disagreement_s",
    "testers.hyper": "testers.hyper_s",
    "sos_hyper.tensor": "sos_hyper.tensor_s",
    "sos_hyper.build": "sos_hyper.build_s",
    "sos_hyper.relaxation": "sos_hyper.formulation_s",
    "sdp.solve": "sdp.solve_s",
    "numerics.eig": "numerics.eig_s",
    "numerics.project": "numerics.project_s",
}


def _in_band(span, sigma: float) -> int:
    """Margins handed to the ramp derivative that fall inside |t| < sigma/2."""
    count = sum(int(np.count_nonzero(np.abs(t) < sigma / 2.0)) for t in span.held)
    span.held.clear()
    return count


def _draw_counts(args, result, span):
    return {"points": int(result.n)}


def _psgd_counts(args, result, span):
    ds, cfg = args["ds"], args["cfg"]
    steps = len(result) - 1
    full_batch = cfg.batch_size is None or cfg.batch_size >= ds.n
    per_step = ds.n if full_batch else cfg.batch_size
    return {"steps": steps, "pairs": steps * per_step,
            "in_band": _in_band(span, args["p"].sigma)}


def _gradient_norms_counts(args, result, span):
    k = int(np.atleast_2d(args["ws"]).shape[0])
    return {"candidates": k, "pairs": k * args["ds"].n,
            "in_band": _in_band(span, args["p"].sigma)}


def _build_counts(args, result, span):
    return {"matrix_n": int(result.n), "constraints_m": len(result.constraints)}


def _sdp_counts(args, result, span):
    return {"iterations": int(result.iterations), "optimal": int(result.optimal)}


def bindings(tracer: Tracer, ht) -> list:
    """(owner, attribute, traced replacement) for every layer boundary.

    ``ht`` holds the imported halftest modules as attributes.
    """
    learner, surrogate, testers, sos_hyper = (ht.learner, ht.surrogate,
                                              ht.testers, ht.sos_hyper)
    ramp_derivative = surrogate.smooth_ramp_derivative

    def counted_ramp_derivative(t, p):
        span = tracer.innermost()
        if span is not None:
            span.held.append(t)
        return ramp_derivative(t, p)

    def span(owner, attr, name, count=None):
        return (owner, attr, tracer.traced(name, owner.__dict__[attr], count))

    return [
        span(learner.SyntheticSource, "draw", "distributions.draw", _draw_counts),
        span(learner, "psgd", "surrogate.psgd", _psgd_counts),
        span(learner, "gradient_norms", "surrogate.gradient_norms",
             _gradient_norms_counts),
        (surrogate, "smooth_ramp_derivative", counted_ramp_derivative),
        span(learner, "stationary_point_test", "testers.stationary"),
        span(learner, "local_disagreement_test", "testers.disagreement"),
        span(testers, "hypercontractivity_test", "testers.hyper"),
        span(testers, "empirical_fourth_moment_tensor", "sos_hyper.tensor"),
        span(testers, "solve_relaxation", "sos_hyper.relaxation"),
        span(sos_hyper, "build_degree4_relaxation", "sos_hyper.build",
             _build_counts),
        span(sos_hyper, "solve_sdp", "sdp.solve", _sdp_counts),
        span(testers, "min_eigenvalue", "numerics.eig"),
        span(testers, "operator_norm", "numerics.eig"),
        span(testers, "project_orthogonal", "numerics.project"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list) -> dict:
    """Per-run means over the traced pass (ratios pooled over the pass).

    A layer that does not run on the workload reports 0.
    """
    runs = sum(1 for s in spans if s.parent is None)
    selfs = self_times(spans)
    values = {name: 0.0 for name, _ in PER_LAYER}
    calls: dict = {}
    totals: dict = {}
    for span, own in zip(spans, selfs):
        metric = SELF_TIME.get(span.name)
        if metric is not None:
            values[metric] += own
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, val in span.counts.items():
            totals[(span.name, key)] = totals.get((span.name, key), 0) + val

    def total(name, key):
        return totals.get((name, key), 0)

    values["sdp.s_per_iteration"] = _ratio(values["sdp.solve_s"],
                                           total("sdp.solve", "iterations"))
    for metric in SELF_TIME.values():
        values[metric] = _ratio(values[metric], runs)
    values.update({
        "distributions.draw_calls": _ratio(calls.get("distributions.draw", 0), runs),
        "distributions.points_drawn": _ratio(total("distributions.draw", "points"),
                                             runs),
        "learner.sigmas": _ratio(calls.get("surrogate.psgd", 0), runs),
        "learner.candidates": _ratio(total("surrogate.gradient_norms",
                                           "candidates"), runs),
        "surrogate.psgd_steps": _ratio(total("surrogate.psgd", "steps"), runs),
        "surrogate.psgd_band_frac": _ratio(total("surrogate.psgd", "in_band"),
                                           total("surrogate.psgd", "pairs")),
        "surrogate.gradient_norms_pairs": _ratio(
            total("surrogate.gradient_norms", "pairs"), runs),
        "surrogate.gradient_norms_band_frac": _ratio(
            total("surrogate.gradient_norms", "in_band"),
            total("surrogate.gradient_norms", "pairs")),
        "testers.stationary_calls": _ratio(calls.get("testers.stationary", 0), runs),
        "testers.disagreement_calls": _ratio(calls.get("testers.disagreement", 0),
                                             runs),
        "testers.hyper_calls": _ratio(calls.get("testers.hyper", 0), runs),
        "sos_hyper.matrix_n": _ratio(total("sos_hyper.build", "matrix_n"),
                                     calls.get("sos_hyper.build", 0)),
        "sos_hyper.constraints_m": _ratio(total("sos_hyper.build", "constraints_m"),
                                          calls.get("sos_hyper.build", 0)),
        "sdp.solves": _ratio(calls.get("sdp.solve", 0), runs),
        "sdp.iterations": _ratio(total("sdp.solve", "iterations"), runs),
        "sdp.optimal_frac": _ratio(total("sdp.solve", "optimal"),
                                   calls.get("sdp.solve", 0)),
    })
    return values
