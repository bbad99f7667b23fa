"""Span arithmetic of the benchmark tracer.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Span, Tracer, rebound, self_times, union_length  # noqa: E402


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert union_length([(5.0, 6.0), (0.0, 1.0), (0.5, 5.5)]) == 6.0


def test_self_time_of_nested_children():
    # root [0, 10] > a [1, 6] > b [2, 4]
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 6.0, parent=0),
             Span("b", 2.0, 4.0, parent=1)]
    assert self_times(spans) == [5.0, 3.0, 2.0]


def test_self_time_of_siblings_counts_their_union():
    # disjoint siblings, and overlapping ones as parallel workers produce
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 3.0, parent=0),
             Span("b", 5.0, 6.0, parent=0)]
    assert self_times(spans)[0] == 7.0
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 5.0, parent=0),
             Span("b", 3.0, 8.0, parent=0)]
    assert self_times(spans) == [3.0, 4.0, 5.0]


def test_child_outside_its_parent_is_clipped():
    spans = [Span("root", 0.0, 4.0), Span("late", 3.0, 9.0, parent=0)]
    assert self_times(spans)[0] == 3.0


def test_tracer_records_parents_and_self_times():
    clock = FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    tracer = Tracer(clock)
    inner = tracer.traced("inner", lambda: None)
    outer = tracer.traced("outer", lambda: (inner(), inner()))
    with tracer.run(3, "root"):
        outer()       # outer [1, 8], inner [2, 4] and [5, 7]
    names = [(s.name, s.parent, s.run_id) for s in tracer.spans]
    assert names == [("root", None, 3), ("outer", 0, 3), ("inner", 1, 3),
                     ("inner", 1, 3)]
    assert self_times(tracer.spans) == [3.0, 3.0, 2.0, 2.0]


def test_counts_are_taken_after_the_run_closes():
    tracer = Tracer()
    seen = []

    def count(args, result, span):
        seen.append(span.end)
        return {"n": args["n"], "result": result}

    double = tracer.traced("double", lambda n: 2 * n, count)
    with tracer.run(0, "root") as root:
        assert double(n=4) == 8
        assert seen == []
    assert tracer.spans[1].counts == {"n": 4, "result": 8}
    assert root.end <= time.perf_counter()


def test_rebound_restores_on_error():
    class Owner:
        @staticmethod
        def f():
            return 1

    original = Owner.__dict__["f"]
    with pytest.raises(RuntimeError):
        with rebound([(Owner, "f", staticmethod(lambda: 2))]):
            assert Owner.f() == 2
            raise RuntimeError
    assert Owner.__dict__["f"] is original


def test_self_times_of_a_real_run_sum_to_its_wall_time():
    """A small learner run with every layer traced."""
    import numpy as np

    import layers
    from workloads import import_halftest

    ht = import_halftest()
    dist = ht.distributions
    cfg = ht.learner.LearnerConfig(
        lam=1.0, gamma=1.0, eps=0.05, noise="massart", eta=0.1,
        psgd=ht.surrogate.PsgdConfig(iterations=40, batch_size=None),
        tester=ht.testers.TesterConfig(lam=3.0, gamma=1.0, c1=3.0, c_hyper=10.0),
        n1=20_000, n2=20_000)
    tracer = Tracer()
    results = []
    for run in range(2):
        source = ht.learner.SyntheticSource(
            dist.MarginalSpec("standard_gaussian", 5),
            dist.NoiseModel("massart", (1.0, 0.0, 0.0, 0.0, 0.0), eta=0.1), seed=run)
        with rebound(layers.bindings(tracer, ht)):
            with tracer.run(run, "learner"):
                results.append(ht.learner.universal_tester_learner(source, cfg, seed=run))
    assert ht.learner.psgd.__name__ == "psgd" and not hasattr(ht.learner.psgd,
                                                              "__wrapped__")
    resolution = time.get_clock_info("perf_counter").resolution
    selfs = self_times(tracer.spans)
    for run in range(2):
        members = [i for i, s in enumerate(tracer.spans) if s.run_id == run]
        root = tracer.spans[members[0]]
        assert root.parent is None
        assert all(selfs[i] >= -resolution for i in members)
        total = sum(selfs[i] for i in members)
        assert abs(total - (root.end - root.start)) <= len(members) * resolution + 1e-12
    names = {s.name for s in tracer.spans}
    assert {"distributions.draw", "surrogate.psgd", "surrogate.gradient_norms",
            "testers.stationary", "sdp.solve"} <= names
    metrics = layers.per_layer_metrics(tracer.spans)
    assert metrics["surrogate.psgd_steps"] == 40
    assert metrics["learner.candidates"] == 41
    assert metrics["distributions.points_drawn"] == 40_000
    assert 0.0 < metrics["surrogate.gradient_norms_band_frac"] < 1.0
    assert all(np.isfinite(v) for v in metrics.values())
