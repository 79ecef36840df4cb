"""Span-tree arithmetic and hook installation of the traced run."""

from repro.simulation import vector

from perfbench.spans import (Count, Hook, Span, SpanRecorder, aggregate,
                             ancestors_named, covered_seconds, install,
                             paused, self_times)


def test_covered_seconds_takes_the_union_clipped_to_the_interval():
    assert covered_seconds((0.0, 10.0), []) == 0.0
    assert covered_seconds((0.0, 10.0), [(1, 3), (2, 4), (6, 7)]) == 4.0
    assert covered_seconds((0.0, 10.0), [(-5, 2), (9, 12)]) == 3.0
    assert covered_seconds((0.0, 10.0), [(11, 12)]) == 0.0


def test_self_time_on_a_synthetic_tree():
    #   root 0..10
    #   |- a 1..4          (self 3 - 1 = 2)
    #   |  `- a1 2..3      (self 1)
    #   |- b 5..9          (self 4 - 2 = 2; its children overlap)
    #   |  |- b1 5..7
    #   |  `- b2 6..7
    #   root self = 10 - (3 + 4) = 3
    spans = [Span("root", 0, 10, -1), Span("a", 1, 4, 0), Span("a1", 2, 3, 1),
             Span("b", 5, 9, 0), Span("b1", 5, 7, 3), Span("b2", 6, 7, 3)]
    assert self_times(spans) == [3, 2, 1, 2, 2, 1]


def test_aggregate_and_exclusion():
    spans = [Span("serve.recover", 0, 4, -1), Span("p", 1, 2, 0),
             Span("p", 5, 8, -1), Span("q", 6, 7, 2)]
    assert ancestors_named(spans, "serve.recover") == [False, True, False,
                                                       False]
    totals = aggregate(spans)
    assert totals["p"] == {"s": 4, "self_s": 3, "calls": 2}
    live = aggregate(spans, exclude_under="serve.recover")
    assert live["p"] == {"s": 3, "self_s": 2, "calls": 1}


def test_recorder_nests_counts_and_pauses():
    recorder = SpanRecorder()
    recorder.enabled = True

    def inner(x):
        return [x] * x

    def outer(x):
        return recorder.call("inner", inner, (x,), {},
                             (Count("items", lambda a, r, t: len(r)),))

    recorder.call("outer", outer, (3,), {})
    with paused(recorder):
        recorder.call("outer", outer, (5,), {})
    assert [s.name for s in recorder.spans] == ["outer", "inner"]
    assert recorder.spans[1].parent == 0
    assert recorder.counters["items"] == 3


def test_install_patches_every_importer_and_restores():
    original = vector.warm_profiles
    recorder = SpanRecorder()
    restore = install(recorder, [Hook(vector, "warm_profiles", "w")])
    try:
        import repro.simulation as simulation
        assert vector.warm_profiles is not original
        assert simulation.warm_profiles is vector.warm_profiles
        recorder.enabled = True
        simulation.warm_profiles("glucosym", ["A"])
        assert [s.name for s in recorder.spans] == ["w"]
    finally:
        restore()
    assert vector.warm_profiles is original
    import repro.simulation as simulation
    assert simulation.warm_profiles is original


def test_install_wraps_classmethods():
    from repro.serve.service import MonitorService
    raw = MonitorService.__dict__["recover"]
    restore = install(SpanRecorder(), [Hook(MonitorService, "recover", "r")])
    try:
        assert isinstance(MonitorService.__dict__["recover"], classmethod)
        assert MonitorService.__dict__["recover"] is not raw
    finally:
        restore()
    assert MonitorService.__dict__["recover"] is raw


def test_install_restores_methods():
    from repro.ml.nn.lstm import LSTMLayer
    raw = LSTMLayer.__dict__["forward"]
    restore = install(SpanRecorder(), [Hook(LSTMLayer, "forward", "f")])
    assert LSTMLayer.__dict__["forward"] is not raw
    restore()
    assert LSTMLayer.__dict__["forward"] is raw


def test_benchmark_json_lists_every_per_layer_metric():
    import json
    import os
    from perfbench.tracing import PER_LAYER
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCHMARK.json")
    with open(path) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert listed == PER_LAYER
