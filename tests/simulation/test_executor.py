"""Tests for the parallel campaign execution engine (``run_plan``).

``workers`` and ``batch_size`` only change wall-clock time: every
combination must produce the traces of the serial scalar run.  Trace
equality uses the shared ``assert_traces_equal`` fixture from the
session conftest (the same assertion every parity suite uses).
"""

import numpy as np
import pytest

from repro.controllers import ControlAction
from repro.core.context import ContextVector
from repro.core.mitigation import Mitigator
from repro.core.monitor import MonitorVerdict, NO_ALERT, SafetyMonitor
from repro.fi import CampaignConfig, generate_campaign
from repro.hazards import HazardType
from repro.simulation import (
    BaselineCache,
    CampaignPlan,
    CountingSink,
    ListSink,
    NpzDirectorySink,
    ProfileCache,
    SimRun,
    get_executor,
    plan_campaign,
    plan_fault_free,
    run_campaign,
    run_fault_free,
    run_plan,
)
from repro.parallel import map_slices

#: every (workers, batch_size) combination the parity tests sweep
KNOB_GRID = [(workers, batch_size) for workers in (1, 2, 3)
             for batch_size in (1, 4)]


def small_campaign(n=6):
    scenarios = generate_campaign(CampaignConfig(
        stride=1, init_glucose_values=(100.0, 160.0),
        timing_choices=((5, 4), (10, 6))))
    return scenarios[:n]


class TestPlanning:
    def test_plan_is_patient_major(self):
        scenarios = small_campaign(3)
        plan = plan_campaign("glucosym", ["A", "B"], scenarios, n_steps=20)
        assert len(plan) == 6
        assert [r.patient_id for r in plan.runs] == ["A"] * 3 + ["B"] * 3
        assert [r.label for r in plan.runs[:3]] == [s.label for s in scenarios]

    def test_fault_free_plan(self):
        plan = plan_fault_free("glucosym", ["A"], (100.0, 160.0), n_steps=20)
        assert all(r.fault is None for r in plan.runs)
        assert [r.init_glucose for r in plan.runs] == [100.0, 160.0]

    def test_invalid_n_steps(self):
        with pytest.raises(ValueError):
            CampaignPlan(platform="glucosym", runs=(), n_steps=0)


class TestSharding:
    """The plan slices ``run_plan`` fans out (``map_slices`` over
    ``plan.runs``)."""

    def plan(self, n):
        runs = tuple(SimRun(patient_id="A", init_glucose=120.0,
                            label=f"r{i}") for i in range(n))
        return CampaignPlan(platform="glucosym", runs=runs, n_steps=20)

    def chunks(self, plan, workers):
        return list(map_slices(tuple, plan.runs, workers))

    def test_chunks_concatenate_to_plan(self):
        plan = self.plan(17)
        for workers in (1, 2, 3, 5):
            chunks = self.chunks(plan, workers)
            flat = [r for chunk in chunks for r in chunk]
            assert tuple(flat) == plan.runs

    def test_chunk_sizes_balanced(self):
        chunks = self.chunks(self.plan(10), 2)
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10

    def test_deterministic(self):
        plan = self.plan(23)
        assert self.chunks(plan, 2) == self.chunks(plan, 2)

    def test_never_more_chunks_than_runs(self):
        assert len(self.chunks(self.plan(3), 4)) == 3

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError, match="workers"):
            self.chunks(self.plan(3), 0)


class TestParity:
    """The acceptance property: worker count never changes the traces."""

    def test_serial_vs_parallel_identical(self, assert_traces_equal):
        scenarios = small_campaign()
        plan = plan_campaign("glucosym", ["A", "B"], scenarios, n_steps=25)
        serial = run_plan(plan)
        parallel = run_plan(plan, workers=2)
        assert len(serial) == len(parallel) == len(plan)
        for s, p in zip(serial, parallel):
            assert_traces_equal(s, p)

    def test_worker_count_invariance(self, assert_traces_equal):
        scenarios = small_campaign(4)
        plan = plan_campaign("glucosym", ["A", "B"], scenarios, n_steps=25)
        reference = run_plan(plan, workers=1, batch_size=1)
        for workers, batch_size in KNOB_GRID:
            traces = run_plan(plan, workers=workers, batch_size=batch_size)
            assert len(traces) == len(reference)
            for a, b in zip(reference, traces):
                assert_traces_equal(a, b)

    def test_run_campaign_workers_kwarg(self, assert_traces_equal):
        scenarios = small_campaign(4)
        serial = run_campaign("glucosym", ["A"], scenarios, n_steps=25)
        parallel = run_campaign("glucosym", ["A"], scenarios, n_steps=25,
                                workers=2)
        for s, p in zip(serial, parallel):
            assert_traces_equal(s, p)

    def test_get_executor(self, assert_traces_equal):
        plan = plan_campaign("glucosym", ["A"], small_campaign(3),
                             n_steps=20)
        for a, b in zip(run_plan(plan), get_executor(2, 4).run(plan)):
            assert_traces_equal(a, b)
        with pytest.raises(ValueError):
            get_executor(0)


class TestRunMeals:
    """SimRun-level meal plans (the scenario-search path) keep parity."""

    def meal_plan(self):
        from repro.patients import Meal
        runs = (
            SimRun(patient_id="A", init_glucose=120.0, label="no-meal"),
            SimRun(patient_id="A", init_glucose=120.0, label="meal-early",
                   meals=(Meal(time=25.0, carbs=60.0),)),
            SimRun(patient_id="A", init_glucose=160.0, label="meal-late",
                   meals=(Meal(time=100.0, carbs=40.0),)),
        )
        return CampaignPlan(platform="glucosym", runs=runs, n_steps=40)

    def test_meals_affect_the_trace(self):
        traces = run_plan(self.meal_plan())
        base, early, _ = traces
        assert not np.array_equal(base.true_bg, early.true_bg)
        # carbs raise glucose relative to the meal-free run
        assert early.true_bg[10:].max() > base.true_bg[10:].max()

    def test_meal_parity_across_executors(self, assert_traces_equal):
        plan = self.meal_plan()
        scalar = run_plan(plan, batch_size=1)
        for workers, batch_size in ((1, 8), (2, 2)):
            traces = run_plan(plan, workers=workers, batch_size=batch_size)
            for s, v in zip(scalar, traces):
                assert_traces_equal(s, v)


class TestSinks:
    def test_list_sink_matches_return_value(self, assert_traces_equal):
        scenarios = small_campaign(3)
        traces = run_campaign("glucosym", ["A"], scenarios, n_steps=20)
        sink = ListSink()
        result = run_campaign("glucosym", ["A"], scenarios, n_steps=20,
                              sink=sink)
        assert result is None
        assert len(sink.traces) == 3
        for a, b in zip(traces, sink.traces):
            assert_traces_equal(a, b)

    def test_counting_sink(self):
        sink = CountingSink()
        run_campaign("glucosym", ["A"], small_campaign(3), n_steps=20,
                     sink=sink, workers=2)
        assert sink.n_traces == 3
        assert 0 <= sink.n_hazardous <= 3
        assert 0.0 <= sink.hazard_fraction <= 1.0

    def test_npz_directory_sink(self, tmp_path):
        scenarios = small_campaign(2)
        traces = run_campaign("glucosym", ["A"], scenarios, n_steps=20)
        with NpzDirectorySink(str(tmp_path)) as sink:
            run_campaign("glucosym", ["A"], scenarios, n_steps=20, sink=sink)
        files = sorted(tmp_path.glob("trace_*.npz"))
        assert len(files) == 2
        payload = np.load(files[0])
        assert str(payload["patient_id"]) == "A"
        assert np.array_equal(payload["true_bg"], traces[0].true_bg)
        assert int(payload["fault_start"]) == traces[0].fault.start_step

    def test_npz_sink_refuses_dirty_directory(self, tmp_path):
        run_campaign("glucosym", ["A"], small_campaign(1), n_steps=20,
                     sink=NpzDirectorySink(str(tmp_path)))
        with pytest.raises(FileExistsError, match="intermix"):
            NpzDirectorySink(str(tmp_path))

    def test_slow_sink_parallel_order_preserved(self, assert_traces_equal):
        """A consumer slower than the workers still sees plan order (the
        bounded in-flight window collects chunks in submission order)."""
        import time

        class SlowSink(ListSink):
            def write(self, trace):
                time.sleep(0.01)
                super().write(trace)

        scenarios = small_campaign(6)
        expected = run_campaign("glucosym", ["A"], scenarios, n_steps=20)
        sink = SlowSink()
        run_campaign("glucosym", ["A"], scenarios, n_steps=20,
                     sink=sink, workers=2)
        assert [t.label for t in sink.traces] == [t.label for t in expected]
        for a, b in zip(expected, sink.traces):
            assert_traces_equal(a, b)


class TestCaches:
    def test_profile_cache(self):
        cache = ProfileCache()
        calls = []

        def compute():
            calls.append(1)
            return {"basal": 1.0}

        first = cache.get_or_compute(("p", 120.0), compute)
        second = cache.get_or_compute(("p", 120.0), compute)
        assert first == second == {"basal": 1.0}
        assert len(calls) == 1
        first["basal"] = 99.0  # returned dicts are copies
        assert cache.get_or_compute(("p", 120.0), compute) == {"basal": 1.0}
        cache.clear()
        assert len(cache) == 0

    def test_baseline_cache_hits(self):
        cache = BaselineCache()
        first = run_fault_free("glucosym", ["A"], (100.0,), n_steps=20,
                               cache=cache)
        assert cache.misses == 1 and cache.hits == 0 and len(cache) == 1
        second = run_fault_free("glucosym", ["A"], (100.0,), n_steps=20,
                                cache=cache)
        assert cache.hits == 1
        assert first[0] is second[0]

    def test_cached_call_still_validates_settings(self):
        cache = BaselineCache()
        run_fault_free("glucosym", ["A"], (100.0,), n_steps=20, cache=cache)
        with pytest.raises(ValueError, match="workers"):
            run_fault_free("glucosym", ["A"], (100.0,), n_steps=20,
                           cache=cache, workers=0)
        with pytest.raises(ValueError, match="batch_size"):
            run_fault_free("glucosym", ["A"], (100.0,), n_steps=20,
                           cache=cache, batch_size=0)

    def test_baseline_cache_distinguishes_configs(self):
        cache = BaselineCache()
        run_fault_free("glucosym", ["A"], (100.0,), n_steps=20, cache=cache)
        run_fault_free("glucosym", ["A"], (100.0,), n_steps=25, cache=cache)
        run_fault_free("glucosym", ["A"], (120.0,), n_steps=20, cache=cache)
        assert len(cache) == 3 and cache.hits == 0

    def test_monitored_runs_bypass_cache(self):
        from repro.core import cawot_monitor
        cache = BaselineCache()
        run_fault_free("glucosym", ["A"], (100.0,), n_steps=20, cache=cache,
                       monitor_factory=lambda pid: cawot_monitor())
        assert len(cache) == 0

    def test_cache_none_disables(self):
        traces = run_fault_free("glucosym", ["A"], (100.0,), n_steps=20,
                                cache=None)
        assert len(traces) == 1


class StickyMonitor(SafetyMonitor):
    """Latches permanently after the first high reading — until reset."""

    name = "sticky"

    def __init__(self, threshold=180.0):
        self.threshold = threshold
        self.latched = False

    def reset(self):
        self.latched = False

    def observe(self, ctx: ContextVector) -> MonitorVerdict:
        if ctx.bg > self.threshold:
            self.latched = True
        if self.latched:
            return MonitorVerdict(alert=True, hazard=HazardType.H2,
                                  triggered=("sticky",))
        return NO_ALERT


class EscalatingMitigator(Mitigator):
    """Stateful strategy: each correction in a run doses harder."""

    def __init__(self):
        self.n_corrections = 0

    def reset(self):
        self.n_corrections = 0

    def correct(self, verdict, ctx):
        if not verdict.alert:
            return ctx.rate, ctx.bolus
        self.n_corrections += 1
        return min(0.5 * self.n_corrections, 5.0), 0.0


class TestScenarioOrderIndependence:
    """Regression: a late scenario must not inherit monitor/mitigator state
    from an earlier injection in the same campaign (the closed loop resets
    both at the start of every run)."""

    def scenarios(self):
        # a scenario that drives BG high (latches the sticky monitor and
        # triggers escalating mitigation) followed by a benign one
        all_scenarios = generate_campaign(CampaignConfig(
            init_glucose_values=(120.0,), timing_choices=((0, 30),)))
        harsh = next(s for s in all_scenarios
                     if s.label.startswith("truncate_rate"))
        benign = next(s for s in all_scenarios
                      if s.label.startswith("hold_glucose"))
        return harsh, benign

    def run_one(self, scenario_list, mitigator):
        return run_campaign(
            "glucosym", ["A"], scenario_list,
            monitor_factory=lambda pid: StickyMonitor(),
            mitigator=mitigator, n_steps=40)

    def test_monitor_and_mitigator_state_reset_between_scenarios(
            self, assert_traces_equal):
        first, second = self.scenarios()
        alone = self.run_one([second], EscalatingMitigator())[0]
        after_first = self.run_one([first, second], EscalatingMitigator())[1]
        assert_traces_equal(alone, after_first)

    def test_order_permutation_gives_same_traces(self, assert_traces_equal):
        first, second = self.scenarios()
        forward = self.run_one([first, second], EscalatingMitigator())
        backward = self.run_one([second, first], EscalatingMitigator())
        assert_traces_equal(forward[0], backward[1])
        assert_traces_equal(forward[1], backward[0])

    def test_unreset_mitigator_would_diverge(self):
        """The escalating mitigator really is stateful: without the loop's
        reset call its dosing depends on history, which is what this
        regression guards against."""
        mit = EscalatingMitigator()
        verdict = MonitorVerdict(alert=True, hazard=HazardType.H2)
        ctx = ContextVector(t=0.0, bg=200.0, bg_rate=0.0, iob=0.0,
                            iob_rate=0.0, rate=1.0, bolus=0.0,
                            action=ControlAction.KEEP)
        assert mit.correct(verdict, ctx) != mit.correct(verdict, ctx)
        mit.reset()
        assert mit.n_corrections == 0
