"""Tests for the lock-step vectorized simulation engine.

The acceptance property is exact parity: for any batch composition, batch
size and worker count, the vectorized engine must produce traces
element-wise identical to the scalar closed loop (the shared
``assert_traces_equal`` fixture asserts every array channel and all
metadata).
"""

import numpy as np
import pytest

from repro.controllers.iob import InsulinActivityCurve, IOBCalculator
from repro.fi import (CampaignConfig, FaultKind, FaultSpec, FaultTarget,
                      generate_campaign)
from repro.patients import Meal
from repro.simulation import (Scenario, get_executor, make_loop,
                              plan_campaign, plan_fault_free, run_batch,
                              run_campaign, run_fault_free, run_plan)
from repro.simulation import vector as vector_engine
from repro.simulation.executor import SimRun


def small_campaign(n=8):
    scenarios = generate_campaign(CampaignConfig(
        stride=1, init_glucose_values=(90.0, 160.0),
        timing_choices=((0, 6), (8, 10))))
    return scenarios[:n]


def scalar_reference(platform, runs, n_steps, meals=()):
    """Drive each run through the scalar ClosedLoop, one at a time."""
    traces = []
    for run in runs:
        loop = make_loop(platform, run.patient_id)
        from repro.fi import FaultInjector
        loop.injector = FaultInjector(run.fault) if run.fault else None
        traces.append(loop.run(Scenario(init_glucose=run.init_glucose,
                                        n_steps=n_steps, label=run.label,
                                        meals=tuple(meals))))
    return traces


class TestCampaignParity:
    """run_campaign(batch_size=...) must be invisible in the output."""

    @pytest.mark.parametrize("platform,patients", [
        ("glucosym", ["A", "B"]),
        ("t1ds2013", ["P01", "P02"]),
    ])
    def test_serial_vs_vector_both_platforms(self, platform, patients,
                                             assert_traces_equal):
        scenarios = small_campaign(6)
        serial = run_campaign(platform, patients, scenarios, n_steps=30)
        vector = run_campaign(platform, patients, scenarios, n_steps=30,
                              batch_size=8)
        assert len(serial) == len(vector) == 12
        for s, v in zip(serial, vector):
            assert_traces_equal(s, v)

    def test_any_batch_size_identical(self, assert_traces_equal):
        scenarios = small_campaign(7)  # deliberately awkward sizes
        reference = run_campaign("glucosym", ["A"], scenarios, n_steps=25)
        for batch_size in (2, 3, 7, 50):  # ragged, exact, oversized
            vector = run_campaign("glucosym", ["A"], scenarios, n_steps=25,
                                  batch_size=batch_size)
            for s, v in zip(reference, vector):
                assert_traces_equal(s, v)

    def test_batch_times_workers(self, assert_traces_equal):
        """batch_size and workers compose without changing one bit."""
        scenarios = small_campaign(8)
        plan = plan_campaign("glucosym", ["A", "B"], scenarios, n_steps=25)
        reference = run_plan(plan)
        for workers in (1, 2, 3):
            for batch_size in (1, 3, 4):
                combo = run_plan(plan, workers=workers, batch_size=batch_size)
                assert len(combo) == len(reference)
                for s, v in zip(reference, combo):
                    assert_traces_equal(s, v)

    def test_non_default_dt_threads_through_plan(self, assert_traces_equal):
        """CampaignPlan.dt reaches both the scalar and vector chunk paths."""
        scenarios = small_campaign(3)
        plan = plan_campaign("glucosym", ["A"], scenarios, n_steps=25,
                             dt=10.0)
        scalar = run_plan(plan)
        batched = run_plan(plan, batch_size=4)
        assert scalar[0].dt == batched[0].dt == 10.0
        for s, v in zip(scalar, batched):
            assert_traces_equal(s, v)

    def test_fault_free_vectorized(self, assert_traces_equal):
        serial = run_fault_free("glucosym", ["A", "B"], (90.0, 120.0, 180.0),
                                n_steps=30, cache=None)
        vector = run_fault_free("glucosym", ["A", "B"], (90.0, 120.0, 180.0),
                                n_steps=30, cache=None, batch_size=4)
        for s, v in zip(serial, vector):
            assert_traces_equal(s, v)

    def test_monitored_campaign_batches_exactly(self, assert_traces_equal):
        """Monitored runs batch through the vector engine (no scalar
        fallback since the mitigation vectorization): the batched traces
        equal the scalar monitored run in every field, and the dynamics
        match the monitor-less ones (a monitor alone never perturbs)."""
        from repro.core import cawot_monitor
        scenarios = small_campaign(2)
        serial = run_campaign("glucosym", ["A"], scenarios, n_steps=25,
                              monitor_factory=lambda pid: cawot_monitor())
        monitored = run_campaign("glucosym", ["A"], scenarios, n_steps=25,
                                 monitor_factory=lambda pid: cawot_monitor(),
                                 batch_size=8)
        plain = run_campaign("glucosym", ["A"], scenarios, n_steps=25,
                             batch_size=8)
        for s, m, p in zip(serial, monitored, plain):
            assert_traces_equal(s, m)
            assert np.array_equal(m.true_bg, p.true_bg)
            assert m.alert.dtype == np.bool_


class TestFaultKindCoverage:
    """Every manipulation type, across all four targets, stays exact."""

    def _runs(self, kinds_targets, start, duration):
        runs = []
        for kind, target, value in kinds_targets:
            fault = FaultSpec(kind=kind, target=target, start_step=start,
                              duration_steps=duration, value=value)
            runs.append(SimRun(patient_id="A", init_glucose=140.0,
                               label=fault.label, fault=fault))
        return runs

    @pytest.mark.parametrize("start,duration", [(0, 10), (5, 8), (20, 30)])
    def test_all_kinds_all_targets(self, start, duration,
                                   assert_traces_equal):
        grid = []
        for kind in FaultKind:
            for target in FaultTarget:
                value = {FaultKind.ADD: 60.0, FaultKind.SUB: 40.0,
                         FaultKind.SCALE: 0.5}.get(kind, 0.0)
                grid.append((kind, target, value))
        runs = self._runs(grid, start, duration)
        reference = scalar_reference("glucosym", runs, 30)
        vector = run_batch("glucosym", runs, n_steps=30)
        assert len(vector) == len(FaultKind) * len(FaultTarget)
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)

    def test_bolus_faults_on_basal_bolus_platform(self, assert_traces_equal):
        """BOLUS-target faults only matter where boluses exist (t1ds2013)."""
        grid = [(kind, FaultTarget.BOLUS,
                 {FaultKind.ADD: 2.0, FaultKind.SUB: 1.0,
                  FaultKind.SCALE: 0.5}.get(kind, 0.0))
                for kind in FaultKind]
        runs = [SimRun(patient_id="P01", init_glucose=190.0,
                       label=f"bolus/{kind.value}",
                       fault=FaultSpec(kind=kind, target=FaultTarget.BOLUS,
                                       start_step=2, duration_steps=12,
                                       value=value))
                for kind, _, value in grid]
        reference = scalar_reference("t1ds2013", runs, 30)
        vector = run_batch("t1ds2013", runs, n_steps=30)
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)


class TestBatchComposition:
    def test_mixed_patients_one_batch(self, assert_traces_equal):
        scenarios = small_campaign(3)
        runs = [SimRun(patient_id=pid, init_glucose=s.init_glucose,
                       label=s.label, fault=s.fault)
                for s in scenarios for pid in ("A", "C", "B")]
        reference = scalar_reference("glucosym", runs, 25)
        vector = run_batch("glucosym", runs, n_steps=25)
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)

    def test_mixed_fault_and_fault_free_rows(self, assert_traces_equal):
        fault = FaultSpec(FaultKind.MAX, FaultTarget.RATE, 3, 10)
        runs = [
            SimRun(patient_id="A", init_glucose=120.0, label="clean"),
            SimRun(patient_id="A", init_glucose=120.0, label="maxed",
                   fault=fault),
            SimRun(patient_id="B", init_glucose=80.0, label="clean2"),
        ]
        reference = scalar_reference("glucosym", runs, 25)
        vector = run_batch("glucosym", runs, n_steps=25)
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)

    def test_empty_batch(self):
        assert run_batch("glucosym", [], n_steps=25) == []

    def test_empty_scenario_list_campaign(self):
        assert run_campaign("glucosym", ["A"], [], batch_size=8) == []
        plan = plan_fault_free("glucosym", [], (), n_steps=25)
        assert run_plan(plan, batch_size=4) == []
        assert run_plan(plan, workers=2, batch_size=4) == []

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            run_batch("nope", [SimRun("A", 120.0, "x")], n_steps=25)

    @pytest.mark.parametrize("platform,pid", [("glucosym", "A"),
                                              ("t1ds2013", "P01")])
    def test_meals_batch_parity(self, platform, pid, assert_traces_equal):
        """Scheduled meals run through the precomputed RA / ingestion
        timelines and still match the scalar loop exactly."""
        meals = (Meal(time=20.0, carbs=45.0), Meal(time=60.0, carbs=20.0))
        runs = [SimRun(patient_id=pid, init_glucose=120.0, label="meals"),
                SimRun(patient_id=pid, init_glucose=160.0, label="meals2")]
        reference = scalar_reference(platform, runs, 30, meals=meals)
        vector = run_batch(platform, runs, n_steps=30,
                           meals=[meals, meals])
        for s, v in zip(reference, vector):
            assert_traces_equal(s, v)

    def test_run_level_meals_are_the_default_schedule(self,
                                                      assert_traces_equal):
        """With no explicit ``meals=``, each SimRun's own meal plan applies
        (the scenario-search path through the executors)."""
        meals = (Meal(time=20.0, carbs=45.0),)
        runs = [SimRun(patient_id="A", init_glucose=120.0, label="m",
                       meals=meals),
                SimRun(patient_id="A", init_glucose=160.0, label="n")]
        explicit = run_batch("glucosym", runs, n_steps=30,
                             meals=[meals, ()])
        implicit = run_batch("glucosym", runs, n_steps=30)
        for a, b in zip(explicit, implicit):
            assert_traces_equal(a, b)

    def test_misaligned_meals_rejected(self):
        with pytest.raises(ValueError, match="align"):
            run_batch("glucosym", [SimRun("A", 120.0, "x")], n_steps=10,
                      meals=[(), ()])


def chunk_batch_sizes(monkeypatch, run):
    """The lock-step widths *run* drives the vector engine at."""
    seen = []
    real = vector_engine.run_vector_chunk

    def spy(plan, runs, batch_size, **kwargs):
        seen.append(batch_size)
        return real(plan, runs, batch_size, **kwargs)

    monkeypatch.setattr(vector_engine, "run_vector_chunk", spy)
    run(plan_campaign("glucosym", ["A"], small_campaign(3), n_steps=10))
    return seen


class TestExecutorKnobs:
    def test_get_executor_batch_size(self, monkeypatch):
        assert chunk_batch_sizes(
            monkeypatch, lambda plan: run_plan(plan, batch_size=16)) == [16]
        assert chunk_batch_sizes(
            monkeypatch, get_executor(1, 16).run) == [16]

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "9")
        assert chunk_batch_sizes(monkeypatch, run_plan) == [9]

    def test_invalid_batch_size(self):
        plan = plan_campaign("glucosym", ["A"], small_campaign(1), n_steps=5)
        with pytest.raises(ValueError):
            get_executor(1, 0)
        with pytest.raises(ValueError):
            run_plan(plan, batch_size=0)
        with pytest.raises(ValueError):
            run_plan(plan, workers=2, batch_size=-1)

    def test_experiment_config_carries_batch_size(self):
        from repro.experiments import ExperimentConfig
        config = ExperimentConfig.preset("smoke", batch_size=32)
        assert config.batch_size == 32
        # parity-invariant knobs must not change the simulation cache key
        assert config.cache_key() == ExperimentConfig.preset("smoke").cache_key()
        with pytest.raises(ValueError):
            ExperimentConfig(batch_size=0)


class TestVectorizedIOB:
    """Satellite: IOBCalculator.iob_at and the cached curve constants."""

    def test_constants_cached_once(self):
        curve = InsulinActivityCurve()
        assert curve._constants is curve._constants  # cached tuple identity

    def test_iob_at_matches_scalar(self):
        calc = IOBCalculator(basal_offset=1.0)
        for step in range(24):
            calc.record(basal_u_h=1.0 + 0.25 * (step % 5), bolus_u=0.2,
                        t=step * 5.0, duration=5.0)
        times = np.arange(0.0, 180.0, 5.0)
        batch = calc.iob_at(times)
        scalar = np.array([calc.iob(t) for t in times])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-12)

    def test_curve_array_methods_match_scalar(self):
        curve = InsulinActivityCurve()
        minutes = np.array([-5.0, 0.0, 1.0, 74.9, 150.0, 299.9, 300.0, 400.0])
        np.testing.assert_allclose(
            curve.activity_at(minutes),
            [curve.activity(m) for m in minutes], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            curve.iob_fraction_at(minutes),
            [curve.iob_fraction(m) for m in minutes], rtol=1e-12)
