"""Parity suite for lock-step monitor replay, mining and titration.

The contract under test is the one the vector simulation engine set:
``batch_size`` (like ``workers``) is a wall-clock knob, never a semantics
knob.  Replay runs in lock step at every width (B=1 included), so its
reference is the scalar per-cycle ``replay_monitor`` loop: alert streams
must equal it element-wise for every monitor kind — the vectorized
overrides (CAWT/CAWOT rules, DT, MLP, Guideline, MPC) and the column-loop
fallback (LSTM, user-defined monitors) alike — across batch sizes and
worker counts.  Mined robustness samples must equal a per-trace oracle
written out from the ``RuleSamples`` definition, and the batched
fault-free titration must reproduce the scalar ``empirical_isf`` bit for
bit.
"""

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import (cawot_monitor, cawt_monitor, learn_thresholds,
                        mine_rule_samples)
from repro.core.learning import MINING_WINDOW
from repro.core.monitor import MonitorVerdict, NO_ALERT, SafetyMonitor
from repro.core.rules import BG_TARGET, IOB_RATE_EPS, aps_rules, rate_mask
from repro.hazards import HazardType
from repro.ml import train_dt_monitor, train_lstm_monitor, train_mlp_monitor
from repro.ml.datasets import trace_features
from repro.parallel import iter_equal_length_groups
from repro.simulation import (ContextBatch, PROFILE_CACHE, controller_profile,
                              iter_contexts, replay_campaign, replay_monitor,
                              titrate_isf_batch, warm_profiles)
from repro.simulation.batch import empirical_isf
from repro.patients import make_patient, patient_ids

BATCH_SIZES = (1, 7, 32)
WORKER_COUNTS = (1, 2)
KNOB_GRID = [(workers, batch_size) for workers in WORKER_COUNTS
             for batch_size in BATCH_SIZES]


class RisingStreakMonitor(SafetyMonitor):
    """Stateful user-defined monitor that does NOT override observe_batch:
    alerts after three consecutive rising-BG cycles.  Exercises the
    base-class column-loop fallback."""

    name = "rising-streak"

    def __init__(self):
        self._streak = 0

    def reset(self) -> None:
        self._streak = 0

    def observe(self, ctx) -> MonitorVerdict:
        self._streak = self._streak + 1 if ctx.bg_rate > 0.0 else 0
        if self._streak >= 3:
            return MonitorVerdict(alert=True, hazard=HazardType.H2,
                                  triggered=("rising",))
        return NO_ALERT


def assert_matches_scalar(monitors, traces, knob_grid):
    """Replay at every ``(workers, batch_size)`` of *knob_grid* equals the
    reference: each trace through the scalar ``observe`` loop."""
    reference = {name: [replay_monitor(monitor, trace)[0]
                        for trace in traces]
                 for name, monitor in monitors.items()}
    for workers, batch_size in knob_grid:
        replayed = replay_campaign(monitors, traces, workers=workers,
                                   batch_size=batch_size)
        for name in monitors:
            assert len(replayed[name]) == len(traces)
            for a, b in zip(reference[name], replayed[name]):
                assert np.array_equal(a, b), (name, workers, batch_size)


def oracle_rule_samples(traces, window=MINING_WINDOW, bg_target=BG_TARGET):
    """Per-trace robustness statistics written out from the RuleSamples
    definition: ``(rule index, hazard values, safe values)`` per rule."""
    rules = aps_rules()
    hazard = {rule.index: [] for rule in rules}
    safe = {rule.index: [] for rule in rules}
    for trace in traces:
        bg, label = trace.cgm, trace.hazard_label
        bg_rate = np.concatenate([[0.0], np.diff(bg) / trace.dt])
        # normal operation: a whole safe fault-free run, otherwise what
        # precedes the fault (and the hazard, if that comes first)
        if trace.fault_step is None:
            safe_stop = 0 if label.any_hazard else len(trace)
        elif label.any_hazard:
            safe_stop = min(trace.fault_step, label.first_hazard)
        else:
            safe_stop = trace.fault_step
        for rule in rules:
            side = {"above": bg > bg_target, "below": bg < bg_target}
            acted = trace.action == int(rule.action)
            mask = (side.get(rule.bg_side, True)
                    & rate_mask(bg_rate, rule.bg_rate, 0.0)
                    & rate_mask(trace.iob_rate, rule.iob_rate, IOB_RATE_EPS)
                    & (~acted if rule.required else acted))
            mu = trace.iob if rule.mu_channel == "IOB" else bg
            pick = np.min if rule.direction == "lt" else np.max
            spans = [(safe, 0, safe_stop)]
            if label.any_hazard and label.first_type == rule.hazard:
                stop = label.first_hazard + 1
                start = 0 if window is None else max(0, stop - window)
                spans.insert(0, (hazard, start, stop))
            for out, start, stop in spans:
                if mask[start:stop].any():
                    out[rule.index].append(
                        float(pick(mu[start:stop][mask[start:stop]])))
    return [(rule.index, hazard[rule.index], safe[rule.index])
            for rule in rules]


@pytest.fixture(scope="module")
def fast_monitors(tiny_campaign_traces):
    """Every monitor kind with a vectorized observe_batch, plus CAWT."""
    thresholds = learn_thresholds(tiny_campaign_traces).thresholds
    return {
        "CAWT": cawt_monitor(thresholds),
        "CAWOT": cawot_monitor(),
        "Guideline": GuidelineMonitor(),
        "MPC": MPCMonitor(),
        "DT": train_dt_monitor(tiny_campaign_traces),
        "DTmc": train_dt_monitor(tiny_campaign_traces, multiclass=True),
        "MLP": train_mlp_monitor(tiny_campaign_traces, max_epochs=3),
    }


@pytest.fixture(scope="module")
def lstm_monitor(tiny_campaign_traces):
    return train_lstm_monitor(tiny_campaign_traces, max_epochs=2)


class TestBatchedReplayParity:
    def test_all_monitor_kinds_all_batch_sizes_and_workers(
            self, fast_monitors, tiny_campaign_traces):
        assert_matches_scalar(fast_monitors, tiny_campaign_traces, KNOB_GRID)

    def test_lstm_fallback_parity(self, lstm_monitor, tiny_campaign_traces):
        # the LSTM is stateful over sliding windows and uses the base
        # class's column-loop fallback; a trace subset keeps this fast
        traces = list(tiny_campaign_traces[:10])
        assert_matches_scalar({"LSTM": lstm_monitor}, traces, KNOB_GRID)

    def test_hazard_codes_match_scalar_replay(self, fast_monitors,
                                              tiny_campaign_traces):
        traces = list(tiny_campaign_traces[:12])
        for name, monitor in fast_monitors.items():
            reference = [replay_monitor(monitor, trace) for trace in traces]
            for batch_size in BATCH_SIZES:
                columns = []
                for group in iter_equal_length_groups(traces, batch_size):
                    alerts, hazards = monitor.observe_batch(
                        ContextBatch.from_traces(group))
                    columns.extend(zip(alerts.T, hazards.T))
                assert len(columns) == len(traces)
                for (alerts, hazards), (ref_alerts, ref_hazards) in zip(
                        columns, reference):
                    assert np.array_equal(alerts, ref_alerts), name
                    assert np.array_equal(hazards, ref_hazards), name

    def test_mixed_length_stream_batches(self, fast_monitors,
                                         tiny_campaign_traces,
                                         tiny_fault_free_traces):
        # campaign (150 steps) and fault-free (60 steps) traces interleave
        # into length-homogeneous groups without reordering the stream
        mixed = (list(tiny_campaign_traces[:5]) + list(tiny_fault_free_traces)
                 + list(tiny_campaign_traces[5:9]))
        assert_matches_scalar(fast_monitors, mixed, [(1, 1), (1, 4), (2, 4)])

    def test_custom_monitor_fallback(self, tiny_campaign_traces):
        assert_matches_scalar({"custom": RisingStreakMonitor()},
                              tiny_campaign_traces, KNOB_GRID)

    def test_generator_input_streams(self, fast_monitors,
                                     tiny_campaign_traces):
        reference = replay_campaign(fast_monitors, tiny_campaign_traces)
        for batch_size in (1, 16):
            streamed = replay_campaign(fast_monitors,
                                       iter(tiny_campaign_traces),
                                       batch_size=batch_size)
            for name in fast_monitors:
                assert all(np.array_equal(a, b) for a, b in
                           zip(reference[name], streamed[name]))

    def test_env_batch_size(self, monkeypatch, tiny_campaign_traces):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "16")
        assert_matches_scalar({"m": cawot_monitor()}, tiny_campaign_traces,
                              [(None, None)])


class TestEdgeCases:
    def test_empty_trace_stream(self, fast_monitors):
        for batch_size in (1, 32):
            out = replay_campaign(fast_monitors, [], batch_size=batch_size)
            assert out == {name: [] for name in fast_monitors}

    def test_single_column_batch(self, tiny_campaign_traces):
        trace = tiny_campaign_traces[0]
        batch = ContextBatch.from_traces([trace])
        assert batch.shape == (len(trace), 1)
        alerts, hazards = cawot_monitor().observe_batch(batch)
        ref_alerts, ref_hazards = replay_monitor(cawot_monitor(), trace)
        assert np.array_equal(alerts[:, 0], ref_alerts)
        assert np.array_equal(hazards[:, 0], ref_hazards)

    def test_context_batch_rejects_empty_and_ragged(self,
                                                    tiny_campaign_traces,
                                                    tiny_fault_free_traces):
        with pytest.raises(ValueError, match="zero traces"):
            ContextBatch.from_traces([])
        with pytest.raises(ValueError, match="one length"):
            ContextBatch.from_traces([tiny_campaign_traces[0],
                                      tiny_fault_free_traces[0]])

    def test_invalid_batch_size(self, tiny_campaign_traces):
        with pytest.raises(ValueError, match="batch_size"):
            replay_campaign({"m": cawot_monitor()}, tiny_campaign_traces,
                            batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_equal_length_groups(tiny_campaign_traces, 0))

    def test_misshapen_observe_batch_fails_loudly(self,
                                                  tiny_campaign_traces):
        class Broken(SafetyMonitor):
            def observe(self, ctx):
                return NO_ALERT

            def observe_batch(self, batch):
                return np.zeros((1, 1), dtype=bool), np.zeros((1, 1), int)

        for batch_size in (1, 8):
            with pytest.raises(ValueError, match="verdict matrices"):
                replay_campaign({"broken": Broken()}, tiny_campaign_traces,
                                batch_size=batch_size)

    def test_iter_trace_batches_grouping(self, tiny_campaign_traces,
                                         tiny_fault_free_traces):
        mixed = (list(tiny_campaign_traces[:3]) + list(tiny_fault_free_traces)
                 + list(tiny_campaign_traces[3:8]))
        groups = list(iter_equal_length_groups(mixed, 2))
        flat = [trace for group in groups for trace in group]
        assert [id(t) for t in flat] == [id(t) for t in mixed]
        for group in groups:
            assert len(group) <= 2
            assert len({len(t) for t in group}) == 1


class TestContextBatch:
    def test_columns_match_scalar_context_stream(self, tiny_campaign_traces):
        traces = list(tiny_campaign_traces[:4])
        batch = ContextBatch.from_traces(traces)
        for b, trace in enumerate(traces):
            for ctx_col, ctx_ref in zip(batch.iter_column(b),
                                        iter_contexts(trace)):
                assert ctx_col == ctx_ref
            np.testing.assert_array_equal(batch.column_features(b),
                                          trace_features(trace))

    def test_channel_views(self, tiny_campaign_traces):
        trace = tiny_campaign_traces[0]
        batch = ContextBatch.from_traces([trace, trace])
        np.testing.assert_array_equal(batch.bg[:, 0], trace.cgm)
        np.testing.assert_array_equal(batch.iob[:, 1], trace.iob)
        np.testing.assert_array_equal(batch.action[:, 0], trace.action)
        np.testing.assert_array_equal(batch.t[:, 1], trace.t)
        assert batch.dt.tolist() == [trace.dt, trace.dt]


class TestBatchedMining:
    def test_mined_samples_identical(self, tiny_campaign_traces,
                                     tiny_fault_free_traces):
        # mixed lengths exercise the group-boundary path
        traces = list(tiny_campaign_traces) + list(tiny_fault_free_traces)
        for window in (1, 3, MINING_WINDOW, None):
            oracle = oracle_rule_samples(traces, window=window)
            assert any(values for _, values, _ in oracle)
            for batch_size in BATCH_SIZES:
                for workers in WORKER_COUNTS:
                    mined = mine_rule_samples(traces, window=window,
                                              batch_size=batch_size,
                                              workers=workers)
                    for samples, (index, values, safe) in zip(mined, oracle):
                        assert samples.rule.index == index
                        assert samples.values.tolist() == values
                        assert samples.safe_values.tolist() == safe

    def test_thresholds_byte_identical_with_batch_and_workers(
            self, tiny_campaign_traces, tiny_fault_free_traces):
        traces = list(tiny_campaign_traces) + list(tiny_fault_free_traces)
        reference = learn_thresholds(traces, batch_size=1, workers=1)
        for batch_size in BATCH_SIZES:
            for workers in WORKER_COUNTS:
                learned = learn_thresholds(traces, batch_size=batch_size,
                                           workers=workers)
                assert learned.thresholds == reference.thresholds


class TestBatchedTitration:
    @pytest.mark.parametrize("platform", ["glucosym", "t1ds2013"])
    def test_bit_identical_to_scalar_empirical_isf(self, platform):
        ids = patient_ids(platform)
        patients = [make_patient(platform, pid, target_glucose=120.0)
                    for pid in ids]
        batched = titrate_isf_batch(patients, 120.0)
        scalar = np.array([
            empirical_isf(make_patient(platform, pid, target_glucose=120.0),
                          120.0)
            for pid in ids])
        np.testing.assert_array_equal(batched, scalar)

    def test_empty_cohort(self):
        assert titrate_isf_batch([], 120.0).shape == (0,)

    def test_mixed_model_families_rejected(self):
        patients = [make_patient("glucosym", "A"),
                    make_patient("t1ds2013", "P01")]
        with pytest.raises(ValueError, match="one patient model family"):
            titrate_isf_batch(patients, 120.0)

    def test_t1d_off_target_anchor_rejected(self):
        patient = make_patient("t1ds2013", "P01", target_glucose=110.0)
        with pytest.raises(ValueError, match="target_glucose"):
            titrate_isf_batch([patient], 120.0)

    def test_warm_profiles_matches_serial_titration(self):
        PROFILE_CACHE.clear()
        warmed = warm_profiles("glucosym", ["A", "B", "C"])
        PROFILE_CACHE.clear()
        for pid in ("A", "B", "C"):
            patient = make_patient("glucosym", pid, target_glucose=120.0)
            assert warmed[pid] == controller_profile(patient, 120.0), pid

    def test_warm_profiles_seeds_cache(self):
        PROFILE_CACHE.clear()
        warm_profiles("glucosym", ["A", "B"])
        assert ("glucosym/A", 120.0) in PROFILE_CACHE
        assert ("glucosym/B", 120.0) in PROFILE_CACHE
        # a second call is pure lookups and returns the same profiles
        again = warm_profiles("glucosym", ["A", "B"])
        assert set(again) == {"A", "B"}
