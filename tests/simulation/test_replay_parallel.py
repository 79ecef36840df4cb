"""Parity tests for parallel monitor replay and threshold learning, and
for the shared fan-out protocol itself.

In the spirit of the executor parity suite (``test_executor.py``):
``replay_campaign`` must equal the scalar ``replay_monitor`` loop and
``learn_thresholds``/``mine_rule_samples`` their serial counterparts at
every worker count — worker count is a wall-clock knob, never a semantics
knob — and every fan-out, nested ones included, must terminate.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor
from repro.core import (cawot_monitor, cawt_monitor, learn_thresholds,
                        mine_rule_samples)
from repro.ml import context_features, trace_features
from repro.parallel import (fork_map_chunks, map_slices, resolve_workers,
                            shard_indices)
from repro.simulation import (iter_contexts, replay_campaign, replay_many,
                              replay_monitor)

WORKER_COUNTS = (2, 4)


@pytest.fixture(scope="module")
def monitors():
    return {"CAWOT": cawot_monitor(), "Guideline": GuidelineMonitor()}


class TestReplayCampaignParity:
    def test_matches_serial_at_every_worker_count(self, monitors,
                                                  tiny_campaign_traces):
        scalar = {name: [replay_monitor(monitor, trace)[0]
                         for trace in tiny_campaign_traces]
                  for name, monitor in monitors.items()}
        for workers in (1,) + WORKER_COUNTS:
            parallel = replay_campaign(monitors, tiny_campaign_traces,
                                       workers=workers)
            assert set(parallel) == set(scalar)
            for name in scalar:
                assert len(parallel[name]) == len(tiny_campaign_traces)
                for a, b in zip(scalar[name], parallel[name]):
                    assert np.array_equal(a, b)

    def test_matches_per_trace_replay(self, monitors, tiny_campaign_traces):
        campaign = replay_campaign(monitors, tiny_campaign_traces, workers=2,
                                   batch_size=7)
        for name, monitor in monitors.items():
            for trace, alerts in zip(tiny_campaign_traces, campaign[name]):
                assert np.array_equal(alerts,
                                      replay_monitor(monitor, trace)[0])

    def test_replay_many_workers_kwarg(self, tiny_campaign_traces):
        monitor = cawot_monitor()
        parallel = replay_many(monitor, tiny_campaign_traces, workers=2)
        assert all(np.array_equal(alerts, replay_monitor(monitor, trace)[0])
                   for trace, alerts in zip(tiny_campaign_traces, parallel))

    def test_accepts_plain_iterables(self, monitors, tiny_campaign_traces):
        from_iter = replay_campaign(monitors, iter(tiny_campaign_traces))
        from_list = replay_campaign(monitors, tiny_campaign_traces)
        for name in monitors:
            assert all(np.array_equal(a, b) for a, b in
                       zip(from_iter[name], from_list[name]))

    def test_empty_inputs(self, monitors):
        assert replay_campaign(monitors, []) == {"CAWOT": [],
                                                 "Guideline": []}
        assert replay_campaign({}, []) == {}
        assert replay_campaign(monitors, [], workers=2) == {"CAWOT": [],
                                                            "Guideline": []}


class TestLearnThresholdsParity:
    def test_mined_samples_identical(self, tiny_campaign_traces):
        serial = mine_rule_samples(tiny_campaign_traces, workers=1)
        for workers in WORKER_COUNTS:
            parallel = mine_rule_samples(tiny_campaign_traces,
                                         workers=workers)
            for a, b in zip(serial, parallel):
                assert a.rule.index == b.rule.index
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.safe_values, b.safe_values)

    def test_thresholds_byte_identical(self, tiny_campaign_traces,
                                       tiny_fault_free_traces):
        traces = list(tiny_campaign_traces) + list(tiny_fault_free_traces)
        serial = learn_thresholds(traces, workers=1)
        for workers in WORKER_COUNTS:
            parallel = learn_thresholds(traces, workers=workers)
            assert parallel.thresholds == serial.thresholds
            assert parallel.learned_params == serial.learned_params
            for a, b in zip(serial.fits, parallel.fits):
                # NaN losses (un-mined rules) compare unequal under ==
                assert (a.param, a.value, a.n_samples, a.used_default,
                        a.converged, a.violations) == \
                       (b.param, b.value, b.n_samples, b.used_default,
                        b.converged, b.violations)
                assert a.loss == b.loss or (np.isnan(a.loss)
                                            and np.isnan(b.loss))

    def test_learned_monitor_behaves_identically(self, tiny_campaign_traces):
        serial = cawt_monitor(
            learn_thresholds(tiny_campaign_traces, workers=1).thresholds)
        parallel = cawt_monitor(
            learn_thresholds(tiny_campaign_traces, workers=4).thresholds)
        trace = tiny_campaign_traces[0]
        assert np.array_equal(replay_monitor(serial, trace)[0],
                              replay_monitor(parallel, trace)[0])


class TestForkMapChunks:
    """The shared pool protocol itself."""

    def test_shard_indices_reassemble(self):
        for n, k in ((0, 3), (1, 4), (17, 4), (10, 100)):
            chunks = shard_indices(n, k)
            flat = [i for chunk in chunks for i in chunk]
            assert flat == list(range(n))
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1

    def test_shard_indices_invalid(self):
        with pytest.raises(ValueError):
            shard_indices(5, 0)

    def test_results_in_chunk_order(self):
        chunks = shard_indices(20, 7)
        serial = [sum(c) for c in chunks]
        parallel = list(fork_map_chunks(sum, chunks, workers=3))
        assert parallel == serial

    def test_serial_fallback_single_chunk(self):
        assert list(fork_map_chunks(sum, [range(5)], workers=8)) == [10]

    def test_unpicklable_chunk_function(self):
        # closures reach the workers through fork, never through pickle
        offset = 100
        chunks = shard_indices(12, 4)
        assert list(fork_map_chunks(lambda c: sum(c) + offset, chunks,
                                    workers=2)) == \
            [sum(c) + offset for c in chunks]

    def test_map_slices_passes_contiguous_slices(self):
        items = list(range(23))
        for workers in (1, 2, 3):
            parts = list(map_slices(list, items, workers))
            assert [x for part in parts for x in part] == items
            assert len(parts) == (1 if workers == 1 else
                                  min(len(items), workers * 4))

    def test_map_slices_serial_streams_iterables(self):
        stream = iter(range(5))
        assert list(map_slices(lambda part: part, stream, 1)) == [stream]
        assert list(map_slices(sum, iter(range(5)), 2)) == [0, 1, 2, 3, 4]
        assert list(map_slices(len, [], 2)) == [0]

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_nested_fan_out_terminates(self):
        """Regression: a fan-out inside a pool worker used to inherit the
        parent's held fork lock and block forever.  Run in a subprocess
        (own process group) under a hard timeout, so a regression fails
        instead of hanging the suite or leaking blocked pool workers."""
        script = textwrap.dedent("""
            from repro.parallel import fork_map_chunks

            def inner(chunk):
                return sum(fork_map_chunks(lambda x: x * 2, list(chunk),
                                           workers=2))

            print(list(fork_map_chunks(inner, [range(3), range(3, 6)],
                                       workers=2)), flush=True)

            from repro.parallel import map_slices

            def lengths(part):
                return list(map_slices(len, part[0], workers=2))

            print(list(map_slices(lengths, [list(range(10))] * 2,
                                  workers=2)))
        """)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("nested fan-out did not terminate within 30 s")
        assert proc.returncode == 0, err
        lines = out.splitlines()
        assert lines[0] == "[6, 24]"
        # a fan-out inside a pool worker runs serially: one slice
        assert lines[1] == "[[10], [10]]"


class TestSharedContextReconstruction:
    """Regression for the iter_contexts / trace_features duplication drift:
    both sides now delegate to ``repro.simulation.features``, and must agree
    cycle-for-cycle on the same trace."""

    def test_replay_and_ml_features_agree_cycle_for_cycle(
            self, tiny_campaign_traces):
        for trace in tiny_campaign_traces[:8]:
            matrix = trace_features(trace)
            replayed = np.array([context_features(ctx)
                                 for ctx in iter_contexts(trace)])
            assert matrix.shape == replayed.shape
            np.testing.assert_array_equal(matrix, replayed)

    def test_context_stream_metadata(self, tiny_campaign_traces):
        trace = tiny_campaign_traces[0]
        contexts = list(iter_contexts(trace))
        assert len(contexts) == len(trace)
        assert contexts[0].bg_rate == 0.0
        assert contexts[0].t == trace.t[0]
