"""Lock-step monitor replay throughput across batch widths.

Replays the Table V monitor set (CAWT, CAWOT, Guideline, MPC) plus a
trained DT over the ``ci``-scale campaign (2 patients x 42 scenarios x
150 cycles) through ``replay_campaign``'s lock-step ``observe_batch``
path at several widths; batch_size=1 is the one-trace-at-a-time baseline
(replay has no separate scalar path).  A final test asserts that the
alert streams at batch_size 1 and 32 are element-wise identical to the
scalar ``replay_monitor`` reference and — the acceptance bar for wide
batches — that batch_size=32 is at least 3x faster than batch_size=1.

Run:  pytest benchmarks/bench_vector_replay.py --benchmark-only -s
"""

import time

import numpy as np
import pytest

from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import cawot_monitor, cawt_monitor, learn_thresholds
from repro.experiments import ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.ml import train_dt_monitor
from repro.simulation import replay_campaign, replay_monitor, run_campaign

CONFIG = ExperimentConfig.preset("ci")
SCENARIOS = generate_campaign(CampaignConfig(stride=CONFIG.stride))
N_TRACES = len(CONFIG.patients) * len(SCENARIOS)

_CACHE = {}


def _traces_and_monitors():
    if not _CACHE:
        traces = run_campaign(CONFIG.platform, CONFIG.patients, SCENARIOS,
                              n_steps=CONFIG.n_steps, batch_size=32)
        _CACHE["traces"] = traces
        _CACHE["monitors"] = {
            "CAWT": cawt_monitor(learn_thresholds(traces,
                                                  batch_size=32).thresholds),
            "CAWOT": cawot_monitor(),
            "Guideline": GuidelineMonitor(),
            "MPC": MPCMonitor(horizon_steps=CONFIG.mpc_horizon),
            "DT": train_dt_monitor(traces),
        }
    return _CACHE["traces"], _CACHE["monitors"]


def _timed(batch_size, workers=1):
    traces, monitors = _traces_and_monitors()
    start = time.perf_counter()
    alerts = replay_campaign(monitors, traces, workers=workers,
                             batch_size=batch_size)
    return alerts, time.perf_counter() - start


def _report(name, elapsed):
    print(f"\n{name}: {N_TRACES} traces x 5 monitors in {elapsed:.2f}s "
          f"({N_TRACES / elapsed:.1f} traces/sec/monitor-set)")


@pytest.mark.parametrize("batch_size", [1, 8, 32, 84])
def test_replay_throughput(benchmark, batch_size):
    traces, monitors = _traces_and_monitors()
    alerts = benchmark.pedantic(
        replay_campaign, args=(monitors, traces),
        kwargs={"batch_size": batch_size}, rounds=1, iterations=1)
    assert all(len(alerts[name]) == N_TRACES for name in monitors)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        _report(f"batch_size={batch_size}", benchmark.stats.stats.mean)


def test_replay_parity_and_speedup():
    """batch_size=1 and 32 alert streams are element-wise identical to the
    scalar replay_monitor loop, and batch_size=32 is at least 3x faster
    than batch_size=1 (the acceptance bar for wide batches)."""
    serial, t_serial = _timed(1)
    batched, t_batched = _timed(32)
    _report("batch_size=1", t_serial)
    _report("batch_size=32", t_batched)
    print(f"speedup: {t_serial / t_batched:.2f}x")

    traces, monitors = _traces_and_monitors()
    for name, monitor in monitors.items():
        assert len(serial[name]) == len(batched[name]) == N_TRACES
        for trace, a, b in zip(traces, serial[name], batched[name]):
            reference = replay_monitor(monitor, trace)[0]
            assert np.array_equal(a, reference), name
            assert np.array_equal(b, reference), name

    assert t_serial / t_batched >= 3.0, (
        f"expected >=3x batched replay speedup, got "
        f"{t_serial / t_batched:.2f}x")


def test_replay_stacks_with_workers():
    """Batched replay inside pool chunks: still identical alert streams."""
    serial, _ = _timed(1)
    combo, t_combo = _timed(16, workers=2)
    _report("2 workers x batch 16", t_combo)
    for name in serial:
        assert all(np.array_equal(a, b)
                   for a, b in zip(serial[name], combo[name]))
