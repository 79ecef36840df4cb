"""``serve``: one ``MonitorService`` (CAWT, CAWOT, DT trained on the ``ci``
campaign) under a 10,000-user fleet, with crashes and recoveries.

Load is closed loop with one caller: the next tick is sent when the
previous one returns.  The fsync'd journal is on and the service
snapshots every ``SNAPSHOT_EVERY`` ticks.  The service crashes
``TAIL_TICKS`` ticks past a snapshot, so recovery always replays the same
journal tail: the crash is a copy of its persist directory, taken without
closing or snapshotting, and a recovery reads that copy.

``job_s`` is the service time of ``JOB_TICKS`` ticks, from the run's mean
tick, plus one recovery, the median of the run's recoveries.
"""

from __future__ import annotations

import os
import shutil
from typing import Tuple

import numpy as np

from repro.controllers import ControlAction
from repro.core import cawot_monitor, cawt_monitor
from repro.core import learning
from repro.experiments import ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.ml import train_dt_monitor
from repro.serve import MonitorRegistry, MonitorService, TickBatch
from repro.simulation import run_campaign

from . import checks
from .common import (Outcome, PhaseTimes, Unit, clock, cold_caches,
                     fresh_dir, report)
from .spans import paused

N_USERS = 10_000
#: ticks the job serves; a run times at least this many
JOB_TICKS = 1000
SNAPSHOT_EVERY = 500
#: ticks journaled after the last snapshot when the service crashes
TAIL_TICKS = 40
#: set-ups per run: two before the ticks, the rest after them
SETUP_REPEATS = 6
BATCH_SIZE = 32

SIZE = {"users": N_USERS, "job_ticks": JOB_TICKS,
        "snapshot_every": SNAPSHOT_EVERY, "journal_tail_ticks": TAIL_TICKS,
        "fsync": True, "monitors": ["CAWT", "CAWOT", "DT"],
        "trained_on": "ci", "setup_repeats": SETUP_REPEATS,
        "recoveries_per_run": 2, "workers": 1,
        "batch_size": BATCH_SIZE, "load": "closed loop, one caller"}


class Fleet:
    """Seeded synthetic fleet: per-user mean-reverting glucose walks with
    occasional boluses.

    The recipe of ``repro.serve.loadgen.LoadGenerator``, kept here so the
    benchmark's traffic cannot change when that module does.
    """

    def __init__(self, n_users: int, seed: int, dt: float = 5.0,
                 bolus_rate: float = 0.01):
        self.n_users = n_users
        self.dt = dt
        self.bolus_rate = bolus_rate
        self.user_ids = tuple(f"user-{i}" for i in range(n_users))
        self._rng = np.random.default_rng(seed)
        self._setpoint = self._rng.uniform(100.0, 160.0, n_users)
        self._bg = self._setpoint + self._rng.normal(0.0, 10.0, n_users)
        self._iob = self._rng.uniform(0.5, 2.0, n_users)
        self._basal = self._rng.uniform(0.8, 1.6, n_users)
        self._tick_index = 0

    def tick(self) -> TickBatch:
        rng, n = self._rng, self.n_users
        t = self._tick_index * self.dt
        self._tick_index += 1
        self._bg = (self._bg + 0.08 * (self._setpoint - self._bg)
                    + rng.normal(0.0, 2.0, n))
        bolus_mask = rng.random(n) < self.bolus_rate
        bolus = np.where(bolus_mask, rng.uniform(0.5, 3.0, n), 0.0)
        self._iob = np.maximum(
            0.0, self._iob * 0.97 + bolus
            + self._basal * (self.dt / 60.0) * 0.03)
        iob_rate = rng.normal(0.0, 0.01, n)
        action = np.where(bolus_mask, int(ControlAction.INCREASE),
                          int(ControlAction.KEEP))
        return TickBatch(t=t, user_ids=self.user_ids, cgm=self._bg.copy(),
                         iob=self._iob.copy(), iob_rate=iob_rate,
                         rate=self._basal.copy(), bolus=bolus, action=action)


def build_registry(directory: str) -> Tuple[MonitorRegistry, dict]:
    """Train the serving set on the ``ci`` campaign, save it and load it
    back.  Returns the loaded registry and the learned CAWT thresholds."""
    config = ExperimentConfig.preset("ci")
    traces = run_campaign(config.platform, config.patients,
                          generate_campaign(CampaignConfig(
                              stride=config.stride)),
                          n_steps=config.n_steps, batch_size=BATCH_SIZE)
    thresholds = learning.learn_thresholds(
        traces, batch_size=BATCH_SIZE).thresholds
    MonitorRegistry({"CAWT": cawt_monitor(thresholds),
                     "CAWOT": cawot_monitor(),
                     "DT": train_dt_monitor(traces)}).save(directory)
    return MonitorRegistry.load(directory), thresholds


def setup(seed: int, tag: str, times: PhaseTimes, outcome: Outcome):
    """Cold set-up: registry build and load, service construction and the
    fleet's first tick, which connects every user."""
    cold_caches()
    registry_dir = fresh_dir("serve", tag, "registry")
    persist_dir = fresh_dir("serve", tag, "persist")
    with times.timed("setup"):
        registry, thresholds = build_registry(registry_dir)
        service = MonitorService(registry, persist_dir=persist_dir,
                                 fsync=True, snapshot_every=SNAPSHOT_EVERY)
        fleet = Fleet(N_USERS, seed, dt=service.dt)
        first = service.process(fleet.tick())
    outcome.check(checks.check_thresholds(thresholds,
                                          registry["CAWT"].thresholds))
    outcome.check(checks.check_clean_feed(len(first.rejected)))
    return service, fleet


def drive(service: MonitorService, fleet: Fleet, min_ticks: int,
          seconds: float, times: PhaseTimes, outcome: Outcome) -> None:
    """Tick the fleet for at least *min_ticks* ticks and *seconds*, then on
    to the next crash point, timing each ``process`` call."""
    rejected = 0
    deadline = clock() + seconds
    ticks = 0
    while (ticks < min_ticks or clock() < deadline
           or service.ticks_processed % SNAPSHOT_EVERY != TAIL_TICKS):
        tick = fleet.tick()
        with times.timed("tick"):
            result = service.process(tick)
        rejected += len(result.rejected)
        ticks += 1
    outcome.check(checks.check_clean_feed(rejected), attempted=ticks)


def crash_and_recover(service: MonitorService, fleet: Fleet, tag: str,
                      times: PhaseTimes, outcome: Outcome,
                      recorder=None) -> None:
    """Crash *service* here and recover it.

    The crash is a copy of the persist directory, taken without closing or
    snapshotting the service, so it holds exactly what a hard kill at this
    point leaves on disk; the recovery reads the copy.  The uncrashed
    service then processes one more tick, the reference the recovered
    service must reproduce.  Copy and checks are untimed and untraced."""
    with paused(recorder):
        copy = os.path.join(fresh_dir("serve", tag, "crash"), "persist")
        shutil.copytree(service.persist_dir, copy)
        next_tick = fleet.tick()
        reference = service.process(next_tick)
    with times.timed("recover"):
        recovered = MonitorService.recover(copy)
    with paused(recorder):
        replayed = recovered.recovery_report.ticks_replayed
        outcome.check([] if replayed == TAIL_TICKS else
                      [f"recovery replayed {replayed} ticks, expected "
                       f"{TAIL_TICKS}"])
        outcome.check(checks.check_recovered_tick(
            reference, recovered.process(next_tick)))
        recovered.close()
    shutil.rmtree(os.path.dirname(copy), ignore_errors=True)


def stage_figures(times: PhaseTimes):
    """Throughput, tick latency and recovery: the parts ``job_s`` adds up."""
    ticks = times.samples["tick"]
    ms = np.asarray(ticks) * 1e3
    return {"user_ticks_per_s": (N_USERS * len(ticks) / sum(ticks), "1/s"),
            "tick_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "tick_p99_ms": (float(np.percentile(ms, 99)), "ms"),
            "recover_s": (times.median("recover"), "s")}


def run(seed: int, seconds: float, outcome: Outcome) -> None:
    # set-ups and recoveries are spread over the run, so one slow spell of
    # the machine cannot hit all of their samples
    times = PhaseTimes()
    setup(seed, "setup-first", times, outcome)[0].close()
    service, fleet = setup(seed, "run", times, outcome)
    drive(service, fleet, SNAPSHOT_EVERY, 0.0, times, outcome)
    crash_and_recover(service, fleet, "mid", times, outcome)
    drive(service, fleet, JOB_TICKS - len(times.samples["tick"]), seconds,
          times, outcome)
    crash_and_recover(service, fleet, "end", times, outcome)
    del service
    for i in range(SETUP_REPEATS - 2):
        setup(seed, f"setup-last{i}", times, outcome)[0].close()
    ticks = times.samples["tick"]
    report(outcome, times, times.median("setup"),
           JOB_TICKS * sum(ticks) / len(ticks) + times.median("recover"))
    outcome.meta.update(ticks=len(ticks), stages=stage_figures(times),
                        phase_samples_s={k: v for k, v in times.samples.items()
                                         if k != "tick"})


def trace_unit(seed: int, outcome: Outcome, recorder) -> Unit:
    """One set-up, ticks up to the first crash point past one snapshot,
    one recovery."""
    times = PhaseTimes()
    service, fleet = setup(seed, "trace", times, outcome)
    drive(service, fleet, SNAPSHOT_EVERY, 0.0, times, outcome)
    crash_and_recover(service, fleet, "trace", times, outcome, recorder)
    return Unit(times.intervals, times.scale(), stage_figures(times))
