"""CI smoke check: parallel execution, the vectorized engine, the on-disk
store, the training fan-out and batched monitor replay must all be exact.

Runs the ``ci``-scale fault-injection grid serially, through a 2-worker
process pool and through the lock-step vectorized engine
(``batch_size=4``), asserting that all three trace streams are
element-wise identical (every array channel, every metadata field).  This
is the determinism guarantee the parallel and vector engines are built on.  The same
traces are then streamed through a :class:`CampaignStoreWriter` into a
temporary on-disk dataset, lazily reopened as a :class:`TraceDataset` and
compared element-wise again (plus a plan-fingerprint check), so the
write-once/replay-many store is covered by the same every-push smoke.
The DT/MLP/LSTM :class:`TrainingJob` grid is trained serially and
through the worker pool and the resulting monitors are compared parameter
by parameter — the training-parity contract of ``repro.ml.training``.
Every monitor kind (CAWT, CAWOT, Guideline, MPC and the trained
DT/MLP/LSTM) is then replayed over the campaign through the scalar
``replay_monitor`` loop and through the lock-step ``replay_campaign``
path at batch sizes {1, 7, 32} x workers {1, 2}, asserting element-wise
identical alert streams — the exact-parity contract of
``repro.simulation.replay``.  The same campaign is then pushed
through the online :class:`MonitorService` as a live tick stream
(``repro.serve.replay_log``) twice, and both served runs must reproduce
the offline ``replay_campaign`` alert streams element-wise at offline
batch sizes {1, 8} — the serving parity contract.  A crash-recovery
smoke then kills a journaled service (``persist_dir``) at two mid-run
tick boundaries and recovers it from snapshot + write-ahead journal
(``repro.serve.chaos``): the stitched alert stream must be element-wise
identical to the uninterrupted run — the crash-safety parity contract of
``repro.serve.persist``.  Then the *mitigated*
closed loop (CAWOT monitor wired to the fixed Algorithm 1 strategy, the
Table VII configuration) is swept across batch sizes {1, 8} x workers
{1, 2} and every combination must reproduce the scalar mitigated run
element-wise — the live lock-step monitor/mitigator path of
``repro.simulation.vector``.  A tiny cross-entropy scenario-search
budget (``repro.search``) must find at least one hazard on the ``ci``
preset and return a seed-deterministic ``SearchResult`` across
``workers`` x ``batch_size`` settings.  Last, the same grid is run as a
2-host distributed campaign (``repro.distributed``: subprocess range workers, one hard-killed
mid-range and retried) and the merged dataset must be byte-identical to
the single-box reference — manifest fingerprint, manifest bytes and
element-wise traces.

Run:  python scripts/ci_smoke_parallel.py [workers]
"""

import dataclasses
import os
import sys
import tempfile
import time

import numpy as np

from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import (FixedMitigator, cawot_monitor, cawt_monitor,
                        learn_thresholds)
from repro.experiments import ExperimentConfig
from repro.experiments.data import ml_baseline_jobs
from repro.fi import CampaignConfig, generate_campaign
from repro.ml import monitor_state, run_training_jobs
from repro.search import CrossEntropySearch
from repro.serve import MonitorService, replay_log
from repro.serve.chaos import (crash_recovery_run, drive, fleet_ticks,
                               results_equal)
from repro.simulation import (CampaignStoreWriter, TraceDataset,
                              plan_campaign, plan_fingerprint,
                              replay_campaign, replay_monitor, run_campaign)


def traces_identical(a, b) -> bool:
    if (a.platform, a.patient_id, a.label, a.dt, a.fault) != \
       (b.platform, b.patient_id, b.label, b.dt, b.fault):
        return False
    for f in dataclasses.fields(a):
        value = getattr(a, f.name)
        if isinstance(value, np.ndarray) and \
                not np.array_equal(value, getattr(b, f.name)):
            return False
    return True


def main() -> int:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    config = ExperimentConfig.preset("ci")
    scenarios = generate_campaign(CampaignConfig(stride=config.stride))
    n_expected = len(config.patients) * len(scenarios)
    print(f"ci grid: {len(config.patients)} patients x "
          f"{len(scenarios)} scenarios = {n_expected} simulations")

    start = time.perf_counter()
    serial = run_campaign(config.platform, config.patients, scenarios,
                          n_steps=config.n_steps)
    t_serial = time.perf_counter() - start
    print(f"serial: {t_serial:.2f}s ({n_expected / t_serial:.1f} traces/sec)")

    start = time.perf_counter()
    parallel = run_campaign(config.platform, config.patients, scenarios,
                            n_steps=config.n_steps, workers=workers)
    t_parallel = time.perf_counter() - start
    print(f"{workers} workers: {t_parallel:.2f}s "
          f"({n_expected / t_parallel:.1f} traces/sec, "
          f"{t_serial / t_parallel:.2f}x)")

    if len(serial) != n_expected or len(parallel) != n_expected:
        print(f"FAIL: expected {n_expected} traces, got "
              f"{len(serial)} serial / {len(parallel)} parallel")
        return 1
    mismatches = [i for i, (s, p) in enumerate(zip(serial, parallel))
                  if not traces_identical(s, p)]
    if mismatches:
        print(f"FAIL: {len(mismatches)} trace(s) differ between serial and "
              f"parallel execution; first at index {mismatches[0]} "
              f"({serial[mismatches[0]].label})")
        return 1
    print(f"OK: all {n_expected} traces element-wise identical")

    # lock-step vectorized engine: batch_size must be invisible in the
    # output too (the parity contract of repro.simulation.vector)
    start = time.perf_counter()
    vector = run_campaign(config.platform, config.patients, scenarios,
                          n_steps=config.n_steps, batch_size=4)
    t_vector = time.perf_counter() - start
    print(f"batch_size=4: {t_vector:.2f}s "
          f"({n_expected / t_vector:.1f} traces/sec, "
          f"{t_serial / t_vector:.2f}x)")
    mismatches = [i for i, (s, v) in enumerate(zip(serial, vector))
                  if not traces_identical(s, v)]
    if len(vector) != n_expected or mismatches:
        first = f"; first at index {mismatches[0]}" if mismatches else ""
        print(f"FAIL: {len(mismatches)} trace(s) differ between serial and "
              f"vectorized execution{first}")
        return 1
    print("OK: vectorized engine element-wise identical to serial")

    # dataset-store roundtrip: write -> manifest -> lazy reopen -> compare
    plan = plan_campaign(config.platform, config.patients, scenarios,
                         n_steps=config.n_steps)
    with tempfile.TemporaryDirectory() as root:
        start = time.perf_counter()
        with CampaignStoreWriter(root, config.platform, config.n_steps,
                                 folds=config.folds) as sink:
            for trace in serial:
                sink.write(trace)
        t_write = time.perf_counter() - start
        dataset = TraceDataset.open(root, cache_size=8)
        if dataset.fingerprint != plan_fingerprint(plan):
            print("FAIL: stored fingerprint does not match the campaign plan")
            return 1
        start = time.perf_counter()
        bad = [i for i, (s, d) in enumerate(zip(serial, dataset))
               if not traces_identical(s, d)]
        t_read = time.perf_counter() - start
        if len(dataset) != n_expected or bad:
            print(f"FAIL: store roundtrip mismatch "
                  f"({len(bad)} trace(s), {len(dataset)} stored)")
            return 1
        if dataset.stats.max_resident > 8:
            print(f"FAIL: lazy reader held {dataset.stats.max_resident} "
                  "traces, expected <= its cache window of 8")
            return 1
        print(f"store: write {t_write:.2f}s, lazy reread {t_read:.2f}s, "
              f"max {dataset.stats.max_resident} traces resident — "
              f"all {n_expected} roundtripped identically")

    # training parity: the TrainingJob fan-out must produce element-wise
    # identical monitors (every weight, every split) at any worker count
    jobs = ml_baseline_jobs(config)
    start = time.perf_counter()
    trained_serial = run_training_jobs(jobs, serial)
    t_train_serial = time.perf_counter() - start
    start = time.perf_counter()
    trained_parallel = run_training_jobs(jobs, serial, workers=workers)
    t_train_parallel = time.perf_counter() - start
    print(f"training: {len(jobs)} jobs, serial {t_train_serial:.2f}s, "
          f"{workers} workers {t_train_parallel:.2f}s")
    for a, b in zip(trained_serial, trained_parallel):
        if a.job != b.job or a.n_samples != b.n_samples:
            print(f"FAIL: job order/metadata diverged for {a.name}")
            return 1
        state_a, state_b = monitor_state(a.monitor), monitor_state(b.monitor)
        if len(state_a) != len(state_b) or any(
                not np.array_equal(x, y) for x, y in zip(state_a, state_b)):
            print(f"FAIL: {a.name} monitor trained with {workers} workers "
                  "differs from the serial fit")
            return 1
    print(f"OK: all {len(jobs)} training jobs "
          f"({', '.join(t.name for t in trained_serial)}) element-wise "
          "identical at any worker count")

    # replay parity: every monitor kind, the scalar replay_monitor loop vs
    # lock-step replay_campaign across batch sizes and worker counts (a
    # trace subset keeps the LSTM's per-cycle scalar reference bounded)
    monitors = {
        "CAWT": cawt_monitor(learn_thresholds(serial,
                                              batch_size=32).thresholds),
        "CAWOT": cawot_monitor(),
        "Guideline": GuidelineMonitor(),
        "MPC": MPCMonitor(horizon_steps=config.mpc_horizon),
    }
    monitors.update({t.name: t.monitor for t in trained_serial})
    replay_traces = {name: (serial[:12] if name == "LSTM" else serial)
                     for name in monitors}
    start = time.perf_counter()
    ref = {name: [replay_monitor(monitor, trace)[0]
                  for trace in replay_traces[name]]
           for name, monitor in monitors.items()}
    t_scalar = time.perf_counter() - start
    start = time.perf_counter()
    offline_refs = {}
    for batch_size in (1, 7, 32):
        for replay_workers in (1, workers):
            for name, monitor in monitors.items():
                batched = replay_campaign(
                    {name: monitor}, replay_traces[name],
                    workers=replay_workers, batch_size=batch_size)[name]
                if replay_workers == 1:
                    offline_refs.setdefault(batch_size, {})[name] = batched
                bad = [i for i, (a, b) in enumerate(zip(ref[name], batched))
                       if not np.array_equal(a, b)]
                if len(batched) != len(ref[name]) or bad:
                    print(f"FAIL: batched replay of {name} diverges from "
                          f"scalar at batch_size={batch_size}, "
                          f"workers={replay_workers} "
                          f"({len(bad)} trace(s), first at "
                          f"{bad[0] if bad else '?'})")
                    return 1
    t_batched = time.perf_counter() - start
    print(f"OK: lock-step replay of {len(monitors)} monitor kinds "
          f"({', '.join(monitors)}) element-wise identical to scalar at "
          f"batch sizes 1/7/32 x workers 1/{workers} "
          f"(scalar {t_scalar:.2f}s, 6 lock-step sweeps {t_batched:.2f}s)")

    # serving parity: replay the recorded campaign through the online
    # MonitorService as a live tick stream, twice, and compare against
    # the offline replay at batch sizes 1 and 8 — every monitor kind,
    # stateful ones included (per-user clones inside the service)
    offline_refs = {1: offline_refs[1]}
    offline_refs[8] = {
        name: replay_campaign({name: monitor}, replay_traces[name],
                              batch_size=8)[name]
        for name, monitor in monitors.items()}
    fast = {name: m for name, m in monitors.items() if name != "LSTM"}
    start = time.perf_counter()
    for service_run in (1, 2):
        served = replay_log(fast, serial)
        served.update(replay_log({"LSTM": monitors["LSTM"]}, serial[:12]))
        for offline_batch, offline in offline_refs.items():
            for name in monitors:
                bad = [i for i, (a, b) in enumerate(zip(offline[name],
                                                        served[name]))
                       if not np.array_equal(a, b)]
                if len(served[name]) != len(offline[name]) or bad:
                    print(f"FAIL: served alert stream of {name} diverges "
                          f"from offline replay (batch_size={offline_batch}, "
                          f"service run {service_run}, {len(bad)} trace(s), "
                          f"first at {bad[0] if bad else '?'})")
                    return 1
    t_serve = time.perf_counter() - start
    print(f"OK: online service reproduces offline replay of "
          f"{len(monitors)} monitor kinds element-wise "
          f"(2 service runs x offline batch sizes 1/8, {t_serve:.2f}s)")

    # crash-recovery smoke: kill a journaled service at mid-run tick
    # boundaries, recover from snapshot + write-ahead journal, and the
    # stitched stream must match the uninterrupted run element-wise
    chaos_monitors = {name: monitors[name]
                      for name in ("CAWT", "CAWOT", "Guideline")}
    chaos_ticks = fleet_ticks(100, 8, seed=3)
    start = time.perf_counter()
    uninterrupted = drive(MonitorService(chaos_monitors), chaos_ticks)
    with tempfile.TemporaryDirectory() as root:
        for kill_after in (3, 6):
            stitched, recovered = crash_recovery_run(
                chaos_monitors, chaos_ticks,
                os.path.join(root, f"kill{kill_after}"),
                kill_after=kill_after, snapshot_every=3)
            equal, why = results_equal(uninterrupted, stitched)
            if not equal or recovered.recovery_report is None:
                print(f"FAIL: recovery after a kill at tick {kill_after} "
                      f"is not bit-exact: {why}")
                return 1
    t_chaos = time.perf_counter() - start
    print(f"OK: journaled service killed at tick boundaries 3/6 recovers "
          f"to an element-wise identical stream "
          f"(100 users x 8 ticks, {t_chaos:.2f}s)")

    # mitigated-batch parity: the live Table VII closed loop (monitor +
    # mitigator inside the lock-step engine) across batch x worker combos
    mitigation_kwargs = dict(monitor_factory=lambda pid: cawot_monitor(),
                             mitigator=FixedMitigator(),
                             n_steps=config.n_steps)
    start = time.perf_counter()
    mitigated_ref = run_campaign(config.platform, config.patients, scenarios,
                                 **mitigation_kwargs)
    t_mit_scalar = time.perf_counter() - start
    n_fired = sum(bool(trace.mitigated.any()) for trace in mitigated_ref)
    if n_fired == 0:
        print("FAIL: mitigated reference campaign never fired the "
              "mitigator — the parity sweep would be vacuous")
        return 1
    start = time.perf_counter()
    for batch_size in (1, 8):
        for mit_workers in (1, workers):
            combo = run_campaign(config.platform, config.patients, scenarios,
                                 workers=mit_workers, batch_size=batch_size,
                                 **mitigation_kwargs)
            bad = [i for i, (s, v) in enumerate(zip(mitigated_ref, combo))
                   if not traces_identical(s, v)]
            if len(combo) != n_expected or bad:
                print(f"FAIL: mitigated campaign diverges from scalar at "
                      f"batch_size={batch_size}, workers={mit_workers} "
                      f"({len(bad)} trace(s), first at "
                      f"{bad[0] if bad else '?'})")
                return 1
    t_mit_sweep = time.perf_counter() - start
    print(f"OK: mitigated closed loop (CAWOT + FixedMitigator, "
          f"{n_fired}/{n_expected} traces corrected) element-wise identical "
          f"at batch sizes 1/8 x workers 1/{workers} "
          f"(scalar {t_mit_scalar:.2f}s, 4 sweeps {t_mit_sweep:.2f}s)")

    # scenario-search smoke: a tiny cross-entropy budget must still find a
    # hazard on the ci preset, and the SearchResult must be seed-
    # deterministic across workers x batch_size (the repro.search contract)
    def run_search(search_workers, batch_size):
        return CrossEntropySearch(
            platform=config.platform, patient_id=config.patients[0],
            n_steps=config.n_steps, population=16, iterations=2,
            workers=search_workers, batch_size=batch_size).run(seed=0)

    start = time.perf_counter()
    search_ref = run_search(1, 1)
    t_search = time.perf_counter() - start
    if search_ref.n_hazardous < 1:
        print(f"FAIL: scenario search found no hazard in "
              f"{search_ref.n_simulations} simulations "
              f"({search_ref.summary()})")
        return 1
    for search_workers, batch_size in ((1, 16), (workers, 8)):
        other = run_search(search_workers, batch_size)
        findings_match = (
            [f.label for f in other.findings]
            == [f.label for f in search_ref.findings]
            and [s.elite_indices for s in other.iterations]
            == [s.elite_indices for s in search_ref.iterations])
        if not findings_match or other.n_simulations != search_ref.n_simulations:
            print(f"FAIL: scenario search diverges from the scalar run at "
                  f"batch_size={batch_size}, workers={search_workers}")
            return 1
    print(f"OK: scenario search ({search_ref.summary()}) seed-deterministic "
          f"at batch sizes 1/8/16 x workers 1/{workers} "
          f"(scalar {t_search:.2f}s)")

    # distributed smoke: the same ci grid through 2 subprocess range
    # workers, with one worker hard-killed mid-range and retried — the
    # merged dataset must carry the single-box fingerprint and manifest
    # bytes and reproduce the serial traces element-wise (the
    # distributed parity contract of repro.distributed)
    from repro.distributed import FlakyLauncher, run_distributed_campaign
    from repro.parallel import partition_ranges
    ranges = partition_ranges(len(plan.runs), 2)
    launcher = FlakyLauncher(crash_ranges={ranges[0]: 1})
    with tempfile.TemporaryDirectory() as root:
        ref_dir = os.path.join(root, "reference")
        with CampaignStoreWriter(ref_dir, config.platform, config.n_steps,
                                 folds=config.folds) as sink:
            for trace in serial:
                sink.write(trace)
        start = time.perf_counter()
        result = run_distributed_campaign(
            plan, os.path.join(root, "merged"), n_hosts=2, launcher=launcher,
            folds=config.folds)
        t_dist = time.perf_counter() - start
        if result.retries != 1:
            print(f"FAIL: expected exactly 1 retry of the killed range, "
                  f"coordinator recorded {result.retries}")
            return 1
        ref_manifest = open(os.path.join(ref_dir, "manifest.json"),
                            "rb").read()
        merged_manifest = open(os.path.join(result.out_dir, "manifest.json"),
                               "rb").read()
        if result.manifest["fingerprint"] != plan_fingerprint(plan) \
                or merged_manifest != ref_manifest:
            print("FAIL: merged manifest differs from the single-box "
                  "reference (fingerprint or bytes)")
            return 1
        merged = TraceDataset.open(result.out_dir, cache_size=8)
        bad = [i for i, (s, d) in enumerate(zip(serial, merged))
               if not traces_identical(s, d)]
        if len(merged) != n_expected or bad:
            print(f"FAIL: merged distributed dataset diverges from serial "
                  f"({len(bad)} trace(s), first at "
                  f"{bad[0] if bad else '?'})")
            return 1
    print(f"OK: 2-host distributed campaign (1 injected worker kill + "
          f"retry) merged byte-identical to the single-box reference "
          f"({t_dist:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
