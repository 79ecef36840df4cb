"""``campaign``: the ``small`` grid on both platforms through the store,
then threshold design, then the Table VII mitigated loop.

One pass, per platform:

1. set-up: titrate the cohort's controller profiles and plan the grid;
2. write side: simulate the grid in batches into an on-disk
   :class:`CampaignStoreWriter`;
3. read side: reopen it as a :class:`TraceDataset`, learn per-patient
   CAWT thresholds and replay CAWT, CAWOT and Guideline in batches;
4. run the mitigated loop (``MPCMonitor`` + ``FixedMitigator``) on the
   ``ci`` grid.

``job_s`` is the time of steps 2-4 on both platforms.  The grids are the
presets' own; the seed picks the traces the output checks re-simulate
and replay.  (A seeded offset into the full grid would change every
run's initial glucose, since the stride is a multiple of the seven
initial-glucose values, and with it the work.)
"""

from __future__ import annotations

import dataclasses
import random

from repro.baselines import GuidelineMonitor, MPCMonitor
from repro.core import FixedMitigator, cawot_monitor, cawt_monitor
from repro.core import learning
from repro.experiments import PRESETS, ExperimentConfig
from repro.fi import CampaignConfig, generate_campaign
from repro.simulation import (CampaignStoreWriter, ListSink, TraceDataset,
                              get_executor, plan_campaign, replay_campaign,
                              warm_profiles)

from . import checks
from .common import (Outcome, PhaseTimes, Unit, clock, cold_caches,
                     fresh_dir, report)
from .spans import paused

PLATFORMS = ("glucosym", "t1ds2013")
BATCH_SIZE = 32
N_STEPS = 150
FOLDS = 4
MPC_HORIZON = 24
MAX_RATE = 5.0
#: traces per platform re-simulated in memory to check the store
SAMPLE = 6
#: set-ups per run besides the one in each pass
EXTRA_SETUPS = 10

SIZE = {"grid": "small", "patients": PRESETS["small"]["n_patients"],
        "scenarios_per_patient": 882 // PRESETS["small"]["stride"],
        "mitigated_grid": "ci",
        "mitigated_patients": PRESETS["ci"]["n_patients"],
        "mitigated_scenarios_per_patient": 882 // PRESETS["ci"]["stride"],
        "platforms": list(PLATFORMS), "batch_size": BATCH_SIZE,
        "workers": 1, "n_steps": N_STEPS,
        "setups_per_run": f"passes + {EXTRA_SETUPS}"}


def grid(preset: str):
    """The preset's scenarios."""
    return generate_campaign(CampaignConfig(stride=PRESETS[preset]["stride"]))


def patients(preset: str, platform: str):
    return ExperimentConfig.preset(preset, platform=platform).patients


class CountingWriter(CampaignStoreWriter):
    """A store writer that also counts the hazardous traces it receives
    and lets *times* probe the machine's speed between traces."""

    def __init__(self, times: PhaseTimes, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._times = times
        self.hazards = 0

    def write(self, trace) -> None:
        super().write(trace)
        self.hazards += trace.hazardous
        self._times.probe_within()


class ProbingListSink(ListSink):
    """Collects traces and lets *times* probe between them."""

    def __init__(self, times: PhaseTimes):
        super().__init__()
        self._times = times

    def write(self, trace) -> None:
        super().write(trace)
        self._times.probe_within()


def setup(times: PhaseTimes):
    """Cold caches, then titrate every cohort's profiles and plan both
    grids on both platforms; returns ``platform -> (small, ci)`` plans."""
    cold_caches()
    with times.timed("setup"):
        small, ci = grid("small"), grid("ci")
        plans = {}
        for platform in PLATFORMS:
            warm_profiles(platform, patients("small", platform))
            warm_profiles(platform, patients("ci", platform))
            plans[platform] = (
                plan_campaign(platform, patients("small", platform), small,
                              n_steps=N_STEPS),
                plan_campaign(platform, patients("ci", platform), ci,
                              n_steps=N_STEPS))
    return plans


def one_pass(seed: int, times: PhaseTimes, outcome: Outcome,
             recorder=None) -> None:
    """Run the four steps on both platforms once, then check the outputs
    with tracing paused."""
    plans = setup(times)
    executor = get_executor(1, BATCH_SIZE)
    for platform in PLATFORMS:
        plan, ci_plan = plans[platform]
        directory = fresh_dir("campaign", platform)
        with times.timed(f"write.{platform}"):
            with CountingWriter(times, directory, platform, N_STEPS,
                                folds=FOLDS) as writer:
                executor.run(plan, sink=writer)
        times.add(f"traces.write.{platform}", len(plan.runs))

        with times.timed(f"design.{platform}"):
            dataset = TraceDataset.open(directory)
            design = {}
            for pid in dataset.patient_ids:
                traces = dataset.by_patient(pid)
                thresholds = learning.learn_thresholds(
                    traces, batch_size=BATCH_SIZE).thresholds
                alerts = replay_campaign(
                    {"CAWT": cawt_monitor(thresholds),
                     "CAWOT": cawot_monitor(),
                     "Guideline": GuidelineMonitor()},
                    traces, batch_size=BATCH_SIZE)
                design[pid] = (thresholds, traces, alerts["CAWT"])
                times.probe_within()

        with times.timed(f"mitigate.{platform}"):
            sink = ProbingListSink(times)
            executor.run(ci_plan,
                         monitor_factory=lambda pid: MPCMonitor(
                             horizon_steps=MPC_HORIZON),
                         mitigator=FixedMitigator(max_rate=MAX_RATE),
                         sink=sink)
            mitigated = sink.traces
        times.add(f"traces.mitigate.{platform}", len(ci_plan.runs))

        with paused(recorder):
            _check(seed, platform, plan, dataset, writer, design, mitigated,
                   ci_plan, outcome)


def _check(seed, platform, plan, dataset, writer, design, mitigated,
           ci_plan, outcome: Outcome) -> None:
    rng = random.Random(f"{seed}/{platform}")
    sample = sorted(rng.sample(range(len(plan.runs)), SAMPLE))
    subplan = dataclasses.replace(plan,
                                  runs=tuple(plan.runs[i] for i in sample))
    reference = dict(zip(sample, get_executor(1, BATCH_SIZE).run(subplan)))
    outcome.check(checks.check_store_sample(dataset, reference),
                  attempted=len(plan.runs))
    outcome.check(checks.check_hazard_count(dataset, writer.hazards))
    for pid, (thresholds, traces, alerts) in design.items():
        picks = rng.sample(range(len(traces)), 2)
        outcome.check(checks.check_replay(
            thresholds, [traces[i] for i in picks],
            [alerts[i] for i in picks]))
    outcome.check([] if len(mitigated) == len(ci_plan.runs) else
                  [f"{len(mitigated)} mitigated traces, expected "
                   f"{len(ci_plan.runs)}"], attempted=len(ci_plan.runs))


def run(seed: int, seconds: float, outcome: Outcome) -> None:
    # extra set-ups before the passes and after them, so one slow spell of
    # the machine cannot hit every set-up sample
    times = PhaseTimes()
    for _ in range(EXTRA_SETUPS // 2):
        setup(times)
    deadline = clock() + seconds
    passes = 0
    while not passes or clock() < deadline:
        one_pass(seed, times, outcome)
        passes += 1
    for _ in range(EXTRA_SETUPS - EXTRA_SETUPS // 2):
        setup(times)
    report(outcome, times, times.median("setup"),
           sum(times.sum_of_medians(phase)
               for phase in ("write.", "design.", "mitigate.")))
    outcome.meta.update(passes=passes, phase_samples_s=times.samples,
                        stages=stage_figures(times))


def stage_figures(times: PhaseTimes):
    """The three steps that ``job_s`` adds up, each on its own."""
    return {
        "campaign_traces_per_s": (times.sum_of_medians("traces.write.")
                                  / times.sum_of_medians("write."), "1/s"),
        "design_s": (times.sum_of_medians("design."), "s"),
        "mitigated_traces_per_s": (times.sum_of_medians("traces.mitigate.")
                                   / times.sum_of_medians("mitigate."),
                                   "1/s")}


def trace_unit(seed: int, outcome: Outcome, recorder) -> Unit:
    """One pass."""
    times = PhaseTimes()
    one_pass(seed, times, outcome, recorder)
    return Unit(times.intervals, times.scale(), stage_figures(times))
