"""``paper``: every table and figure on both platforms at the ``smoke``
preset, in memory, ``batch_size=32``, in the order of
``scripts/generate_experiments_report.py``.

A pass clears every cache, builds ``platform_data`` for both platforms
(set-up) and runs the suite.  ``job_s`` is the time of the whole suite,
set-up excluded: each experiment's median over the run's passes, summed.
The seed is the ML training seed.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.experiments import (ExperimentConfig, platform_data,
                               run_adversarial_ablation,
                               run_fault_free_generalisation, run_fig3,
                               run_fig7, run_fig8, run_fig9,
                               run_multiclass_ablation, run_overhead,
                               run_table5, run_table6, run_table7, run_table8)

from . import checks
from .common import Outcome, PhaseTimes, Unit, clock, cold_caches, report

PLATFORMS = ("glucosym", "t1ds2013")
PRESET = "smoke"
BATCH_SIZE = 32
#: set-ups per run besides the one in each pass
EXTRA_SETUPS = 4

#: per-platform experiments, in the report script's order
EXPERIMENTS = (
    ("fig7", run_fig7), ("fig8", run_fig8), ("table5", run_table5),
    ("table6", run_table6), ("fig9", run_fig9), ("table7", run_table7),
    ("table8", run_table8), ("adversarial_ablation", run_adversarial_ablation),
    ("multiclass_ablation", run_multiclass_ablation),
    ("fault_free_generalisation", run_fault_free_generalisation),
    ("overhead", run_overhead))

SIZE = {"preset": PRESET, "platforms": list(PLATFORMS),
        "batch_size": BATCH_SIZE, "workers": 1,
        "setups_per_run": f"passes + {EXTRA_SETUPS}",
        "experiments_per_pass": 1 + len(PLATFORMS) * len(EXPERIMENTS)}


def _direct(span: str, fn, arg):
    return fn(arg)


def configs(seed: int) -> List[ExperimentConfig]:
    """The suite's configs; the seed drives ML training."""
    return [dataclasses.replace(
        ExperimentConfig.preset(PRESET, platform=p, batch_size=BATCH_SIZE),
        seed=seed) for p in PLATFORMS]


def setup(seed: int, times: PhaseTimes, call=_direct) -> None:
    """Cold caches, then ``platform_data`` for both platforms."""
    cold_caches()
    with times.timed("setup"):
        for config in configs(seed):
            call("experiments.platform_data", platform_data, config)


def one_pass(seed: int, times: PhaseTimes, outcome: Outcome,
             call=_direct) -> List[Tuple[str, object]]:
    """Set up and run the suite once, timing each experiment, then check
    every result.  *call(span, fn, arg)* makes one step; the traced run
    passes one that records a span around it."""
    results = []
    with times.timed("experiments.fig3"):
        results.append(("run_fig3", call("experiments.fig3", run_fig3, None)))
    setup(seed, times, call)
    for config in configs(seed):
        for name, fn in EXPERIMENTS:
            with times.timed(f"experiments.{name}.{config.platform}"):
                result = call(f"experiments.{name}", fn, config)
            results.append((fn.__name__, result))
    for name, result in results:
        outcome.check(checks.check_experiment(name, result))
    return results


def run(seed: int, seconds: float, outcome: Outcome) -> None:
    # extra set-ups before the passes and after them, so one slow spell of
    # the machine cannot hit every set-up sample
    times = PhaseTimes()
    for _ in range(EXTRA_SETUPS // 2):
        setup(seed, times)
    digests = []
    deadline = clock() + seconds
    while not digests or clock() < deadline:
        digests.append(checks.rows_digest(one_pass(seed, times, outcome)))
    for _ in range(EXTRA_SETUPS - EXTRA_SETUPS // 2):
        setup(seed, times)
    # same seed, same rows: every pass must reproduce the first
    outcome.check([] if len(set(digests)) == 1
                  else [f"row digests differ across passes: {digests}"])
    report(outcome, times, times.median("setup"),
           times.sum_of_medians("experiments."))
    outcome.meta.update(passes=len(digests), rows_digest=digests[0],
                        phase_samples_s=times.samples)


def trace_unit(seed: int, outcome: Outcome, recorder) -> Unit:
    """One pass; with a recorder, each experiment call is a span."""
    times = PhaseTimes()
    call = _direct
    if recorder is not None:
        def call(span, fn, arg):
            return recorder.call(span, fn, (arg,), {})
    one_pass(seed, times, outcome, call)
    return Unit(times.intervals, times.scale())
