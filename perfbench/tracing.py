"""The traced run: span hooks on every layer and the per-layer metrics.

A traced run does the workload's unit of work twice: once untraced, then
once with :data:`hooks` installed.  Per-layer figures come from the
spans of the second unit; ``trace.overhead_ratio`` is its timed wall
over the first's, and ``<workload>.unattributed_s`` is the part of its
timed wall that no top-level span covers.  Each hook is named after the
module that holds the wrapped code.  Every traced run reports every name
in :data:`PER_LAYER`; a layer the workload never calls reads 0.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.mpc import MPCMonitor
from repro.core import learning, mitigation
from repro.core.monitor import ContextAwareMonitor
from repro.ml import monitors as ml_monitors
from repro.ml import training
from repro.ml.nn.lstm import LSTMLayer
from repro.ml.nn.optim import Adam
from repro.patients import kernels
from repro.serve import persist
from repro.serve.alerts import AlertManager
from repro.serve.ring import ContextRing
from repro.serve.service import MonitorService
from repro.simulation import replay, store, vector

from . import paper
from .common import RUN_DIR, Outcome
from .spans import (Count, Hook, SpanRecorder, aggregate, ancestors_named,
                    covered_seconds, install)

EXPERIMENT_NAMES = ("fig3",) + tuple(name for name, _ in paper.EXPERIMENTS)

#: spans of a monitor's batch verdict; under ``serve.process`` they are
#: the service's evaluate step
EVALUATE_SPANS = ("core.monitor.observe_batch", "ml.monitors.observe_batch")


def _dir_bytes(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory)
               if entry.is_file())


def hooks() -> List[Hook]:
    """One hook per layer entry point (the experiments are wrapped where
    the ``paper`` workload calls them)."""
    return [
        Hook(training, "train_job", "ml.training.train_job"),
        Hook(LSTMLayer, "forward", "ml.nn.lstm.forward"),
        Hook(LSTMLayer, "backward", "ml.nn.lstm.backward"),
        Hook(Adam, "step", "ml.nn.optim.step"),
        Hook(ml_monitors.LSTMMonitor, "observe", "ml.monitors.lstm_observe"),
        Hook(ml_monitors._PointMonitor, "observe_batch",
             "ml.monitors.observe_batch"),
        Hook(vector, "warm_profiles", "simulation.vector.warm_profiles"),
        Hook(vector, "run_batch", "simulation.vector.run_batch",
             (Count("simulation.vector.traces",
                    lambda args, result, token: len(result)),)),
        Hook(replay, "replay_campaign", "simulation.replay.replay_campaign"),
        Hook(replay, "replay_many", "simulation.replay.replay_many"),
        Hook(store.CampaignStoreWriter, "write", "simulation.store.write"),
        Hook(store.CampaignStoreWriter, "close", "simulation.store.close",
             (Count("simulation.store.bytes_written",
                    lambda args, result, token: _dir_bytes(
                        args[0].directory)),)),
        Hook(store.TraceDataset, "_decode", "simulation.store.load"),
        Hook(kernels, "ivp_rk4_advance", "patients.kernels.rk4_advance"),
        Hook(kernels, "t1d_rk4_advance", "patients.kernels.rk4_advance"),
        Hook(MPCMonitor, "observe", "baselines.mpc.observe"),
        Hook(MPCMonitor, "observe_batch", "baselines.mpc.observe_batch"),
        Hook(learning, "learn_thresholds", "core.learning.learn_thresholds"),
        Hook(learning, "mine_rule_samples",
             "core.learning.mine_rule_samples"),
        Hook(ContextAwareMonitor, "observe_batch",
             "core.monitor.observe_batch"),
        Hook(mitigation.FixedMitigator, "correct_mask",
             "core.mitigation.correct_mask"),
        Hook(MonitorService, "process", "serve.process"),
        Hook(MonitorService, "snapshot", "serve.snapshot"),
        Hook(MonitorService, "recover", "serve.recover"),
        Hook(ContextRing, "append", "serve.ring.append"),
        Hook(AlertManager, "observe_tick", "serve.alerts.observe_tick",
             (Count("serve.alerts.raw_alerts",
                    lambda args, result, token: int(np.count_nonzero(
                        args[4]))),
              Count("serve.alerts.events",
                    lambda args, result, token: len(result)))),
        Hook(persist.TickJournal, "append", "serve.persist.journal_append",
             (Count("serve.persist.journal_bytes",
                    lambda args, result, token: args[0]._fh.tell() - token,
                    before=lambda args: args[0]._fh.tell()),)),
        Hook(persist.TickJournal, "sync", "serve.persist.journal_sync"),
        Hook(persist, "read_snapshot", "serve.persist.read_snapshot"),
    ]


#: span name -> the per-layer figures read from its totals
_TOTALS = {
    **{f"experiments.{n}": ("s",) for n in EXPERIMENT_NAMES},
    "experiments.platform_data": ("s",),
    "ml.training.train_job": ("s",),
    "ml.nn.lstm.forward": ("s", "calls"),
    "ml.nn.lstm.backward": ("s",),
    "ml.nn.optim.step": ("s",),
    "ml.monitors.lstm_observe": ("s", "calls"),
    "simulation.vector.run_batch": ("s", "self_s"),
    "simulation.replay.replay_campaign": ("s",),
    "simulation.replay.replay_many": ("s",),
    "simulation.store.write": ("s",),
    "simulation.store.close": ("s",),
    "simulation.store.load": ("s",),
    "patients.kernels.rk4_advance": ("s", "calls"),
    "baselines.mpc.observe": ("s", "calls"),
    "baselines.mpc.observe_batch": ("s",),
    "core.learning.learn_thresholds": ("s",),
    "core.learning.mine_rule_samples": ("s",),
    "core.monitor.observe_batch": ("s",),
    "core.mitigation.correct_mask": ("s",),
    "serve.snapshot": ("s",),
}

_COUNTERS = ("simulation.vector.traces", "simulation.store.bytes_written",
             "serve.alerts.raw_alerts", "serve.alerts.events",
             "serve.persist.journal_bytes")


def _figure_name(span: str, kind: str) -> str:
    return {"s": f"{span}_s", "self_s": f"{span}.self_s",
            "calls": f"{span}_calls"}[kind]


#: every per-layer metric name with its unit, in report order
PER_LAYER: Dict[str, str] = {
    **{_figure_name(span, kind): ("count" if kind == "calls" else "s")
       for span, kinds in _TOTALS.items() for kind in kinds},
    "ml.training.jobs": "count",
    "simulation.store.traces_loaded": "count",
    **{name: ("B" if name.endswith("bytes") or name.endswith("written")
              else "count") for name in _COUNTERS},
    "serve.process_s": "s",
    "serve.process.self_s": "s",
    "serve.evaluate_s": "s",
    "serve.ring.append_s": "s",
    "serve.alerts.observe_tick_s": "s",
    "serve.persist.journal_append_s": "s",
    "serve.persist.journal_sync_s": "s",
    "serve.recover.snapshot_read_s": "s",
    "serve.recover.replay_s": "s",
    "serve.recover.replayed_ticks": "count",
    "import_s": "s",
    "paper.unattributed_s": "s",
    "campaign.unattributed_s": "s",
    "serve.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    # stage figures measured on the untraced unit of work: the parts each
    # workload's job_s adds up
    "campaign_traces_per_s": "1/s",
    "design_s": "s",
    "mitigated_traces_per_s": "1/s",
    "user_ticks_per_s": "1/s",
    "tick_p50_ms": "ms",
    "tick_p99_ms": "ms",
    "recover_s": "s",
}


def layer_figures(recorder: SpanRecorder) -> Dict[str, float]:
    """Every per-layer figure the spans and counters give."""
    spans = recorder.spans
    totals = aggregate(spans)
    # the serving figures describe live ticks; recovery's replayed ticks
    # are reported under serve.recover.*
    live = aggregate(spans, exclude_under="serve.recover")
    under_recover = ancestors_named(spans, "serve.recover")
    figures: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for span, kinds in _TOTALS.items():
        for kind in kinds:
            figures[_figure_name(span, kind)] = totals.get(span, {}).get(
                kind, 0.0)
    figures["ml.training.jobs"] = totals.get(
        "ml.training.train_job", {}).get("calls", 0)
    figures["simulation.store.traces_loaded"] = totals.get(
        "simulation.store.load", {}).get("calls", 0)
    for name in _COUNTERS:
        figures[name] = recorder.counters.get(name, 0)
    for figure, span, kind in (
            ("serve.process_s", "serve.process", "s"),
            ("serve.process.self_s", "serve.process", "self_s"),
            ("serve.ring.append_s", "serve.ring.append", "s"),
            ("serve.alerts.observe_tick_s", "serve.alerts.observe_tick", "s"),
            ("serve.persist.journal_append_s", "serve.persist.journal_append",
             "s"),
            ("serve.persist.journal_sync_s", "serve.persist.journal_sync",
             "s")):
        figures[figure] = live.get(span, {}).get(kind, 0.0)
    for span, recovering in zip(spans, under_recover):
        parent = spans[span.parent] if span.parent >= 0 else None
        if (span.name in EVALUATE_SPANS and parent is not None
                and parent.name == "serve.process" and not recovering):
            figures["serve.evaluate_s"] += span.duration
        if not recovering:
            continue
        if span.name == "serve.persist.read_snapshot":
            figures["serve.recover.snapshot_read_s"] += span.duration
        elif span.name == "serve.process":
            figures["serve.recover.replay_s"] += span.duration
            figures["serve.recover.replayed_ticks"] += 1
    return figures


def unattributed_seconds(recorder: SpanRecorder,
                         intervals: List[Tuple[float, float]]) -> float:
    """Timed wall that no top-level span covers."""
    top = [(s.start, s.end) for s in recorder.spans if s.parent < 0]
    return sum((end - start) - covered_seconds((start, end), top)
               for start, end in intervals)


def _at_reference_speed(figures: Dict[str, float],
                        scale: float) -> Dict[str, float]:
    """Times and rates of *figures* converted with a unit's speed scale
    (see :meth:`~perfbench.common.PhaseTimes.scale`); counts unchanged."""
    per_unit = {"s": scale, "ms": scale, "1/s": 1.0 / scale}
    return {name: value * per_unit.get(PER_LAYER[name], 1.0)
            for name, value in figures.items()}


def run(workload: str, module, seed: int, seconds: float, outcome: Outcome,
        import_s: float) -> None:
    """Untraced unit, traced unit, then every per-layer metric, with times
    at the reference speed like the end-to-end metrics."""
    recorder = SpanRecorder()
    baseline = module.trace_unit(seed, outcome, None)
    restore = install(recorder, hooks())
    try:
        recorder.enabled = True
        traced = module.trace_unit(seed, outcome, recorder)
    finally:
        recorder.enabled = False
        restore()
    untraced_wall = sum(end - start for start, end in baseline.intervals)
    traced_wall = sum(end - start for start, end in traced.intervals)
    figures = layer_figures(recorder)
    figures["import_s"] = import_s
    figures[f"{workload}.unattributed_s"] = unattributed_seconds(
        recorder, traced.intervals)
    figures = _at_reference_speed(figures, traced.scale)
    figures.update(_at_reference_speed(
        {name: value for name, (value, _) in baseline.figures.items()},
        baseline.scale))
    figures["trace.overhead_ratio"] = (traced_wall * traced.scale
                                       / (untraced_wall * baseline.scale))
    for name, unit in PER_LAYER.items():
        outcome.metric(name, figures[name], unit)
    out_dir = os.path.join(RUN_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"{workload}-seed{seed}-spans.jsonl")
    recorder.write(spans_path)
    outcome.meta.update(spans_file=spans_path, n_spans=len(recorder.spans),
                        untraced_unit_s=untraced_wall,
                        traced_unit_s=traced_wall,
                        scales=[baseline.scale, traced.scale])
