"""Fig. 9 — average reaction time (minutes) of every monitor.

Reaction time is ``th - td``: how long before hazard occurrence the monitor
raised its first alert.  The paper's headline observations: the CAWT monitor
reacts about two hours early with the lowest standard deviation; Guideline
and MPC react late and erratically; ML monitors react early but with
unstable spread and a slightly lower early-detection rate.

``config.workers`` parallelises every expensive stage here: per-fold CAWT
threshold fits (:func:`~repro.core.learn_fold_thresholds` inside
``cawt_cv_replay``), the DT/MLP/LSTM training jobs behind ``ml_monitors``,
and all monitor replay — each element-wise identical to its serial path.
``config.batch_size`` sets the lock-step width of the replay and mining
(:mod:`repro.simulation.replay`), with the same guarantee.
"""

from __future__ import annotations

from ..metrics import reaction_stats
from ..simulation import replay_campaign
from .config import ExperimentConfig
from .data import (
    baseline_monitors,
    cawt_cv_replay,
    ml_monitors,
    platform_data,
    train_test_split,
)
from .render import ExperimentResult

__all__ = ["run_fig9"]


def run_fig9(config: ExperimentConfig) -> ExperimentResult:
    data = platform_data(config)
    result = ExperimentResult(
        title=f"Fig. 9 — reaction time per monitor ({config.platform})",
        headers=("monitor", "mean_min", "std_min", "EDR", "n_hazard",
                 "n_detected"))

    def add_row(name, traces, alerts):
        stats = reaction_stats(traces, alerts)
        result.rows.append((name, stats.mean, stats.std,
                            stats.early_detection_rate, stats.n_hazardous,
                            stats.n_detected))

    eval_traces, alerts = cawt_cv_replay(data)
    add_row("CAWT", eval_traces, alerts)
    baselines = baseline_monitors(config)
    baseline_alerts = replay_campaign(baselines, data.traces,
                                      workers=config.workers,
                                      batch_size=config.batch_size)
    for name in baselines:
        add_row(name, data.traces, baseline_alerts[name])
    _, test = train_test_split(data)
    ml = ml_monitors(data)
    ml_alerts = replay_campaign(ml, test, workers=config.workers,
                                batch_size=config.batch_size)
    for name in ml:
        add_row(name, test, ml_alerts[name])

    result.notes.append(
        "paper: CAWT detects ~2 h before the hazard with the lowest std; "
        "Guideline/MPC are >=1.6 h later with very high std; ML monitors "
        "react ~40 min earlier than CAWT but with unstable spread and "
        "0.4-4.3% lower EDR")
    return result
