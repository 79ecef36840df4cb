"""Table V — CAWT vs. the non-ML baseline monitors.

Sample-level hazard-prediction accuracy (tolerance window) of the
context-aware monitor with learned thresholds against Guideline, MPC and
CAWOT, on one platform.  CAWT uses patient-specific thresholds under k-fold
cross-validation (Section V-B).

All monitor replay and threshold mining here scale with
``config.workers`` (forked pool) and ``config.batch_size`` (lock-step
batches, :mod:`repro.simulation.replay`) — both wall-clock knobs with
element-wise identical results.
"""

from __future__ import annotations

from ..metrics import traces_confusion
from ..simulation import replay_campaign
from .config import ExperimentConfig
from .data import baseline_monitors, cawt_cv_replay, platform_data
from .render import ExperimentResult

__all__ = ["run_table5"]

PAPER_TABLE5 = {
    # platform -> monitor -> (FPR, FNR, ACC, F1)
    "glucosym": {
        "Guideline": (0.02, 0.32, 0.95, 0.73),
        "MPC": (0.02, 0.33, 0.95, 0.73),
        "CAWOT": (0.01, 0.21, 0.96, 0.84),
        "CAWT": (0.01, 0.01, 0.99, 0.97),
    },
    "t1ds2013": {
        "Guideline": (0.99, 0.00, 0.26, 0.41),
        "MPC": (0.01, 0.01, 0.99, 0.96),
        "CAWOT": (0.05, 0.01, 0.96, 0.87),
        "CAWT": (0.01, 0.02, 1.00, 0.98),
    },
}


def run_table5(config: ExperimentConfig) -> ExperimentResult:
    data = platform_data(config)
    result = ExperimentResult(
        title=f"Table V — CAWT vs non-ML monitors ({config.platform})",
        headers=("monitor", "n_sim", "hazard%", "FPR", "FNR", "ACC", "F1"))

    n_sim = len(data.traces)
    hazard_pct = 100.0 * data.hazard_fraction
    monitors = baseline_monitors(config)
    alert_map = replay_campaign(monitors, data.traces,
                                workers=config.workers,
                                batch_size=config.batch_size)
    for name in monitors:
        cm = traces_confusion(data.traces, alert_map[name],
                              delta=config.tolerance)
        result.rows.append((name, n_sim, hazard_pct) + cm.as_row())

    eval_traces, alerts = cawt_cv_replay(data)
    cm = traces_confusion(eval_traces, alerts, delta=config.tolerance)
    result.rows.append(("CAWT", n_sim, hazard_pct) + cm.as_row())

    paper = PAPER_TABLE5.get(config.platform, {})
    for monitor, values in paper.items():
        result.notes.append(
            f"paper {monitor}: FPR {values[0]}, FNR {values[1]}, "
            f"ACC {values[2]}, F1 {values[3]}")
    return result
