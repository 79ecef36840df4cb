"""Table VI — CAWT vs. the ML-based monitors (DT, MLP, LSTM).

Both evaluation granularities of Section V-D: sample level with tolerance
window and simulation level with two regions.  The ML monitors are trained
on the fold-0 training split; CAWT and the ML monitors are all evaluated on
the held-out fold-0 test split so the comparison is like-for-like.

Every stage scales with ``config.workers``: the ML fits run as a
:func:`~repro.ml.run_training_jobs` fan-out (via
:func:`~repro.experiments.data.ml_monitors`), replay over the shared
forked pool, and CAWT threshold learning parallelises its sample mining —
all with element-wise identical results to the serial path.
``config.batch_size`` sets the lock-step width of the replay and the
rule-context mining (:mod:`repro.simulation.replay`), composing with the
worker pool and again element-wise identical.
"""

from __future__ import annotations

from ..core import cawt_monitor, learn_thresholds
from ..metrics import simulation_confusion, traces_confusion
from ..simulation import replay_campaign, replay_many
from .config import ExperimentConfig
from .data import ml_monitors, platform_data, train_test_split
from .render import ExperimentResult

__all__ = ["run_table6"]

PAPER_TABLE6 = {
    # platform -> monitor -> (sample FPR, FNR, ACC, F1, sim FPR, FNR, ACC, F1)
    "glucosym": {
        "DT": (0.08, 0.01, 0.93, 0.81, 0.56, 0.01, 0.57, 0.52),
        "MLP": (0.05, 0.03, 0.96, 0.86, 0.25, 0.02, 0.80, 0.70),
        "LSTM": (0.04, 0.01, 0.96, 0.88, 0.24, 0.01, 0.82, 0.71),
        "CAWT": (0.01, 0.01, 0.99, 0.97, 0.12, 0.01, 0.91, 0.83),
    },
    "t1ds2013": {
        "DT": (0.20, 0.01, 0.83, 0.62, 1.00, 0.01, 0.26, 0.41),
        "MLP": (0.01, 0.45, 0.93, 0.67, 0.12, 0.30, 0.84, 0.68),
        "LSTM": (0.01, 0.03, 0.98, 0.94, 0.17, 0.03, 0.87, 0.78),
        "CAWT": (0.01, 0.02, 1.00, 0.98, 0.10, 0.01, 0.92, 0.87),
    },
}


def run_table6(config: ExperimentConfig) -> ExperimentResult:
    data = platform_data(config)
    train, test = train_test_split(data)
    result = ExperimentResult(
        title=f"Table VI — CAWT vs ML monitors ({config.platform})",
        headers=("monitor", "FPR", "FNR", "ACC", "F1",
                 "simFPR", "simFNR", "simACC", "simF1"))

    def add_row(name, eval_traces, alerts):
        cm = traces_confusion(eval_traces, alerts, delta=config.tolerance)
        sm = simulation_confusion(eval_traces, alerts)
        result.rows.append((name,) + cm.as_row() + sm.as_row())

    ml = ml_monitors(data)
    ml_alerts = replay_campaign(ml, test, workers=config.workers,
                                batch_size=config.batch_size)
    for name in ml:
        add_row(name, test, ml_alerts[name])

    # CAWT trained on the same training fold (patient-specific thresholds)
    alerts = []
    eval_traces = []
    for pid in config.patients:
        train_p = [t for t in train if t.patient_id == pid]
        test_p = [t for t in test if t.patient_id == pid]
        thresholds = learn_thresholds(
            train_p + list(data.fault_free_by_patient[pid]),
            window=config.mining_window, workers=config.workers,
            batch_size=config.batch_size).thresholds
        alerts.extend(replay_many(cawt_monitor(thresholds), test_p,
                                  workers=config.workers,
                                  batch_size=config.batch_size))
        eval_traces.extend(test_p)
    add_row("CAWT", eval_traces, alerts)

    paper = PAPER_TABLE6.get(config.platform, {})
    for monitor, values in paper.items():
        result.notes.append(
            f"paper {monitor}: sample FPR {values[0]} FNR {values[1]} "
            f"ACC {values[2]} F1 {values[3]} | sim FPR {values[4]} "
            f"FNR {values[5]} ACC {values[6]} F1 {values[7]}")
    return result
