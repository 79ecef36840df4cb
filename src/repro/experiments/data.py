"""Shared simulation data and trained monitors, cached per configuration.

Every experiment needs the same expensive artifacts: the fault-injection
campaign traces (simulated once, without a monitor — monitors are passive
and can be *replayed*, see :mod:`repro.simulation.replay`), the fault-free
reference runs, per-patient CAWT thresholds, and the trained ML baselines.
This module builds and memoises them so the whole table/figure suite costs
one campaign per platform.

Two backing modes, selected by ``ExperimentConfig.dataset_dir``:

- **in-memory** (default): traces live in lists for the process lifetime;
- **on-disk**: the campaign is streamed through a
  :class:`~repro.simulation.store.CampaignStoreWriter` on first run and
  lazily reopened as a :class:`~repro.simulation.store.TraceDataset` by
  every later invocation — including in *other* processes — so a grid is
  simulated once and replayed many times ("run once, replay many").  A
  fingerprint check guarantees the directory actually holds the campaign
  the config describes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..baselines import GuidelineMonitor, MPCMonitor
from ..core import (cawot_monitor, cawt_monitor, learn_fold_thresholds,
                    learn_thresholds)
from ..core.monitor import SafetyMonitor
from ..fi import CampaignConfig, INITIAL_GLUCOSE_VALUES, generate_campaign
from ..ml import TrainingJob, run_training_jobs
from ..simulation import (BASELINE_CACHE, CampaignStoreError,
                          CampaignStoreWriter, TraceDataset, kfold_split,
                          plan_campaign, plan_fault_free, plan_fingerprint,
                          replay_many, run_campaign, run_fault_free)
from ..simulation.store import manifest_path
from .config import ExperimentConfig

__all__ = ["PlatformData", "platform_data", "clear_cache",
           "cawt_cv_replay", "baseline_monitors", "ml_baseline_jobs",
           "ml_monitors", "train_test_split"]

_DATA_CACHE: Dict[tuple, "PlatformData"] = {}
_ML_CACHE: Dict[tuple, Dict[str, SafetyMonitor]] = {}
_THRESHOLD_CACHE: Dict[tuple, Dict[str, float]] = {}


@dataclass
class PlatformData:
    """Campaign + fault-free traces for one (platform, scale) choice.

    ``traces`` / ``fault_free`` are in-memory lists by default, or lazy
    :class:`~repro.simulation.store.TraceDataset` sequences when the config
    carries a ``dataset_dir`` — every consumer treats them uniformly as
    sequences in (patient, scenario) plan order.
    """

    config: ExperimentConfig
    traces: Sequence            # faulty campaign traces, patient-major order
    fault_free: Sequence        # fault-free runs over the init-BG grid
    by_patient: Dict[str, Sequence]
    fault_free_by_patient: Dict[str, Sequence]

    @property
    def hazard_fraction(self) -> float:
        return sum(t.hazardous for t in self.traces) / len(self.traces)


def _group_by_patient(traces: Sequence,
                      patients: Sequence[str]) -> Dict[str, List]:
    grouped: Dict[str, List] = {pid: [] for pid in patients}
    for trace in traces:
        grouped[trace.patient_id].append(trace)
    return grouped


def _ensure_store(directory: str, plan, folds: int,
                  simulate: Callable[[CampaignStoreWriter], None]
                  ) -> TraceDataset:
    """Open the dataset at *directory*, writing it first if absent.

    The reopened dataset's fingerprint must match the plan's — a mismatch
    means the directory holds some *other* campaign and is an error, not
    something to silently overwrite.
    """
    expected = plan_fingerprint(plan)
    if not os.path.exists(manifest_path(directory)):
        with CampaignStoreWriter(directory, plan.platform, plan.n_steps,
                                 folds=folds) as sink:
            simulate(sink)
    dataset = TraceDataset.open(directory)
    if dataset.fingerprint != expected:
        raise CampaignStoreError(
            f"dataset at {directory} holds a different campaign "
            f"(fingerprint {dataset.fingerprint[:12]}..., expected "
            f"{expected[:12]}...); point dataset_dir elsewhere or remove "
            "the stale directory")
    if dataset.folds != folds:
        raise CampaignStoreError(
            f"dataset at {directory} was written with "
            f"folds={dataset.folds} but the config expects folds={folds}; "
            "its recorded fold keys would describe the wrong split — use "
            "a different dataset_dir or remove the stale directory")
    return dataset


def _store_backed_data(config: ExperimentConfig) -> PlatformData:
    """Run-once/replay-many: stream the grid to disk, reopen lazily."""
    root = os.path.join(config.dataset_dir, config.dataset_slug())
    scenarios = generate_campaign(CampaignConfig(stride=config.stride))
    campaign_plan = plan_campaign(config.platform, config.patients,
                                  scenarios, n_steps=config.n_steps)
    ff_plan = plan_fault_free(config.platform, config.patients,
                              INITIAL_GLUCOSE_VALUES, n_steps=config.n_steps)
    traces = _ensure_store(
        os.path.join(root, "campaign"), campaign_plan, config.folds,
        lambda sink: run_campaign(config.platform, config.patients,
                                  scenarios, n_steps=config.n_steps,
                                  workers=config.workers,
                                  batch_size=config.batch_size, sink=sink))
    fault_free = _ensure_store(
        os.path.join(root, "fault_free"), ff_plan, config.folds,
        lambda sink: run_fault_free(config.platform, config.patients,
                                    INITIAL_GLUCOSE_VALUES,
                                    n_steps=config.n_steps,
                                    workers=config.workers,
                                    batch_size=config.batch_size, sink=sink))
    return PlatformData(
        config=config, traces=traces, fault_free=fault_free,
        by_patient={pid: traces.by_patient(pid) for pid in config.patients},
        fault_free_by_patient={pid: fault_free.by_patient(pid)
                               for pid in config.patients})


def _in_memory_data(config: ExperimentConfig) -> PlatformData:
    campaign = generate_campaign(CampaignConfig(stride=config.stride))
    traces = run_campaign(config.platform, config.patients, campaign,
                          n_steps=config.n_steps, workers=config.workers,
                          batch_size=config.batch_size)
    fault_free = run_fault_free(config.platform, config.patients,
                                INITIAL_GLUCOSE_VALUES, n_steps=config.n_steps,
                                workers=config.workers,
                                batch_size=config.batch_size)
    return PlatformData(
        config=config, traces=traces, fault_free=fault_free,
        by_patient=_group_by_patient(traces, config.patients),
        fault_free_by_patient=_group_by_patient(fault_free, config.patients))


def platform_data(config: ExperimentConfig) -> PlatformData:
    """Simulate (or fetch cached / stored) campaign data for *config*."""
    key = config.cache_key() + (config.dataset_dir,)
    if key in _DATA_CACHE:
        return _DATA_CACHE[key]
    if config.dataset_dir:
        data = _store_backed_data(config)
    else:
        data = _in_memory_data(config)
    _DATA_CACHE[key] = data
    return data


def clear_cache() -> None:
    """Drop all cached simulations and models (tests / memory control)."""
    _DATA_CACHE.clear()
    _ML_CACHE.clear()
    _THRESHOLD_CACHE.clear()
    BASELINE_CACHE.clear()


# ----------------------------------------------------------------------
# monitors
# ----------------------------------------------------------------------

def cawt_cv_replay(data: PlatformData,
                   loss: str = "tmee") -> Tuple[List, List[np.ndarray]]:
    """Patient-specific CAWT under k-fold cross-validation.

    For each patient, thresholds are learned on the training folds (plus the
    patient's fault-free runs) and replayed on the held-out fold.  Returns
    the evaluation traces and matching alert sequences, covering every
    campaign trace exactly once.
    """
    config = data.config
    eval_traces: List = []
    alerts: List[np.ndarray] = []
    for pid in config.patients:
        patient_traces = data.by_patient[pid]
        ff = list(data.fault_free_by_patient[pid])
        # the per-fold fits are independent, so the folds — not just the
        # sample mining inside each fit — fan out across the pool
        fold_results = learn_fold_thresholds(
            patient_traces, config.folds, fault_free=ff, loss=loss,
            window=config.mining_window, workers=config.workers,
            batch_size=config.batch_size)
        for fold, result in enumerate(fold_results):
            _, test = kfold_split(patient_traces, config.folds, fold)
            monitor = cawt_monitor(result.thresholds)
            alerts.extend(replay_many(monitor, test,
                                      workers=config.workers,
                                      batch_size=config.batch_size))
            eval_traces.extend(test)
    return eval_traces, alerts


def cawt_full_thresholds(data: PlatformData, pid: str,
                         loss: str = "tmee") -> dict:
    """Thresholds learned from all of one patient's data (for mitigation).

    Learned once per (simulation data, mining window, patient, loss) and
    memoised — Table VII's monitor factory asks again on every run — each
    call returning its own copy."""
    config = data.config
    key = (config.cache_key(), config.mining_window, pid, loss)
    if key not in _THRESHOLD_CACHE:
        _THRESHOLD_CACHE[key] = learn_thresholds(
            list(data.by_patient[pid]) + list(data.fault_free_by_patient[pid]),
            loss=loss, window=config.mining_window,
            workers=config.workers, batch_size=config.batch_size).thresholds
    return dict(_THRESHOLD_CACHE[key])


def baseline_monitors(config: ExperimentConfig) -> Dict[str, SafetyMonitor]:
    """The non-ML baselines: CAWOT, Guideline, MPC."""
    return {
        "CAWOT": cawot_monitor(),
        "Guideline": GuidelineMonitor(),
        "MPC": MPCMonitor(horizon_steps=config.mpc_horizon),
    }


def train_test_split(data: PlatformData) -> Tuple[Sequence, Sequence]:
    """The fold-0 split of the campaign (used for ML training).

    On store-backed data the split comes back as lazy index views — the
    same membership and order :func:`kfold_split` produces, but without
    materialising the campaign, so the reader's bounded-memory guarantee
    survives the ML paths too.
    """
    traces = data.traces
    k = data.config.folds
    if isinstance(traces, TraceDataset):
        indices = range(len(traces))
        return (traces.subset(i for i in indices if i % k != 0),
                traces.subset(i for i in indices if i % k == 0))
    return kfold_split(traces, k, 0)


def ml_baseline_jobs(config: ExperimentConfig,
                     multiclass: bool = False) -> List[TrainingJob]:
    """The Table VI training grid as :class:`~repro.ml.TrainingJob`s:
    DT/MLP/LSTM on the fold-0 training split of the campaign."""
    common = dict(fold=0, folds=config.folds, multiclass=multiclass,
                  seed=config.seed)
    return [
        TrainingJob.make("dt", max_depth=8, **common),
        TrainingJob.make("mlp", max_epochs=config.ml_epochs, **common),
        TrainingJob.make("lstm", window=config.lstm_window,
                         max_epochs=config.ml_epochs, **common),
    ]


def ml_monitors(data: PlatformData,
                multiclass: bool = False) -> Dict[str, SafetyMonitor]:
    """Trained DT/MLP/LSTM monitors (cached per config and head type).

    The three fits run as a :func:`~repro.ml.run_training_jobs` fan-out:
    ``config.workers`` processes train concurrently with element-wise
    identical results to the serial loop.  When the config is
    store-backed (``dataset_dir``), the feature matrices are materialised
    memory-mapped next to the campaign shards (``.../ml/``) — built once,
    page-shared by every worker and every later invocation.
    """
    key = data.config.cache_key() + (data.config.ml_epochs, multiclass)
    if key in _ML_CACHE:
        return _ML_CACHE[key]
    config = data.config
    mmap_root = None
    if config.dataset_dir:
        mmap_root = os.path.join(config.dataset_dir, config.dataset_slug(),
                                 "ml")
    trained = run_training_jobs(ml_baseline_jobs(config, multiclass),
                                data.traces, workers=config.workers,
                                mmap_root=mmap_root)
    monitors = {t.name: t.monitor for t in trained}
    _ML_CACHE[key] = monitors
    return monitors
