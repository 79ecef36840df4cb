"""Platform construction and campaign batch execution.

The paper evaluates two platforms (Fig. 5a): OpenAPS + Glucosym and
Basal-Bolus + UVA-Padova T1DS2013.  :func:`make_loop` builds the matched
patient/controller pair for a cohort member (controller profile derived from
the patient's steady-state basal via the 1800 rule), and :func:`run_campaign`
executes a fault-injection campaign over one or more patients — serially by
default, or fanned out over a process pool by
:func:`repro.simulation.executor.run_plan`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..controllers import BasalBolusController, Controller, OpenAPSController
from ..core.mitigation import Mitigator
from ..core.monitor import SafetyMonitor
from ..fi import FaultInjector, InjectionScenario
from ..parallel import resolve_batch_size, resolve_workers
from ..patients import PatientModel, make_patient
from .executor import (BASELINE_CACHE, PROFILE_CACHE, BaselineCache,
                       CampaignPlan, TraceSink, plan_campaign,
                       plan_fault_free, run_plan)
from .loop import ClosedLoop
from .trace import SimulationTrace

__all__ = ["controller_profile", "make_controller", "make_loop",
            "run_campaign", "run_fault_free", "kfold_split"]

#: platform -> controller factory
_PLATFORM_CONTROLLERS = {"glucosym": "openaps", "t1ds2013": "basal-bolus"}


def empirical_isf(patient: PatientModel, target: float = 120.0,
                  bolus_u: float = 1.0, horizon_min: float = 300.0) -> float:
    """Measure the patient's correction factor (mg/dL per U) in simulation.

    Clinicians titrate the insulin sensitivity factor from observed response;
    we reproduce that by resting the patient at its basal, giving a unit
    bolus and recording the maximum glucose drop over the insulin's duration
    of action.  The patient is reset afterwards.
    """
    basal = patient.basal_rate(target)
    patient.reset(target)
    patient.step(basal, bolus_u=bolus_u)
    low = patient.glucose
    for _ in range(int(horizon_min / 5.0) - 1):
        low = min(low, patient.step(basal))
    patient.reset(target)
    return max((target - low) / bolus_u, 5.0)


def controller_profile(patient: PatientModel,
                       target: float = 120.0) -> Dict[str, float]:
    """Controller profile for *patient*: steady-state basal plus the
    empirically titrated ISF (cached per patient model and target in the
    process-wide :data:`~repro.simulation.executor.PROFILE_CACHE`)."""
    def compute() -> Dict[str, float]:
        return {"basal": patient.basal_rate(target),
                "isf": empirical_isf(patient, target), "target": target}

    return PROFILE_CACHE.get_or_compute((patient.name, target), compute)


def make_controller(platform: str, patient: PatientModel,
                    target: float = 120.0) -> Controller:
    """Build the platform's controller configured for *patient*."""
    profile = controller_profile(patient, target)
    kind = _PLATFORM_CONTROLLERS.get(platform)
    if kind == "openaps":
        return OpenAPSController(basal=profile["basal"], isf=profile["isf"],
                                 target=profile["target"])
    if kind == "basal-bolus":
        return BasalBolusController(basal=profile["basal"], isf=profile["isf"],
                                    target=profile["target"])
    raise KeyError(f"unknown platform {platform!r}; "
                   f"available: {sorted(_PLATFORM_CONTROLLERS)}")


def make_loop(platform: str, patient_id: str,
              monitor: Optional[SafetyMonitor] = None,
              mitigator: Optional[Mitigator] = None,
              injector: Optional[FaultInjector] = None,
              target: float = 120.0) -> ClosedLoop:
    """Assemble the full closed loop for one cohort patient."""
    patient = make_patient(platform, patient_id, target_glucose=target)
    controller = make_controller(platform, patient, target)
    return ClosedLoop(patient=patient, controller=controller,
                      platform=platform, monitor=monitor,
                      mitigator=mitigator, injector=injector)


def run_campaign(platform: str, patient_ids: Sequence[str],
                 scenarios: Iterable[InjectionScenario],
                 monitor_factory: Optional[Callable[[str], SafetyMonitor]] = None,
                 mitigator: Optional[Mitigator] = None,
                 n_steps: int = 150,
                 workers: Optional[int] = None,
                 batch_size: Optional[int] = None,
                 sink: Optional[TraceSink] = None) -> Optional[List[SimulationTrace]]:
    """Run every injection scenario against every patient.

    Parameters
    ----------
    monitor_factory:
        Called with the patient id to build a (possibly patient-specific)
        monitor per patient; None runs without a monitor.
    mitigator:
        Shared mitigation strategy (only active when a monitor alerts).
    workers:
        Process-pool size; 1 (the default, also via ``REPRO_WORKERS``)
        runs serially in-process.  Trace order and content are identical
        for every worker count.
    batch_size:
        Lock-step vectorization width (default 1, also via
        ``REPRO_BATCH_SIZE``): runs are simulated ``batch_size`` at a
        time by :mod:`repro.simulation.vector` with element-wise
        identical traces.  Monitored and mitigated campaigns batch too —
        monitors evaluate column-wise each tick and mitigators correct
        the alerted rows in place (see ``docs/mitigation.md``).  Composes
        with *workers* — each pool chunk becomes a sequence of vectorized
        batches.
    sink:
        Optional :class:`~repro.simulation.executor.TraceSink`; when given,
        traces are streamed to it in (patient, scenario) order and ``None``
        is returned instead of an in-memory list.

    Returns
    -------
    list of SimulationTrace ordered by (patient, scenario), or None when
    streaming to *sink*.
    """
    plan = plan_campaign(platform, patient_ids, scenarios, n_steps=n_steps)
    return run_plan(plan, workers=workers, batch_size=batch_size,
                    monitor_factory=monitor_factory, mitigator=mitigator,
                    sink=sink)


def run_fault_free(platform: str, patient_ids: Sequence[str],
                   init_glucose_values: Sequence[float],
                   monitor_factory: Optional[Callable[[str], SafetyMonitor]] = None,
                   n_steps: int = 150,
                   workers: Optional[int] = None,
                   batch_size: Optional[int] = None,
                   cache: Optional[BaselineCache] = BASELINE_CACHE,
                   sink: Optional[TraceSink] = None) -> Optional[List[SimulationTrace]]:
    """Fault-free reference runs over the same initial-glucose grid.

    Unmonitored baselines are served from (and written back to) *cache* —
    keyed by platform/patient/initial BG/step count — so repeated
    experiments never resimulate the same reference runs.  Pass
    ``cache=None`` to force fresh simulation; runs with a monitor are
    never cached because the monitor's alerts are part of the trace.

    Note that an enabled cache retains every baseline trace by design, so
    bounded-memory streaming (*sink* with O(chunk) residency) requires
    ``cache=None``; with caching on, the sink still receives the traces
    in plan order but memory is O(grid) either way.
    """
    # validated up front: a fully cached call never reaches run_plan
    workers = resolve_workers(workers)
    batch_size = resolve_batch_size(batch_size)
    plan = plan_fault_free(platform, patient_ids, init_glucose_values,
                           n_steps=n_steps)
    if monitor_factory is not None or cache is None:
        return run_plan(plan, workers=workers, batch_size=batch_size,
                        monitor_factory=monitor_factory, sink=sink)

    keys = [BaselineCache.key(platform, run.patient_id, run.init_glucose,
                              n_steps) for run in plan.runs]
    traces = [cache.get(key) for key in keys]
    missing = [i for i, trace in enumerate(traces) if trace is None]
    if missing:
        sub_plan = CampaignPlan(platform=platform,
                                runs=tuple(plan.runs[i] for i in missing),
                                n_steps=n_steps)
        fresh = run_plan(sub_plan, workers=workers, batch_size=batch_size)
        for i, trace in zip(missing, fresh):
            cache.put(keys[i], trace)
            traces[i] = trace
    if sink is None:
        return traces
    for trace in traces:
        sink.write(trace)
    return None


def kfold_split(items: Sequence, k: int, fold: int):
    """Deterministic k-fold split; returns (train, test) lists.

    Items are assigned to folds round-robin, matching the paper's 4-fold
    cross-validation setup (Section V-B).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0 <= fold < k:
        raise ValueError(f"fold must be in [0, {k}), got {fold}")
    test = [x for i, x in enumerate(items) if i % k == fold]
    train = [x for i, x in enumerate(items) if i % k != fold]
    return train, test
