"""Parallel campaign execution engine.

The paper's evaluation grid is 882 fault injections per patient across a
20-patient, two-platform cohort (Section V-B) — embarrassingly parallel
work that the original ``run_campaign`` executed serially in one process.
This module supplies the machinery to fan that grid out over a worker pool
while keeping the output *byte-identical* to the serial loop:

- :func:`plan_campaign` / :func:`plan_fault_free` normalise a campaign into
  an immutable :class:`CampaignPlan` — a flat, patient-major tuple of
  :class:`SimRun` cells;
- :func:`run_plan` executes a plan: contiguous slices of it fan out over
  the forked pool of :func:`repro.parallel.map_slices` (fork start
  method, so unpicklable monitor factories are inherited, not
  serialised) and the traces come back in stable (patient, scenario)
  order;
- :class:`ProfileCache` and :class:`BaselineCache` hold the expensive
  shared artifacts (titrated controller profiles, fault-free reference
  traces) in explicit, lock-guarded objects that forked workers warm
  independently;
- :class:`TraceSink` and friends stream traces out of memory so
  million-trace campaigns never hold every :class:`SimulationTrace` at
  once.

Every execution path funnels through the same per-chunk runner, so
``workers`` and ``batch_size`` never change the simulated dynamics — only
the wall-clock time.
"""

from __future__ import annotations

import abc
import functools
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..core.mitigation import Mitigator
from ..core.monitor import SafetyMonitor
from ..fi import FaultInjector, FaultSpec, InjectionScenario
from ..parallel import map_slices, resolve_batch_size, resolve_workers
from ..patients import Meal
from .scenario import Scenario
from .trace import SimulationTrace, trace_to_arrays, trace_to_struct

__all__ = [
    "SimRun", "CampaignPlan", "plan_campaign", "plan_fault_free",
    "ProfileCache", "BaselineCache", "PROFILE_CACHE", "BASELINE_CACHE",
    "TraceSink", "ListSink", "CountingSink", "NpzDirectorySink",
    "NpyDirectorySink", "run_plan", "get_executor", "resolve_batch_size",
]

MonitorFactory = Callable[[str], SafetyMonitor]


# ----------------------------------------------------------------------
# plans: the normalised (patient x scenario) grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimRun:
    """One cell of the campaign grid: a patient plus one simulation spec.

    ``meals`` carries scheduled carbohydrate disturbances (empty for the
    paper's meal-free grid); sampled scenario populations — the rare-event
    search in :mod:`repro.search` — plan meal scenarios through the same
    :func:`run_plan` path, so both the scalar and lock-step engines
    consume them.
    """

    patient_id: str
    init_glucose: float
    label: str
    fault: Optional[FaultSpec] = None
    meals: Tuple[Meal, ...] = ()


@dataclass(frozen=True)
class CampaignPlan:
    """An immutable, patient-major execution plan.

    The run order *is* the output order: :func:`run_plan` returns (or
    streams) traces exactly in ``plan.runs`` order, whatever the worker
    count.
    """

    platform: str
    runs: Tuple[SimRun, ...]
    n_steps: int = 150
    target: float = 120.0
    dt: float = 5.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def __len__(self) -> int:
        return len(self.runs)


def plan_campaign(platform: str, patient_ids: Sequence[str],
                  scenarios: Iterable[InjectionScenario],
                  n_steps: int = 150, dt: float = 5.0) -> CampaignPlan:
    """Plan a fault-injection campaign: every scenario against every patient."""
    scenarios = tuple(scenarios)
    runs = tuple(SimRun(patient_id=pid, init_glucose=scn.init_glucose,
                        label=scn.label, fault=scn.fault)
                 for pid in patient_ids for scn in scenarios)
    return CampaignPlan(platform=platform, runs=runs, n_steps=n_steps, dt=dt)


def plan_fault_free(platform: str, patient_ids: Sequence[str],
                    init_glucose_values: Sequence[float],
                    n_steps: int = 150, dt: float = 5.0) -> CampaignPlan:
    """Plan the fault-free reference runs over the initial-glucose grid."""
    runs = tuple(SimRun(patient_id=pid, init_glucose=float(bg),
                        label=f"fault-free/bg{bg:g}", fault=None)
                 for pid in patient_ids for bg in init_glucose_values)
    return CampaignPlan(platform=platform, runs=runs, n_steps=n_steps, dt=dt)


# ----------------------------------------------------------------------
# caches
# ----------------------------------------------------------------------

class ProfileCache:
    """Lock-guarded cache of titrated controller profiles.

    Replaces the former ad-hoc module-global ``_PROFILE_CACHE`` dict in
    :mod:`repro.simulation.batch`.  Each process owns its instance: forked
    workers inherit whatever the parent warmed before the fork and fill in
    the rest independently, so there is no cross-process coordination to
    get wrong.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._profiles: Dict[tuple, Dict[str, float]] = {}

    def get_or_compute(self, key: tuple,
                       compute: Callable[[], Dict[str, float]]) -> Dict[str, float]:
        """Cached profile for *key*, computing (under the lock) on a miss."""
        with self._lock:
            if key not in self._profiles:
                self._profiles[key] = compute()
            return dict(self._profiles[key])

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._profiles


class BaselineCache:
    """Cache of fault-free baseline traces.

    Keyed by ``(platform, patient_id, init_glucose, n_steps)`` — the full
    identity of a monitor-less, mitigation-less fault-free run.  Campaign
    code consults it before simulating so the same baselines are never
    recomputed across experiments; forked workers inherit the parent's warm
    entries and can warm their own copies independently.

    Only unmonitored runs are cacheable: a monitor changes the recorded
    alert channels, so those traces are never served from here.
    """

    @staticmethod
    def key(platform: str, patient_id: str, init_glucose: float,
            n_steps: int) -> tuple:
        return (platform, patient_id, float(init_glucose), int(n_steps))

    def __init__(self):
        self._lock = threading.Lock()
        self._traces: Dict[tuple, SimulationTrace] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[SimulationTrace]:
        with self._lock:
            trace = self._traces.get(key)
            if trace is None:
                self.misses += 1
            else:
                self.hits += 1
            return trace

    def put(self, key: tuple, trace: SimulationTrace) -> None:
        with self._lock:
            self._traces[key] = trace

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self.hits = self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._traces


#: process-wide default instances (one per process; fork inherits them warm)
PROFILE_CACHE = ProfileCache()
BASELINE_CACHE = BaselineCache()


# ----------------------------------------------------------------------
# trace sinks: stream results instead of accumulating them
# ----------------------------------------------------------------------

class TraceSink(abc.ABC):
    """Consumer of a stable-ordered trace stream.

    :func:`run_plan` calls :meth:`write` once per completed run, in exact
    plan order.  The *caller* owns the sink's lifecycle — use it as a context
    manager (or call :meth:`close`) so one sink can absorb several
    campaigns before flushing.  Sinks let arbitrarily large campaigns run
    in bounded memory: :func:`run_plan` drops each chunk after handing it
    over.
    """

    @abc.abstractmethod
    def write(self, trace: SimulationTrace) -> None:
        """Consume one trace."""

    def close(self) -> None:
        """Flush/finalise (default: nothing)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ListSink(TraceSink):
    """Accumulate traces in memory (the classic return-a-list behaviour)."""

    def __init__(self):
        self.traces: List[SimulationTrace] = []

    def write(self, trace: SimulationTrace) -> None:
        self.traces.append(trace)


class CountingSink(TraceSink):
    """Keep only aggregate statistics — O(1) memory for any campaign size."""

    def __init__(self):
        self.n_traces = 0
        self.n_hazardous = 0
        self.n_alerting = 0

    def write(self, trace: SimulationTrace) -> None:
        self.n_traces += 1
        self.n_hazardous += int(trace.hazardous)
        self.n_alerting += int(bool(trace.alert.any()))

    @property
    def hazard_fraction(self) -> float:
        return self.n_hazardous / self.n_traces if self.n_traces else 0.0


class NpzDirectorySink(TraceSink):
    """Stream each trace to ``<directory>/trace_<index>.npz``.

    Each shard is a self-describing
    :func:`~repro.simulation.trace.trace_to_arrays` payload: array channels
    stored as-is, identity metadata (platform, patient, label, dt and the
    fault spec fields) riding along as 0-d object-free entries.  Pair with
    a manifest via :class:`repro.simulation.store.CampaignStoreWriter` to
    get a reopenable on-disk dataset.
    """

    #: shard filename extension (subclasses override)
    suffix = "npz"

    def __init__(self, directory: str, index_offset: int = 0):
        if index_offset < 0:
            raise ValueError(
                f"index_offset must be >= 0, got {index_offset}")
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        stale = [name for name in os.listdir(directory)
                 if name.startswith("trace_")
                 and name.endswith((".npz", ".npy"))]
        if stale:
            raise FileExistsError(
                f"{directory} already holds {len(stale)} trace file(s); "
                "writing would intermix two campaigns — use a fresh "
                "directory or remove them first")
        #: shard numbering starts here — a distributed range worker
        #: writing runs [start, stop) of one shared plan passes
        #: ``index_offset=start`` so its shard names are *global* plan
        #: indices and partial directories merge without renaming
        self.index_offset = int(index_offset)
        self.n_written = 0

    @classmethod
    def shard_name(cls, index: int) -> str:
        return f"trace_{index:09d}.{cls.suffix}"

    def _write_shard(self, path: str, trace: SimulationTrace) -> None:
        np.savez_compressed(path, **trace_to_arrays(trace))

    def write(self, trace: SimulationTrace) -> None:
        path = os.path.join(
            self.directory, self.shard_name(self.index_offset + self.n_written))
        self._write_shard(path, trace)
        self.n_written += 1


class NpyDirectorySink(NpzDirectorySink):
    """Stream each trace to an *uncompressed* ``trace_<index>.npy`` shard.

    The payload is the :func:`~repro.simulation.trace.trace_to_struct`
    structured array — channels only, no identity metadata — so unlike the
    npz shards these files are not self-describing: pair them with a
    :class:`repro.simulation.store.CampaignStoreWriter` (which records the
    metadata in its manifest, ``shard_format="npy"``).  The payoff is on
    the read side: the store's lazy reader opens them with
    ``mmap_mode="r"`` and every channel access is a zero-copy view of the
    page cache, making replay-heavy loops immune to decompression cost.
    """

    suffix = "npy"

    def _write_shard(self, path: str, trace: SimulationTrace) -> None:
        np.save(path, trace_to_struct(trace))


# ----------------------------------------------------------------------
# the shared chunk runner
# ----------------------------------------------------------------------

def _run_chunk(plan: CampaignPlan, runs: Sequence[SimRun],
               monitor_factory: Optional[MonitorFactory],
               mitigator: Optional[Mitigator],
               batch_size: int = 1) -> List[SimulationTrace]:
    """Execute a contiguous slice of the plan.

    This is the *only* place simulations happen — the serial path, pool
    workers and cache-warming all call it, which is what guarantees that
    worker count cannot change the simulated dynamics.  With
    ``batch_size > 1`` the slice runs through the lock-step vectorized
    engine (:mod:`repro.simulation.vector`) — monitored and mitigated runs
    included, with per-tick column-wise monitor evaluation and row-wise
    command correction — whose traces are element-wise identical to the
    scalar loop below (see ``docs/mitigation.md`` for the contract).
    """
    from .batch import make_loop  # deferred: batch imports this module too

    if batch_size > 1:
        from .vector import run_vector_chunk
        return run_vector_chunk(plan, runs, batch_size,
                                monitor_factory=monitor_factory,
                                mitigator=mitigator)

    traces: List[SimulationTrace] = []
    loop = None
    current_pid: Optional[str] = None
    for run in runs:
        if loop is None or run.patient_id != current_pid:
            monitor = monitor_factory(run.patient_id) if monitor_factory else None
            loop = make_loop(plan.platform, run.patient_id, monitor=monitor,
                             mitigator=mitigator, target=plan.target)
            current_pid = run.patient_id
        loop.injector = (FaultInjector(run.fault)
                         if run.fault is not None else None)
        sim = Scenario(init_glucose=run.init_glucose, n_steps=plan.n_steps,
                       dt=plan.dt, label=run.label, meals=run.meals)
        traces.append(loop.run(sim))
    return traces


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def run_plan(plan: CampaignPlan, *, workers: Optional[int] = None,
             batch_size: Optional[int] = None,
             monitor_factory: Optional[MonitorFactory] = None,
             mitigator: Optional[Mitigator] = None,
             sink: Optional[TraceSink] = None
             ) -> Optional[List[SimulationTrace]]:
    """Execute *plan*, preserving plan order exactly.

    Serially (``workers`` resolves to 1, the default, also via
    ``REPRO_WORKERS``) the whole plan is one chunk, so the monitor
    factory is invoked once per patient.  With more workers, contiguous
    slices of the plan fan out over a forked pool
    (:func:`repro.parallel.map_slices`) and are collected in submission
    order, so parent-side memory stays proportional to ``workers``, not
    campaign size.  *batch_size* (None: ``REPRO_BATCH_SIZE`` env, or 1)
    is the lock-step width of :func:`_run_chunk`.  Neither setting
    changes a trace.

    Without a sink, returns the full trace list in plan order.  With a
    sink, each trace is streamed to ``sink.write`` as its chunk completes
    (still in plan order), memory stays bounded by the chunk size, and
    ``None`` is returned.
    """
    batch_size = resolve_batch_size(batch_size)

    def run_chunk(runs):
        return _run_chunk(plan, runs, monitor_factory, mitigator, batch_size)

    chunks = map_slices(run_chunk, plan.runs, workers)
    if sink is None:
        return [trace for chunk in chunks for trace in chunk]
    for chunk in chunks:
        for trace in chunk:
            sink.write(trace)
    return None


def get_executor(workers: Optional[int] = None,
                 batch_size: Optional[int] = None) -> SimpleNamespace:
    """:func:`run_plan` with *workers* and *batch_size* bound (validated
    here), as an object whose ``run(plan, **kwargs)`` takes the rest.
    Kept for callers written against an executor object, such as the
    benchmark's campaign workload (``perfbench/campaign.py``)."""
    return SimpleNamespace(run=functools.partial(
        run_plan, workers=resolve_workers(workers),
        batch_size=resolve_batch_size(batch_size)))
