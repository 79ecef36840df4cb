"""Shared pieces of the three workloads: clocks, statistics, cold caches,
work directories and the machine-speed probe."""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: where a run keeps its on-disk state, relative to the checkout root
RUN_DIR = ".perfbench_run"
#: seconds of timed work between two speed probes, at least
PROBE_EVERY_S = 0.5
#: the probe loop's time at the reference speed (about its mean on a
#: shared two-core 2.0 GHz Xeon VM)
PROBE_REF_S = 0.012

clock = time.perf_counter


@dataclass
class Unit:
    """One traced or untraced unit of work: its timed intervals, the stage
    figures measured on it and its speed scale."""

    intervals: List[Tuple[float, float]]
    scale: float
    figures: Dict[str, Tuple[float, str]] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one workload run hands back to run.py."""

    metrics: Dict[str, tuple] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, problems: List[str], attempted: int = 1) -> None:
        """Count *attempted* operations, failing one per problem found."""
        self.attempted += attempted
        self.failures.extend(problems)


class PhaseTimes:
    """Samples per named phase, one per pass: seconds, or the number of
    items a phase handled.

    The per-run figure of a phase is the median over its samples, so a
    slow spell of the machine that hits one pass of one phase does not
    move the result.  Every timed interval is kept too: the traced run
    attributes exactly that wall time to layers.  After each timed phase,
    and inside long ones, at most every ``PROBE_EVERY_S`` seconds, the
    machine's speed is probed (see :meth:`scale`).
    """

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}
        self.intervals: List[Tuple[float, float]] = []
        self.probes: List[float] = []
        self._last_probe = -float("inf")
        self._cuts: Optional[List[Tuple[float, float]]] = None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    @contextlib.contextmanager
    def timed(self, name: str):
        """Time the body as one sample of phase *name*, less the time of
        any probe taken inside it (see :meth:`probe_within`)."""
        self._cuts = []
        start = clock()
        try:
            yield
        finally:
            end = clock()
            edges = [start] + [t for cut in self._cuts for t in cut] + [end]
            pieces = list(zip(edges[::2], edges[1::2]))
            self._cuts = None
            self.intervals.extend(pieces)
            self.add(name, sum(b - a for a, b in pieces))
            self.probe_within()

    def probe_within(self) -> None:
        """Probe the machine's speed if ``PROBE_EVERY_S`` has passed since
        the last probe.  Inside :meth:`timed`, long phases call this from
        their own loops; the probe's time is cut out of the phase."""
        start = clock()
        if start - self._last_probe < PROBE_EVERY_S:
            return
        self.probes.append(speed_probe())
        self._last_probe = clock()
        if self._cuts is not None:
            self._cuts.append((start, self._last_probe))

    def scale(self) -> float:
        """Factor that turns this run's seconds into seconds at the
        reference speed: ``PROBE_REF_S`` over the mean probe, which, with
        probes spread evenly over the run, follows the run's mean speed.

        On a shared two-core Xeon VM a fixed loop's time changes by a third
        from minute to minute (with ``process_time`` tracking wall time),
        which moves whole runs by as much; the probe, taken between and
        inside the phases of the same run, moves with them.
        """
        if not self.probes:
            self.probes.append(speed_probe())
        return PROBE_REF_S / statistics.fmean(self.probes)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def sum_of_medians(self, prefix: str) -> float:
        return sum(statistics.median(v) for k, v in self.samples.items()
                   if k.startswith(prefix))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_caches() -> None:
    """Drop every process-wide cache the workloads fill, so each
    repetition of set-up pays its lazy work again."""
    from repro.experiments import clear_cache
    from repro.simulation import PROFILE_CACHE
    from repro.simulation import vector

    clear_cache()
    PROFILE_CACHE.clear()
    vector._IOB_TABLE_CACHE.clear()


def fresh_dir(*parts: str) -> str:
    """An empty directory under the run's work area."""
    path = os.path.join(RUN_DIR, "work", *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def clean_work_dirs() -> None:
    """Remove every directory :func:`fresh_dir` made."""
    shutil.rmtree(os.path.join(RUN_DIR, "work"), ignore_errors=True)


def speed_probe() -> float:
    """Seconds of a fixed pure-Python loop (about 10 ms) that touches no
    project code: the machine's speed at this moment."""
    start = clock()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    return clock() - start


def report(outcome: Outcome, times: PhaseTimes, setup_s: float,
           job_s: float) -> None:
    """Record the end-to-end metrics at the reference speed, and the raw
    seconds and probe figures beside them in the metadata."""
    scale = times.scale()
    outcome.metric("setup_s", setup_s * scale, "s")
    outcome.metric("job_s", job_s * scale, "s")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.meta.update(raw_setup_s=setup_s, raw_job_s=job_s, scale=scale,
                        probe_samples_s=times.probes)


def thread_settings() -> Dict[str, object]:
    """numpy/BLAS threading in effect for this run."""
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    settings: Dict[str, object] = {name: os.environ.get(name)
                                   for name in names}
    settings["numpy"] = np.__version__
    settings["cpu_count"] = os.cpu_count()
    try:
        settings["affinity"] = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        settings["affinity"] = None
    return settings
