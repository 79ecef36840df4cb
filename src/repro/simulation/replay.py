"""Offline monitor replay over recorded traces.

Monitors are passive observers: unless mitigation is enabled, they do not
change the closed-loop dynamics.  A fault-injection campaign therefore only
needs to be *simulated once*; every candidate monitor can then be evaluated
by replaying the recorded context stream through it.  This is what makes the
paper's many-monitor comparisons (Tables V, VI, Fig. 9) tractable.

:func:`replay_campaign` is the one replay path.  Within a chunk of the
trace list, consecutive equal-length traces are stacked into lock-step
context batches evaluated column-wise through
:meth:`~repro.core.monitor.SafetyMonitor.observe_batch` (``batch_size=``;
a batch of one is an ordinary batch), and the chunks fan out over the
forked-pool protocol of :mod:`repro.parallel` (``workers=``).  Both are
wall-clock settings only: every column is evaluated as if the monitor
were freshly reset, so the alert streams are element-wise identical to
the scalar :func:`replay_monitor` loop — the reference the parity tests
compare against — for any combination.  Any trace sequence works, in
particular the lazy :class:`~repro.simulation.store.TraceDataset`, in
which case each worker loads only its own shards.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.monitor import SafetyMonitor
from ..parallel import (iter_equal_length_groups, map_slices,
                        resolve_batch_size)
from .features import ContextBatch
from .trace import SimulationTrace

__all__ = ["replay_monitor", "replay_many", "replay_campaign",
           "iter_contexts"]


def iter_contexts(trace: SimulationTrace):
    """Yield the per-cycle :class:`ContextVector` stream of a trace.

    Reconstructs exactly what the closed loop fed the monitor: the ``B=1``
    column of the shared
    :class:`~repro.simulation.features.ContextBatch` — replay, batched
    replay and ML dataset construction therefore agree cycle-for-cycle by
    construction.
    """
    yield from ContextBatch.from_traces([trace]).iter_column(0)


def replay_monitor(monitor: SafetyMonitor,
                   trace: SimulationTrace) -> Tuple[np.ndarray, np.ndarray]:
    """Replay one trace through *monitor*.

    Returns ``(alerts, hazards)``: boolean alert flags and the predicted
    hazard-type codes (0 when silent) per cycle.  The monitor is reset first.
    """
    monitor.reset()
    n = len(trace)
    alerts = np.zeros(n, dtype=bool)
    hazards = np.zeros(n, dtype=int)
    for t, ctx in enumerate(iter_contexts(trace)):
        verdict = monitor.observe(ctx)
        alerts[t] = verdict.alert
        hazards[t] = 0 if verdict.hazard is None else int(verdict.hazard)
    return alerts, hazards


def _observe_checked(monitor: SafetyMonitor, name: str,
                     batch: ContextBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``observe_batch`` and validate the verdict-matrix shapes, so a
    miswritten override fails loudly instead of silently misaligning the
    per-trace alert streams."""
    alerts, hazards = monitor.observe_batch(batch)
    if np.shape(alerts) != batch.shape or np.shape(hazards) != batch.shape:
        raise ValueError(
            f"monitor {name!r} returned verdict matrices of shape "
            f"{np.shape(alerts)}/{np.shape(hazards)} for a context batch "
            f"of shape {batch.shape}")
    return alerts, hazards


def _replay_chunk(monitors: Mapping[str, SafetyMonitor],
                  traces: Iterable[SimulationTrace],
                  batch_size: int) -> Dict[str, List[np.ndarray]]:
    """Replay *monitors* over a trace stream in lock-step batches.

    The one place offline replay happens: the serial path hands it the
    whole stream, the parallel path one slice per task.  Consecutive
    equal-length traces are stacked into at most *batch_size* columns
    (one :class:`ContextBatch` resident at a time); a batch of one is an
    ordinary batch.  Returns ``name -> per-trace boolean alert arrays``
    aligned with the input stream.
    """
    out: Dict[str, List[np.ndarray]] = {name: [] for name in monitors}
    for group in iter_equal_length_groups(traces, batch_size):
        batch = ContextBatch.from_traces(group)
        for name, monitor in monitors.items():
            alerts, _ = _observe_checked(monitor, name, batch)
            out[name].extend(np.ascontiguousarray(alerts[:, b])
                             for b in range(alerts.shape[1]))
    return out


def replay_campaign(monitors: Mapping[str, SafetyMonitor],
                    traces: Iterable[SimulationTrace],
                    workers: Optional[int] = None,
                    batch_size: Optional[int] = None
                    ) -> Dict[str, List[np.ndarray]]:
    """Replay a named set of monitors over recorded traces.

    Parameters
    ----------
    monitors:
        ``name -> monitor`` mapping; every monitor sees every trace as if
        freshly reset before it, exactly like :func:`replay_monitor`.  The
        context stream of each batch is built once and shared by all
        monitors.
    traces:
        Any iterable of traces.  Serially, plain iterables (generators
        included) are streamed one batch at a time; with ``workers > 1``
        they are sliced by index — ideally a lazy
        :class:`~repro.simulation.store.TraceDataset`, so each worker
        loads only its own shards (non-sequence iterables are
        materialised first).
    workers:
        Process count (None: ``REPRO_WORKERS`` env, or 1).  Monitors and
        the trace sequence are fork-inherited, never pickled, so trained
        models and lazy datasets work unchanged; only the boolean alert
        arrays travel back.
    batch_size:
        Lock-step replay width (None: ``REPRO_BATCH_SIZE`` env, or 1).
        Traces are stacked into ``(n_steps, B)`` context batches and
        every monitor is evaluated column-wise via
        :meth:`~repro.core.monitor.SafetyMonitor.observe_batch`.

    Both settings change wall-clock time only: the alert streams equal
    :func:`replay_monitor`'s element-wise for every combination.
    Returns ``name -> list of per-trace boolean alert arrays``, aligned
    with *traces*.
    """
    named = dict(monitors)
    batch_size = resolve_batch_size(batch_size)
    out: Dict[str, List[np.ndarray]] = {name: [] for name in named}
    if not named:
        return out

    def replay_chunk(chunk):
        return _replay_chunk(named, chunk, batch_size)

    for chunk_result in map_slices(replay_chunk, traces, workers):
        for name, alerts in chunk_result.items():
            out[name].extend(alerts)
    return out


def replay_many(monitor: SafetyMonitor,
                traces: Iterable[SimulationTrace],
                workers: Optional[int] = None,
                batch_size: Optional[int] = None) -> List[np.ndarray]:
    """Alert sequences of *monitor* over a list of traces (``workers`` and
    ``batch_size`` as for :func:`replay_campaign`)."""
    return replay_campaign({"monitor": monitor}, traces, workers=workers,
                           batch_size=batch_size)["monitor"]
