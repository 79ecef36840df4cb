"""Output checks.  Each returns a list of problems; an empty list passes.

They take plain outputs (experiment results, traces, tick results) so the
benchmark's own tests can hand them a deliberately corrupted output and
see it rejected.
"""

from __future__ import annotations

import hashlib
import math
from numbers import Number
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core import cawt_monitor
from repro.serve.chaos import results_equal
from repro.simulation import TRACE_ARRAY_FIELDS, replay_monitor

#: experiment columns that are rates or scores and so lie in [0, 1]
UNIT_INTERVAL_COLUMNS = frozenset({
    "F1", "FPR", "FNR", "ACC", "EDR", "simF1", "simFPR", "simFNR", "simACC",
    "coverage", "recovery_rate", "alert_fraction"})

#: run_overhead's measured column: a timing, so left out of the digest
TIMING_COLUMNS = {"run_overhead": ("mean_us",)}


def _is_number(cell) -> bool:
    return isinstance(cell, Number) and not isinstance(cell, bool)


def check_experiment(name: str, result) -> List[str]:
    """Rows exist, every measured number is finite and every rate lies in
    [0, 1].  Columns named ``paper_*`` hold the paper's published values
    (NaN where the paper gives none) and are not outputs."""
    if not result.rows:
        return [f"{name}: no rows"]
    problems = []
    headers = list(result.headers)
    for row in result.rows:
        for header, cell in zip(headers, row):
            if header.startswith("paper") or not _is_number(cell):
                continue
            if not math.isfinite(float(cell)):
                problems.append(f"{name}: {header}={cell} in {row[0]!r}")
            elif header in UNIT_INTERVAL_COLUMNS and not 0.0 <= cell <= 1.0:
                problems.append(f"{name}: {header}={cell} outside [0, 1] in "
                                f"{row[0]!r}")
    return problems


def rows_digest(results: Sequence[Tuple[str, object]]) -> str:
    """SHA-256 over every row of every result, timing columns left out."""
    digest = hashlib.sha256()
    for name, result in results:
        skip = {result.headers.index(col)
                for col in TIMING_COLUMNS.get(name, ())}
        for row in result.rows:
            cells = [repr(float(c)) if _is_number(c) else repr(c)
                     for i, c in enumerate(row) if i not in skip]
            digest.update(f"{name}|{'|'.join(cells)}\n".encode())
    return digest.hexdigest()


def traces_equal(a, b) -> List[str]:
    """Element-wise equality of two simulation traces."""
    problems = []
    for attr in ("platform", "patient_id", "label", "dt", "fault"):
        if getattr(a, attr) != getattr(b, attr):
            problems.append(f"{attr} differs")
    for name in TRACE_ARRAY_FIELDS:
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            problems.append(f"channel {name} differs")
    return problems


def check_store_sample(dataset, reference: Mapping[int, object]) -> List[str]:
    """The reopened dataset holds, at each sampled index, exactly the trace
    simulated in memory."""
    problems = []
    for index, expected in reference.items():
        try:
            stored = dataset[index]
        except (OSError, RuntimeError, ValueError) as exc:
            problems.append(f"trace {index}: unreadable ({exc})")
            continue
        problems.extend(f"trace {index}: {p}"
                        for p in traces_equal(stored, expected))
    return problems


def check_hazard_count(dataset, written_hazards: int) -> List[str]:
    """The reopened dataset has as many hazardous traces as were written."""
    try:
        stored = sum(trace.hazardous for trace in dataset)
    except (OSError, RuntimeError, ValueError) as exc:
        return [f"dataset unreadable: {exc}"]
    if stored != written_hazards:
        return [f"{stored} hazardous traces stored, {written_hazards} written"]
    return []


def check_replay(thresholds: Dict[str, float], traces: Sequence,
                 alerts: Sequence[np.ndarray]) -> List[str]:
    """Batched CAWT alerts equal a scalar replay under *thresholds*."""
    problems = []
    if any(not math.isfinite(v) for v in thresholds.values()):
        problems.append(f"non-finite threshold in {thresholds}")
    monitor = cawt_monitor(thresholds)
    for i, (trace, got) in enumerate(zip(traces, alerts)):
        expected, _ = replay_monitor(monitor, trace)
        if not np.array_equal(expected, got):
            problems.append(f"trace {i}: batched CAWT alerts differ from the "
                            "scalar replay")
    return problems


def check_clean_feed(rejected_rows: int) -> List[str]:
    """A clean feed quarantines nothing."""
    if rejected_rows:
        return [f"clean feed quarantined {rejected_rows} rows"]
    return []


def check_recovered_tick(reference, recovered) -> List[str]:
    """The recovered service's next tick equals the uninterrupted one's."""
    same, why = results_equal([reference], [recovered])
    return [] if same else [f"recovered tick differs: {why}"]


def check_thresholds(learned: Dict[str, float],
                     served: Dict[str, float]) -> List[str]:
    """The registry serves exactly the thresholds that were learned."""
    if learned != served:
        diff = sorted(k for k in set(learned) | set(served)
                      if learned.get(k) != served.get(k))
        return [f"served thresholds differ from the learned ones: {diff}"]
    return []
