"""Distributed campaign range worker (``python -m repro.distributed.worker``).

One worker executes one half-open run range ``[start, stop)`` of a shared
:class:`~repro.simulation.executor.CampaignPlan` and leaves behind a
*partial dataset*: shard files named by **global** plan index (so partial
directories merge into one dataset without renaming) plus a
``partial_manifest.json`` recording the range, the plan fingerprint, the
per-trace manifest entries and ``BENCH``-style execution stats (host,
wall time, traces/sec, peak RSS).

The contract that makes the coordinator's retry path safe:

- **Deterministic** — the shards and entries a range produces depend only
  on ``(plan, start, stop, shard_format)``; worker count, batch size,
  host and attempt number never change them (the executor parity
  contract, one level up).  Re-running a range after a crash or
  straggler timeout therefore reproduces the identical partial result.
- **Atomic** — the partial manifest is written via write-then-rename
  *after* every shard, so a killed worker can never leave a directory
  that passes for a completed range; the coordinator treats a missing or
  unreadable partial manifest as "range not done" and re-dispatches.

The chaos battery drives the worker through two environment hooks:
``REPRO_DIST_CRASH_AFTER_SHARDS`` hard-kills the process (``os._exit``)
after that many shards — a mid-range crash — and
``REPRO_DIST_SLEEP_SECONDS`` stalls start-up to simulate a straggler.

Run::

    python -m repro.distributed.worker --plan plan.json \\
        --start 0 --stop 28 --out partials/range_0_28/attempt0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import socket
import sys
import time
from typing import List, Optional

from ..simulation.executor import (CampaignPlan, NpyDirectorySink,
                                   NpzDirectorySink, TraceSink, run_plan)
from ..simulation.store import SCHEMA_VERSION, plan_fingerprint, trace_entry
from ..simulation.trace import SimulationTrace
from .errors import DistributedCampaignError

__all__ = ["PARTIAL_MANIFEST_NAME", "PARTIAL_FORMAT_VERSION",
           "CRASH_AFTER_SHARDS_ENV", "SLEEP_SECONDS_ENV", "CRASH_EXIT_CODE",
           "partial_manifest_path", "write_partial", "main"]

PARTIAL_MANIFEST_NAME = "partial_manifest.json"

#: bump when the partial-manifest layout changes
PARTIAL_FORMAT_VERSION = 1

#: chaos hook: hard-exit (no partial manifest) after this many shards
CRASH_AFTER_SHARDS_ENV = "REPRO_DIST_CRASH_AFTER_SHARDS"

#: chaos hook: stall this many seconds before simulating (straggler)
SLEEP_SECONDS_ENV = "REPRO_DIST_SLEEP_SECONDS"

#: exit code of an injected crash — distinct from argparse/validation (2)
CRASH_EXIT_CODE = 17

#: shard_format -> directory sink (mirrors the store's writer table)
_SHARD_SINKS = {"npz": NpzDirectorySink, "npy": NpyDirectorySink}


def partial_manifest_path(directory: str) -> str:
    return os.path.join(directory, PARTIAL_MANIFEST_NAME)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak /= 1024.0
    return peak / 1024.0


class _RangeSink(TraceSink):
    """Stream a range's traces to globally-numbered shards + entries.

    Wraps the shard directory sink with ``index_offset=start`` and
    records one fold-unassigned manifest entry per trace.  Honors the
    crash-injection hook after each shard so a chaos kill lands exactly
    mid-range, between one shard and the next.
    """

    def __init__(self, directory: str, start: int, shard_format: str):
        self._sink = _SHARD_SINKS[shard_format](directory,
                                                index_offset=start)
        self.entries: List[dict] = []
        crash_after = os.environ.get(CRASH_AFTER_SHARDS_ENV)
        self._crash_after = int(crash_after) if crash_after else None

    def write(self, trace: SimulationTrace) -> None:
        index = self._sink.index_offset + self._sink.n_written
        self._sink.write(trace)
        self.entries.append(trace_entry(trace, self._sink.shard_name(index)))
        if (self._crash_after is not None
                and self._sink.n_written >= self._crash_after):
            # the in-process stand-in for `kill -9`: no cleanup, no
            # manifest — exactly what a dead host leaves behind
            os._exit(CRASH_EXIT_CODE)


def write_partial(plan: CampaignPlan, start: int, stop: int, directory: str,
                  shard_format: str = "npz",
                  workers: Optional[int] = None,
                  batch_size: Optional[int] = None) -> dict:
    """Execute runs ``[start, stop)`` of *plan* into *directory*.

    Writes the range's shards (global plan-index names) and finalises
    ``partial_manifest.json``; returns the partial-manifest document.
    *workers* and *batch_size* are the worker's **local** fan-out knobs
    (a beefy host can run its range over its own pool) — by the executor
    parity contract they never change the produced traces.

    Raises :class:`DistributedCampaignError` on an invalid range or a
    directory that already holds a partial result (retries must use a
    fresh attempt directory — idempotency comes from determinism plus
    the merge picking exactly one partial per range, not from
    overwriting).
    """
    if not 0 <= start < stop <= len(plan.runs):
        raise DistributedCampaignError(
            f"range [{start}, {stop}) is not a well-formed slice of the "
            f"{len(plan.runs)}-run plan")
    if shard_format not in _SHARD_SINKS:
        raise DistributedCampaignError(
            f"unknown shard_format {shard_format!r}; available: "
            f"{sorted(_SHARD_SINKS)}")
    if os.path.exists(partial_manifest_path(directory)):
        raise DistributedCampaignError(
            f"{directory} already holds a partial manifest; a retry must "
            "write into a fresh attempt directory")
    sub_plan = CampaignPlan(platform=plan.platform,
                            runs=plan.runs[start:stop],
                            n_steps=plan.n_steps, target=plan.target,
                            dt=plan.dt)
    try:
        sink = _RangeSink(directory, start, shard_format)
    except FileExistsError as exc:
        raise DistributedCampaignError(
            f"{directory} holds trace shards but no partial manifest — "
            "the remains of a crashed attempt; use a fresh attempt "
            "directory") from exc
    started = time.perf_counter()
    run_plan(sub_plan, workers=workers, batch_size=batch_size, sink=sink)
    wall_s = time.perf_counter() - started
    doc = {"format": PARTIAL_FORMAT_VERSION,
           "schema_version": SCHEMA_VERSION,
           "plan_fingerprint": plan_fingerprint(plan),
           "platform": plan.platform, "n_steps": plan.n_steps,
           "dt": plan.dt, "n_runs": len(plan.runs),
           "shard_format": shard_format, "start": start, "stop": stop,
           "entries": sink.entries,
           "stats": {"host": socket.gethostname(), "pid": os.getpid(),
                     "wall_s": round(wall_s, 4),
                     "traces_per_sec": round((stop - start) / wall_s, 2)
                     if wall_s > 0 else float(stop - start),
                     "peak_rss_mb": round(_peak_rss_mb(), 1)}}
    tmp = partial_manifest_path(directory) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(tmp, partial_manifest_path(directory))
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed.worker",
        description="Execute one shard range of a serialized campaign plan.")
    parser.add_argument("--plan", required=True,
                        help="path to the plan JSON written by save_plan")
    parser.add_argument("--start", type=int, required=True)
    parser.add_argument("--stop", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="fresh directory for shards + partial manifest")
    parser.add_argument("--shard-format", default="npz",
                        choices=sorted(_SHARD_SINKS))
    parser.add_argument("--workers", type=int, default=None,
                        help="local process-pool width for this range")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="local lock-step vectorization width")
    args = parser.parse_args(argv)

    sleep_s = os.environ.get(SLEEP_SECONDS_ENV)
    if sleep_s:
        time.sleep(float(sleep_s))

    from .planio import load_plan
    try:
        plan = load_plan(args.plan)
        doc = write_partial(plan, args.start, args.stop, args.out,
                            shard_format=args.shard_format,
                            workers=args.workers,
                            batch_size=args.batch_size)
    except DistributedCampaignError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 2
    stats = doc["stats"]
    print(f"range [{args.start}, {args.stop}) done on {stats['host']}: "
          f"{args.stop - args.start} traces in {stats['wall_s']}s "
          f"({stats['traces_per_sec']}/s, peak {stats['peak_rss_mb']} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
