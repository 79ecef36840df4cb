"""Generic forked-pool chunk protocol.

Every fan-out in the code base — campaign simulation, monitor replay,
robustness-sample mining, fold learning, dataset extraction and model
training — goes through :func:`map_slices`: cut a deterministic work list
into contiguous slices, fork a ``multiprocessing`` pool so unpicklable
state (monitor factories, trained models, lazy datasets) is *inherited*
rather than serialised, and collect the slice results strictly in
submission order from a bounded in-flight window.  One protocol gives one
guarantee: worker count changes wall-clock time, never output.  A fan-out
started inside a pool worker runs serially, so nested fan-outs terminate.

It sits below both :mod:`repro.core` and :mod:`repro.simulation` and
imports neither, so either layer can parallelise without cycles.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import warnings
from collections import deque
from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

__all__ = ["shard_indices", "partition_ranges", "ranges_defect",
           "fork_map_chunks", "map_slices", "resolve_workers",
           "resolve_batch_size", "iter_equal_length_groups"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers=`` argument (None: ``REPRO_WORKERS`` env, or 1)."""
    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "1"))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_batch_size(batch_size: Optional[int]) -> int:
    """Normalise a ``batch_size=`` argument (None: ``REPRO_BATCH_SIZE`` env,
    or 1).  Shared by the simulation engine, monitor replay and
    robustness-sample mining so one knob means one thing: how many traces
    advance in lock step.  It changes wall-clock time, never output."""
    if batch_size is None:
        batch_size = int(os.environ.get("REPRO_BATCH_SIZE", "1"))
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def iter_equal_length_groups(items: Any, batch_size: int) -> Iterator[list]:
    """Group a stream into consecutive equal-``len()`` batches.

    The shared grouping rule of every lock-step batched path (monitor
    replay, robustness-sample mining): groups hold at most *batch_size*
    items and never mix lengths — a length change closes the current
    group — so concatenating the groups always reproduces the input
    order and every group stacks into one rectangular batch.  Streaming:
    at most one group is resident at a time.  Living here (below both
    :mod:`repro.core` and :mod:`repro.simulation`) keeps the
    parity-critical boundary rule in exactly one place.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    group: list = []
    for item in items:
        if group and (len(group) >= batch_size
                      or len(item) != len(group[0])):
            yield group
            group = []
        group.append(item)
    if group:
        yield group


def shard_indices(n: int, n_chunks: int) -> List[range]:
    """Cut ``range(n)`` into at most *n_chunks* contiguous index ranges.

    Boundaries depend only on ``(n, n_chunks)``, so sharding is
    deterministic; concatenating the ranges always reproduces ``range(n)``
    and chunk sizes differ by at most one.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n_chunks = min(n_chunks, n) or 1
    base, extra = divmod(n, n_chunks)
    chunks: List[range] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def partition_ranges(n: int, n_chunks: int) -> List[Tuple[int, int]]:
    """:func:`shard_indices` as half-open ``(start, stop)`` tuples.

    The wire format of the chunk protocol: a ``(start, stop)`` pair is
    what crosses a process or host boundary (a distributed campaign
    worker's command line), so it must be plain data, deterministic in
    ``(n, n_chunks)`` alone, and independent of which host executes it —
    retrying a range on another machine re-derives the identical work
    slice.  Empty ranges are dropped, so ``n == 0`` partitions to ``[]``.
    """
    return [(r.start, r.stop) for r in shard_indices(n, n_chunks)
            if len(r)]


def ranges_defect(ranges: Iterable[Tuple[int, int]],
                  n: int) -> Optional[str]:
    """Explain how *ranges* fail to tile ``range(n)``; ``None`` if they do.

    The shared acceptance rule of every range-merging consumer (the
    distributed coordinator and the manifest merge): ranges must be
    well-formed half-open slices of ``[0, n)``, mutually disjoint, and
    covering.  Returns a human-readable defect description — naming the
    first overlap or gap — or ``None`` when the ranges are a perfect
    tiling.  Exact duplicates count as overlap; deduplicate first if
    duplicates are legitimate (idempotent re-delivery).
    """
    spans = sorted((int(a), int(b)) for a, b in ranges)
    for a, b in spans:
        if not 0 <= a < b <= n:
            return f"range [{a}, {b}) is not a well-formed slice of [0, {n})"
    cursor = 0
    for a, b in spans:
        if a < cursor:
            return f"ranges overlap on [{a}, {min(b, cursor)})"
        if a > cursor:
            return f"range [{cursor}, {a}) is missing"
        cursor = b
    if cursor != n:
        return f"range [{cursor}, {n}) is missing"
    return None


#: slices per worker when :func:`map_slices` cuts its input: enough
#: oversharding that a slow slice (a cold profile titration, a long
#: fault) re-balances across the pool.  Results never depend on it.
CHUNKS_PER_WORKER = 4

#: the ``(fn, chunks)`` task of this process when it is a pool worker —
#: handed over by the pool initializer, inherited through fork and never
#: pickled, so unpicklable chunk functions (closures over monitors,
#: datasets, plans) travel for free.  ``None`` outside a pool worker,
#: where a fan-out may fork; inside one every fan-out runs serially.
_WORKER_TASK: Optional[tuple] = None


def _init_worker(fn: Callable[[Any], Any], chunks: List[Any]) -> None:
    global _WORKER_TASK
    _WORKER_TASK = (fn, chunks)


def _fork_worker(chunk_index: int):
    fn, chunks = _WORKER_TASK
    return fn(chunks[chunk_index])


def fork_map_chunks(fn: Callable[[Any], Any], chunks: Sequence[Any],
                    workers: int) -> Iterator[Any]:
    """Yield ``fn(chunk)`` for every chunk, strictly in chunk order.

    With ``workers > 1``, more than one chunk and a platform that can
    fork, the chunks are fanned out over a forked pool; *fn* and the
    chunks reach the workers through the pool initializer (inherited,
    never pickled) while each **result** must be picklable.  Results are
    collected from a bounded window of in-flight tasks — at most
    ``2 * workers`` finished-but-unread chunks sit in the parent — so a
    slow consumer cannot make memory pile up and the yielded stream is
    element-wise identical to the serial loop.  Called inside a pool
    worker, it runs serially: a nested fan-out never forks.
    """
    chunks = list(chunks)
    if workers <= 1 or len(chunks) <= 1 or _WORKER_TASK is not None:
        for chunk in chunks:
            yield fn(chunk)
        return
    if "fork" not in multiprocessing.get_all_start_methods():
        warnings.warn("fork start method unavailable; falling back to "
                      "serial execution", RuntimeWarning, stacklevel=3)
        for chunk in chunks:
            yield fn(chunk)
        return

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(chunks)),
                  initializer=_init_worker, initargs=(fn, chunks)) as pool:
        window = 2 * workers
        pending: deque = deque()
        indices = iter(range(len(chunks)))
        for i in itertools.islice(indices, window):
            pending.append(pool.apply_async(_fork_worker, (i,)))
        while pending:
            result = pending.popleft().get()
            for i in itertools.islice(indices, 1):
                pending.append(pool.apply_async(_fork_worker, (i,)))
            yield result


def map_slices(fn: Callable[[Any], Any], items: Any,
               workers: Optional[int] = None) -> Iterator[Any]:
    """Yield ``fn(part)`` over contiguous slices of *items*, in order.

    The one fan-out policy of the code base — campaign simulation,
    monitor replay, robustness-sample mining, fold learning, dataset
    extraction and model training all come through here.  Serially
    (``workers`` resolves to 1, or the caller is itself a pool worker)
    *fn* gets the whole of *items*, so a generator streams through
    untouched.  Otherwise *items* (materialised if it cannot be sliced)
    is cut into ``workers * CHUNKS_PER_WORKER`` contiguous slices by
    :func:`shard_indices` and mapped with :func:`fork_map_chunks`; lazy
    sequences such as ``TraceDataset`` slice into views, so each worker
    loads only its own part.  Concatenating the yielded results in order
    reproduces the serial result whenever *fn* is a per-item map, which
    is what makes ``workers`` a wall-clock setting only.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or _WORKER_TASK is not None:
        yield fn(items)
        return
    if not hasattr(items, "__getitem__"):
        items = list(items)
    chunks = [items[r.start:r.stop]
              for r in shard_indices(len(items), workers * CHUNKS_PER_WORKER)]
    yield from fork_map_chunks(fn, chunks, workers)
