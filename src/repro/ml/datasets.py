"""Dataset construction for the ML baseline monitors (Eqs. 7 and 8).

The DT/MLP monitors classify single cycles: input ``(x_t, u_t)``, output
"will any hazard occur at a future time of this simulation?" (Eq. 7).  The
LSTM monitor consumes sliding windows of ``k`` cycles (Eq. 8).  Labels come
from the ground-truth hazard annotation of each trace; the multi-class
variant (Section VI-1) predicts the *type* of the upcoming hazard instead of
a binary flag.

Both builders scale two ways, independently:

- ``workers=``: the trace sequence is cut into deterministic contiguous
  chunks and feature/label extraction fans out over the shared forked-pool
  protocol (:mod:`repro.parallel`); per-chunk blocks are concatenated in
  chunk order, so the stacked ``(X, y)`` is element-wise identical to the
  serial path for every worker count.
- ``mmap_dir=``: instead of stacking in RAM, blocks are streamed into
  ``X.npy`` / ``y.npy`` under the directory (via
  :class:`~repro.ml.memmap.NpyStreamWriter`) and reopened with
  ``mmap_mode="r"`` — training sets larger than memory become page-faulted
  files, and forked training workers share the physical pages instead of
  pickling matrices.  A finished directory is reused as-is on the next
  call (its ``meta.json`` sidecar must answer the same request), so the
  extraction cost is paid once per campaign.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..parallel import map_slices
from ..simulation.features import FEATURE_NAMES, context_matrix, context_row
from .memmap import (MemmapDatasetError, NpyStreamWriter, open_memmap_array,
                     meta_path, read_meta, write_meta)

__all__ = ["FEATURE_NAMES", "trace_features", "point_labels",
           "build_point_dataset", "build_window_dataset", "context_features"]


def trace_features(trace) -> np.ndarray:
    """Per-cycle feature matrix ``(n, len(FEATURE_NAMES))`` of a trace.

    Delegates to the shared
    :func:`~repro.simulation.features.context_matrix`, so training data is
    cycle-for-cycle identical to the context stream replay (and the live
    loop) feeds the monitors.
    """
    return context_matrix(trace)


def context_features(ctx) -> np.ndarray:
    """The same feature layout computed from a runtime ContextVector."""
    return context_row(ctx)


def point_labels(trace, multiclass: bool = False) -> np.ndarray:
    """Eq. 7 labels: positive when a hazard occurs at any future time.

    Binary: 1 where some ground-truth hazardous sample exists at ``t' >= t``.
    Multi-class: 0 = safe, otherwise the type (1 = H1, 2 = H2) of the nearest
    hazardous sample at or after ``t``.
    """
    label = trace.hazard_label
    hazardous = label.hazardous.astype(bool)
    n = len(hazardous)
    if not multiclass:
        # suffix-any via reversed cumulative maximum
        return np.maximum.accumulate(hazardous[::-1])[::-1].astype(int)
    out = np.zeros(n, dtype=int)
    upcoming = 0
    for t in range(n - 1, -1, -1):
        if hazardous[t]:
            upcoming = int(label.hazard_type[t])
        out[t] = upcoming
    return out


# ----------------------------------------------------------------------
# per-chunk extraction kernels
# ----------------------------------------------------------------------
#
# These are the only places features and labels are stacked — the serial
# path hands them the whole trace stream, the parallel path one contiguous
# slice per task (:func:`repro.parallel.map_slices`) and the mmap path
# streams their blocks to disk — so
# worker count and backing store can change wall-clock time and residency,
# never a single matrix element.

def _point_chunk(traces: Iterable,
                 multiclass: bool) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    for trace in traces:
        xs.append(trace_features(trace))
        ys.append(point_labels(trace, multiclass=multiclass))
    return xs, ys


def _window_chunk(traces: Iterable, k: int, multiclass: bool
                  ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    for trace in traces:
        features = trace_features(trace)
        labels = point_labels(trace, multiclass=multiclass)
        if len(features) < k:
            continue  # too short to yield a full window (paper: 30 min)
        windows = np.lib.stride_tricks.sliding_window_view(
            features, (k, features.shape[1])).squeeze(axis=1)
        xs.append(windows.copy())
        ys.append(labels[k - 1:])
    return xs, ys


def _stack_blocks(blocks, empty_message: str) -> Tuple[np.ndarray, np.ndarray]:
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    for x_blocks, y_blocks in blocks:
        xs.extend(x_blocks)
        ys.extend(y_blocks)
    if not xs:
        raise ValueError(empty_message)
    return np.concatenate(xs), np.concatenate(ys)


# ----------------------------------------------------------------------
# memory-mapped materialisation
# ----------------------------------------------------------------------

def _dataset_request(kind: str, k: Optional[int], multiclass: bool) -> dict:
    """The identity a mmap directory must answer (stored in meta.json)."""
    return {"kind": kind, "k": k, "multiclass": bool(multiclass),
            "n_features": len(FEATURE_NAMES)}


def _reopen(directory: str, request: dict,
            n_traces: Optional[int] = None
            ) -> Tuple[np.ndarray, np.ndarray]:
    meta = read_meta(directory)
    for key, expected in request.items():
        if meta.get(key) != expected:
            raise MemmapDatasetError(
                f"dataset at {directory} answers "
                f"{ {k: meta.get(k) for k in request} }, not the requested "
                f"{request}; point mmap_dir elsewhere or remove it")
    # the request describes the *shape* of the extraction, not which traces
    # fed it — the caller owns directory naming per trace selection (see
    # the builder docstrings) — but a trace-count mismatch is always a
    # wrong-directory symptom we can catch for free
    if (n_traces is not None and meta.get("n_traces") is not None
            and meta["n_traces"] != n_traces):
        raise MemmapDatasetError(
            f"dataset at {directory} was built from {meta['n_traces']} "
            f"traces but this request supplies {n_traces}; it answers a "
            "different trace selection — point mmap_dir elsewhere or "
            "remove it")
    X = open_memmap_array(os.path.join(directory, "X.npy"))
    y = open_memmap_array(os.path.join(directory, "y.npy"))
    if len(X) != meta["n_rows"] or len(y) != meta["n_rows"]:
        raise MemmapDatasetError(
            f"dataset at {directory} holds {len(X)} X / {len(y)} y rows "
            f"but its sidecar records {meta['n_rows']} (arrays replaced "
            "or truncated)")
    return X, y


def _materialize(traces, directory: str, workers: Optional[int], extract,
                 request: dict, row_shape: Tuple[int, ...],
                 empty_message: str) -> Tuple[np.ndarray, np.ndarray]:
    """Stream blocks into ``<directory>/{X,y}.npy`` and reopen mapped.

    The sidecar is written only after both arrays are complete, so an
    interrupted build leaves a directory :func:`read_meta` rejects; a
    *finished* directory short-circuits the build entirely.
    """
    n_traces = len(traces) if hasattr(traces, "__len__") else None
    if os.path.exists(meta_path(directory)):
        return _reopen(directory, request, n_traces)
    os.makedirs(directory, exist_ok=True)
    leftovers = [name for name in ("X.npy", "y.npy")
                 if os.path.exists(os.path.join(directory, name))]
    if leftovers:
        raise MemmapDatasetError(
            f"{directory} holds {'/'.join(leftovers)} but no meta sidecar — "
            "the remains of an interrupted build; remove the directory and "
            "rerun")
    with NpyStreamWriter(os.path.join(directory, "X.npy"),
                         row_shape) as x_writer, \
            NpyStreamWriter(os.path.join(directory, "y.npy"), (),
                            dtype=np.int64) as y_writer:
        for x_blocks, y_blocks in map_slices(extract, traces, workers):
            for block in x_blocks:
                x_writer.append(block)
            for block in y_blocks:
                y_writer.append(block)
        if x_writer.n_rows == 0:
            raise ValueError(empty_message)
        n_rows = x_writer.n_rows
    write_meta(directory, dict(request, n_rows=n_rows, n_traces=n_traces))
    return _reopen(directory, request, n_traces)


# ----------------------------------------------------------------------
# public builders
# ----------------------------------------------------------------------

def build_point_dataset(traces: Iterable, multiclass: bool = False,
                        workers: Optional[int] = None,
                        mmap_dir: Optional[str] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked (X, y) over all cycles of all traces (Eq. 7).

    With *mmap_dir* the matrices live in ``.npy`` files under that
    directory and come back memory-mapped read-only; otherwise they are
    in-memory arrays.  Either way the values are element-wise identical
    for every ``workers`` count.

    A finished *mmap_dir* is reused without re-extraction, so the caller
    must dedicate one directory per trace selection (as
    ``run_training_jobs`` does via ``TrainingJob.dataset_slug()``); a
    directory answering a different request shape or trace count is
    rejected, but two same-sized selections are indistinguishable.
    """
    def extract(chunk):
        return _point_chunk(chunk, multiclass)

    if mmap_dir is not None:
        return _materialize(
            traces, mmap_dir, workers, extract,
            _dataset_request("point", None, multiclass),
            (len(FEATURE_NAMES),), "no traces supplied")
    return _stack_blocks(map_slices(extract, traces, workers),
                         "no traces supplied")


def build_window_dataset(traces: Iterable, k: int = 6,
                         multiclass: bool = False,
                         workers: Optional[int] = None,
                         mmap_dir: Optional[str] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window (X, y) with ``X[i]`` of shape (k, D) (Eq. 8).

    The window at position ``t`` covers cycles ``[t-k+1, t]`` and carries the
    label of cycle ``t``; the first ``k-1`` cycles of each trace yield no
    sample (the paper's LSTM needs 30 minutes of history) and traces shorter
    than ``k`` yield none at all.  See :func:`build_point_dataset` for the
    ``workers`` / ``mmap_dir`` contract.
    """
    if k < 1:
        raise ValueError(f"window k must be >= 1, got {k}")

    def extract(chunk):
        return _window_chunk(chunk, k, multiclass)

    empty = "no traces long enough for the window size"
    if mmap_dir is not None:
        return _materialize(
            traces, mmap_dir, workers, extract,
            _dataset_request("window", k, multiclass),
            (k, len(FEATURE_NAMES)), empty)
    return _stack_blocks(map_slices(extract, traces, workers), empty)
