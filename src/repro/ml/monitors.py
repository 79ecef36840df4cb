"""ML baseline monitors: DT, MLP and LSTM wrapped as safety monitors.

Each monitor embeds a trained classifier and implements the same
:class:`~repro.core.monitor.SafetyMonitor` interface as the context-aware
monitor, so the evaluation harness treats them interchangeably.

Binary classifiers can only flag a command as unsafe; the hazard *type*
needed by the mitigation algorithm is then inferred from the glucose context
(below target -> H1, above -> H2).  The multi-class variants predict the
type directly (the Section VI-1 comparison).

Batched replay: every monitor overrides
:meth:`~repro.core.monitor.SafetyMonitor.observe_batch` to classify whole
context batches at once through the model's ``predict_rows``, whose
per-row results do not depend on how many rows it is given — the DT's
vectorized flat-tree traversal (exact comparisons), the MLP's and LSTM's
stacked one-gemv-per-row inference pass (see
:meth:`repro.ml.nn.model._BaseClassifier.predict_rows`).  The LSTM
gathers the k-cycle window ending at every cycle ``t >= k - 1`` of every
column, block by block, straight from the batch's feature stack.  The
scalar :meth:`observe` of each monitor is the one-row view of the same
``predict_rows`` call.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Tuple

import numpy as np

from ..core.context import ContextVector
from ..core.monitor import MonitorVerdict, NO_ALERT, SafetyMonitor
from ..hazards import HazardType
from .datasets import build_point_dataset, build_window_dataset, context_features
from .nn import LSTMClassifier, MLPClassifier
from .nn.model import INFER_BLOCK
from .tree import DecisionTreeClassifier

__all__ = ["DTMonitor", "MLPMonitor", "LSTMMonitor",
           "train_dt_monitor", "train_mlp_monitor", "train_lstm_monitor"]


def _verdict(prediction: int, bg: float, name: str, bg_target: float,
             multiclass: bool) -> MonitorVerdict:
    if prediction == 0:
        return NO_ALERT
    if multiclass:
        hazard = HazardType(prediction)
    else:
        hazard = HazardType.H1 if bg < bg_target else HazardType.H2
    return MonitorVerdict(alert=True, hazard=hazard,
                          triggered=(name.lower(),))


def _verdict_matrices(prediction: np.ndarray, bg: np.ndarray,
                      bg_target: float,
                      multiclass: bool) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_verdict` over ``(n_steps, B)`` class predictions:
    ``(alerts, hazards)`` with the hazard inference as array arithmetic."""
    alerts = prediction != 0
    if multiclass:
        return alerts, np.where(alerts, prediction, 0)
    h1, h2 = int(HazardType.H1), int(HazardType.H2)
    return alerts, np.where(alerts, np.where(bg < bg_target, h1, h2), 0)


class _PointMonitor(SafetyMonitor):
    """Monitor over single-cycle features (DT and MLP)."""

    #: single-cycle classifiers carry no cross-cycle state, so the live
    #: lock-step engine may evaluate them per tick via observe_batch
    stateless = True

    def __init__(self, model, name: str, multiclass: bool = False,
                 bg_target: float = 120.0):
        self.model = model
        self.name = name
        self.multiclass = multiclass
        self.bg_target = bg_target

    def observe(self, ctx: ContextVector) -> MonitorVerdict:
        features = context_features(ctx).reshape(1, -1)
        prediction = int(self.model.predict_rows(features)[0])
        return _verdict(prediction, ctx.bg, self.name, self.bg_target,
                        self.multiclass)

    def observe_batch(self, batch) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`observe` over a context batch: every column's
        feature matrix stacked into one row-major ``predict_rows`` call
        (column b occupies row block b; rows are independent, so wide
        live batches like the online service's ``(1, n_users)`` tick cost
        one call, not ``n_users`` Python iterations), hazard inference as
        array arithmetic."""
        n_steps, n_cols = batch.shape
        stacked = np.ascontiguousarray(
            np.moveaxis(batch.features, 2, 0)).reshape(n_steps * n_cols, -1)
        prediction = self.model.predict_rows(stacked).reshape(n_cols, n_steps).T
        return _verdict_matrices(prediction, batch.bg, self.bg_target,
                                 self.multiclass)


class DTMonitor(_PointMonitor):
    def __init__(self, model: DecisionTreeClassifier, multiclass: bool = False,
                 bg_target: float = 120.0):
        super().__init__(model, "DT", multiclass, bg_target)


class MLPMonitor(_PointMonitor):
    def __init__(self, model: MLPClassifier, multiclass: bool = False,
                 bg_target: float = 120.0):
        super().__init__(model, "MLP", multiclass, bg_target)


class LSTMMonitor(SafetyMonitor):
    """Monitor over sliding windows of the last ``k`` cycles."""

    def __init__(self, model: LSTMClassifier, k: int = 6,
                 multiclass: bool = False, bg_target: float = 120.0):
        if k < 1:
            raise ValueError(f"window k must be >= 1, got {k}")
        self.model = model
        self.k = k
        self.multiclass = multiclass
        self.bg_target = bg_target
        self.name = "LSTM"
        self._buffer: deque = deque(maxlen=k)

    def reset(self) -> None:
        self._buffer.clear()

    def observe(self, ctx: ContextVector) -> MonitorVerdict:
        self._buffer.append(context_features(ctx))
        if len(self._buffer) < self.k:
            return NO_ALERT  # not enough history yet
        window = np.stack(self._buffer)[None, :, :]
        prediction = int(self.model.predict_rows(window)[0])
        return _verdict(prediction, ctx.bg, self.name, self.bg_target,
                        self.multiclass)

    def observe_batch(self, batch) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`observe` over a context batch.

        The window ending at cycle ``t >= k - 1`` of column ``b`` is
        ``features[t - k + 1:t + 1, :, b]`` — exactly the rows the
        scalar buffer holds there — so every such window is gathered
        from one strided view of the batch, :data:`~repro.ml.nn.model.
        INFER_BLOCK` windows at a time (never all at once), and
        classified through ``predict_rows``.  The first ``k - 1`` cycles
        of every column stay silent, as in :meth:`observe`.
        """
        n_steps, n_cols = batch.shape
        prediction = np.zeros((n_steps, n_cols), dtype=np.intp)
        n_windows = n_steps - self.k + 1
        if n_windows > 0:
            # (n_cols, n_windows, k, D) view: window w covers w .. w + k - 1
            windows = np.lib.stride_tricks.sliding_window_view(
                np.moveaxis(batch.features, 2, 0), self.k,
                axis=1).swapaxes(2, 3)
            flat = np.empty(n_cols * n_windows, dtype=np.intp)
            for start in range(0, len(flat), INFER_BLOCK):
                column, window = np.divmod(
                    np.arange(start, min(start + INFER_BLOCK, len(flat))),
                    n_windows)
                flat[start:start + INFER_BLOCK] = self.model.predict_rows(
                    windows[column, window])
            prediction[self.k - 1:] = flat.reshape(n_cols, n_windows).T
        return _verdict_matrices(prediction, batch.bg, self.bg_target,
                                 self.multiclass)


# ----------------------------------------------------------------------
# training helpers
# ----------------------------------------------------------------------

def train_dt_monitor(traces: Iterable, multiclass: bool = False,
                     bg_target: float = 120.0,
                     workers: Optional[int] = None,
                     mmap_dir: Optional[str] = None,
                     **tree_kwargs) -> DTMonitor:
    """Fit a decision tree on the campaign traces (Eq. 7 dataset).

    ``workers`` fans dataset extraction out over the forked pool and
    ``mmap_dir`` materialises the matrices memory-mapped on disk (see
    :func:`~repro.ml.datasets.build_point_dataset`); both leave the fitted
    model element-wise unchanged.  To train *many* monitors in parallel,
    use :func:`repro.ml.training.run_training_jobs` instead.
    """
    X, y = build_point_dataset(traces, multiclass=multiclass,
                               workers=workers, mmap_dir=mmap_dir)
    model = DecisionTreeClassifier(**tree_kwargs).fit(X, y)
    return DTMonitor(model, multiclass=multiclass, bg_target=bg_target)


def train_mlp_monitor(traces: Iterable, multiclass: bool = False,
                      bg_target: float = 120.0, seed: Optional[int] = 0,
                      workers: Optional[int] = None,
                      mmap_dir: Optional[str] = None,
                      **mlp_kwargs) -> MLPMonitor:
    """Fit the paper's 256-128 MLP (``workers``/``mmap_dir`` as for
    :func:`train_dt_monitor`)."""
    X, y = build_point_dataset(traces, multiclass=multiclass,
                               workers=workers, mmap_dir=mmap_dir)
    n_classes = 3 if multiclass else 2
    model = MLPClassifier(n_classes=n_classes, seed=seed, **mlp_kwargs).fit(X, y)
    return MLPMonitor(model, multiclass=multiclass, bg_target=bg_target)


def train_lstm_monitor(traces: Iterable, k: int = 6, multiclass: bool = False,
                       bg_target: float = 120.0, seed: Optional[int] = 0,
                       workers: Optional[int] = None,
                       mmap_dir: Optional[str] = None,
                       **lstm_kwargs) -> LSTMMonitor:
    """Fit the paper's stacked LSTM(128, 64) on k-cycle windows
    (``workers``/``mmap_dir`` as for :func:`train_dt_monitor`)."""
    X, y = build_window_dataset(traces, k=k, multiclass=multiclass,
                                workers=workers, mmap_dir=mmap_dir)
    n_classes = 3 if multiclass else 2
    model = LSTMClassifier(n_classes=n_classes, seed=seed, **lstm_kwargs).fit(X, y)
    return LSTMMonitor(model, k=k, multiclass=multiclass, bg_target=bg_target)
