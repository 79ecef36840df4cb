"""Trainable classifiers assembled from the layer zoo.

- :class:`MLPClassifier`: the paper's MLP monitor architecture — two hidden
  layers (256, 128) with ReLU, dropout regularisation, a softmax head,
  trained with Adam and early stopping on a held-out validation split
  (Section V-C4).
- :class:`LSTMClassifier`: the paper's stacked LSTM monitor — LSTM(128) ->
  LSTM(64) over k-step windows, softmax head over the last hidden state.
- :class:`Standardizer`: per-feature z-scoring shared by both.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .layers import Dense, Dropout, Layer, ReLU
from .losses import softmax, softmax_cross_entropy
from .lstm import LSTMLayer
from .optim import Adam

__all__ = ["Standardizer", "MLPClassifier", "LSTMClassifier", "INFER_BLOCK"]

#: rows per :meth:`_BaseClassifier.row_logits` pass — bounds the
#: inference working set (an LSTM keeps a ``(block, T, hidden)`` sequence
#: per layer); rows are evaluated independently, so it changes no result
INFER_BLOCK = 128


class Standardizer:
    """Per-feature z-scoring; tolerant of constant features."""

    def __init__(self):
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        flat = X.reshape(-1, X.shape[-1])
        self.mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        self.std = np.where(std < 1e-9, 1.0, std)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("standardizer is not fitted")
        return (X - self.mean) / self.std


class _BaseClassifier:
    """Shared minibatch training loop with early stopping."""

    def __init__(self, n_classes: int, lr: float, batch_size: int,
                 max_epochs: int, patience: int, seed: Optional[int]):
        if n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {n_classes}")
        if batch_size < 1 or max_epochs < 1 or patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        self.n_classes = n_classes
        self.lr = lr
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.rng = np.random.default_rng(seed)
        self.scaler = Standardizer()
        self.layers: List[Layer] = []
        self.history: List[Tuple[float, float]] = []  # (train, val) loss

    # subclass hooks -----------------------------------------------------
    def _build(self, in_shape: Tuple[int, ...]) -> None:
        raise NotImplementedError

    def _forward(self, X: np.ndarray, training: bool) -> np.ndarray:
        out = X
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def _backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    # training -----------------------------------------------------------
    def fit(self, X, y, val_fraction: float = 0.1) -> "_BaseClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) < 10:
            raise ValueError("need at least 10 samples to train")
        if y.min() < 0 or y.max() >= self.n_classes:
            raise ValueError("labels out of range for n_classes")
        self.scaler.fit(X)
        X = self.scaler.transform(X)
        self._build(X.shape[1:])

        n_val = max(int(len(X) * val_fraction), 1)
        order = self.rng.permutation(len(X))
        val_idx, train_idx = order[:n_val], order[n_val:]
        X_train, y_train = X[train_idx], y[train_idx]
        X_val, y_val = X[val_idx], y[val_idx]

        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.params)
        optimizer = Adam(params, lr=self.lr)

        best_val = np.inf
        best_weights = [p.copy() for p in params]
        stall = 0
        self.history = []
        for _ in range(self.max_epochs):
            perm = self.rng.permutation(len(X_train))
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(X_train), self.batch_size):
                idx = perm[start:start + self.batch_size]
                logits = self._forward(X_train[idx], training=True)
                loss, grad = softmax_cross_entropy(logits, y_train[idx])
                self._backward(grad)
                grads: List[np.ndarray] = []
                for layer in self.layers:
                    grads.extend(layer.grads)
                optimizer.step(grads)
                epoch_loss += loss
                n_batches += 1
            val_logits = self._forward(X_val, training=False)
            val_loss, _ = softmax_cross_entropy(val_logits, y_val)
            self.history.append((epoch_loss / max(n_batches, 1), val_loss))
            if val_loss < best_val - 1e-5:
                best_val = val_loss
                best_weights = [p.copy() for p in params]
                stall = 0
            else:
                stall += 1
                if stall >= self.patience:
                    break
        for p, best in zip(params, best_weights):
            p[...] = best
        self._release()
        return self

    def _release(self) -> None:
        """Drop the activations an inference-time :meth:`_forward` (the
        last validation pass of :meth:`fit`, :meth:`predict_proba`) left
        on the layers for a backward that never comes — they would stay
        pinned for as long as the model lives."""
        for layer in self.layers:
            layer.release()

    # persistence --------------------------------------------------------
    def export_params(self) -> List[np.ndarray]:
        """Flat list of fitted arrays: scaler mean, scaler std, then every
        layer parameter in forward order — the layout
        :func:`repro.ml.training.monitor_state` compares and the serving
        registry persists."""
        if not self.layers:
            raise RuntimeError("model is not fitted")
        params = [self.scaler.mean, self.scaler.std]
        for layer in self.layers:
            params.extend(layer.params)
        return params

    def load_params(self, in_shape: Tuple[int, ...],
                    params: Sequence[np.ndarray]) -> "_BaseClassifier":
        """Rebuild a fitted model from :meth:`export_params` output.

        Builds the layer stack for *in_shape* (the post-scaling feature
        shape ``X.shape[1:]`` seen by :meth:`fit`), then copies every
        array into place with strict count/shape checks — the inverse of
        :meth:`export_params`, so a round-tripped model predicts
        bit-identically to the original.
        """
        params = [np.asarray(p, dtype=float) for p in params]
        if len(params) < 2:
            raise ValueError("need at least scaler mean and std")
        self.scaler.mean = params[0]
        self.scaler.std = params[1]
        self._build(tuple(in_shape))
        targets: List[np.ndarray] = []
        for layer in self.layers:
            targets.extend(layer.params)
        saved = params[2:]
        if len(saved) != len(targets):
            raise ValueError(
                f"parameter count mismatch: saved {len(saved)}, model "
                f"expects {len(targets)}")
        for target, value in zip(targets, saved):
            if target.shape != value.shape:
                raise ValueError(
                    f"parameter shape mismatch: saved {value.shape}, model "
                    f"expects {target.shape}")
            target[...] = value
        return self

    # inference ----------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        if not self.layers:
            raise RuntimeError("model is not fitted")
        X = self.scaler.transform(np.asarray(X, dtype=float))
        logits = self._forward(X, training=False)
        self._release()
        return softmax(logits)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def row_logits(self, X) -> np.ndarray:
        """Logits of every row, bit-identical to running each row through
        the model on its own.

        Whole-matrix BLAS matmuls round differently per batch shape, so a
        monitor replayed in batches cannot just stack its cycles into one
        ``predict`` call.  This runs every layer's :meth:`~.layers.Layer.
        infer` instead: one stacked pass per :data:`INFER_BLOCK` rows, one
        gemv per row, no training caches.
        """
        if not self.layers:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        out = np.empty((len(X), self.n_classes))
        for start in range(0, len(X), INFER_BLOCK):
            block = self.scaler.transform(X[start:start + INFER_BLOCK])
            for layer in self.layers:
                block = layer.infer(block)
            out[start:start + INFER_BLOCK] = block
        return out

    def predict_rows(self, X) -> np.ndarray:
        """Per-row class predictions, bit-identical to calling
        :meth:`predict` on each row separately: :meth:`row_logits`, then
        the class picked as :meth:`predict` picks it — softmax, then
        argmax (the argmax of the raw logits differs when two logits are
        closer than ``exp`` resolves)."""
        return np.argmax(softmax(self.row_logits(X)), axis=1)


class MLPClassifier(_BaseClassifier):
    """The paper's MLP monitor: Dense(256)-ReLU-Dense(128)-ReLU-softmax."""

    def __init__(self, hidden: Sequence[int] = (256, 128), n_classes: int = 2,
                 lr: float = 1e-3, dropout: float = 0.2, batch_size: int = 256,
                 max_epochs: int = 40, patience: int = 5,
                 seed: Optional[int] = None):
        super().__init__(n_classes, lr, batch_size, max_epochs, patience, seed)
        if not hidden:
            raise ValueError("need at least one hidden layer")
        self.hidden = tuple(hidden)
        self.dropout = dropout

    def _build(self, in_shape: Tuple[int, ...]) -> None:
        (in_dim,) = in_shape
        self.layers = []
        prev = in_dim
        for width in self.hidden:
            self.layers.append(Dense(prev, width, rng=self.rng))
            self.layers.append(ReLU())
            if self.dropout > 0:
                self.layers.append(Dropout(self.dropout, rng=self.rng))
            prev = width
        self.layers.append(Dense(prev, self.n_classes, rng=self.rng))


class _LastStep(Layer):
    """Select the final time step of an (n, T, H) sequence."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x.shape
        return x[:, -1, :]

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x[:, -1, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        full = np.zeros(self._cache)
        full[:, -1, :] = grad
        return full


class LSTMClassifier(_BaseClassifier):
    """The paper's LSTM monitor: stacked LSTM(128, 64) over k-step windows."""

    def __init__(self, hidden: Sequence[int] = (128, 64), n_classes: int = 2,
                 lr: float = 1e-3, batch_size: int = 256, max_epochs: int = 30,
                 patience: int = 4, seed: Optional[int] = None):
        super().__init__(n_classes, lr, batch_size, max_epochs, patience, seed)
        if not hidden:
            raise ValueError("need at least one LSTM layer")
        self.hidden = tuple(hidden)

    def _build(self, in_shape: Tuple[int, ...]) -> None:
        (_, in_dim) = in_shape  # (T, D)
        self.layers = []
        prev = in_dim
        for width in self.hidden:
            self.layers.append(LSTMLayer(prev, width, rng=self.rng))
            prev = width
        self.layers.append(_LastStep())
        self.layers.append(Dense(prev, self.n_classes, rng=self.rng))
