"""Feed-forward neural-network layers (numpy, from scratch).

Minimal layer zoo needed for the paper's MLP baseline monitor: dense
(fully-connected) layers, ReLU, and inverted dropout.  Each layer exposes
``forward``/``backward`` plus its parameter and gradient arrays for the
optimizer, and a cache-free ``infer`` for prediction whose per-row
results do not depend on how many rows are passed.  ``forward`` keeps
what ``backward`` needs in ``_cache``; :meth:`Layer.release` drops it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["Layer", "Dense", "ReLU", "Dropout"]


class Layer:
    """Base layer: stateless by default."""

    _cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference forward pass: stores nothing, and row ``r`` of the
        output equals ``forward(x[r:r + 1])[0]`` bit for bit."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the activations the last :meth:`forward` kept for
        :meth:`backward`."""
        self._cache = None

    @property
    def params(self) -> List[np.ndarray]:
        return []

    @property
    def grads(self) -> List[np.ndarray]:
        return []


class Dense(Layer):
    """Affine layer ``y = x W + b`` with He-normal initialisation."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.W = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x
        return x @ self.W + self.b

    def infer(self, x: np.ndarray) -> np.ndarray:
        # (n, 1, d) @ W runs one gemv per row, the BLAS call of a one-row
        # forward; a plain (n, d) @ W gemm rounds rows differently
        return (x[:, None, :] @ self.W)[:, 0, :] + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.gW[...] = self._cache.T @ grad
        self.gb[...] = grad.sum(axis=0)
        return grad @ self.W.T

    @property
    def params(self) -> List[np.ndarray]:
        return [self.W, self.b]

    @property
    def grads(self) -> List[np.ndarray]:
        return [self.gW, self.gb]


class ReLU(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x > 0
        return x * self._cache

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x * (x > 0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._cache


class Dropout(Layer):
    """Inverted dropout: active only during training."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._cache = None
            return x
        keep = 1.0 - self.rate
        self._cache = (self._rng.random(x.shape) < keep) / keep
        return x * self._cache

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            return grad
        return grad * self._cache
