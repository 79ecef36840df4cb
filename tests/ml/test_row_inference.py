"""Row inference of the neural classifiers: ``row_logits``/``predict_rows``.

The batched monitors classify whole context stacks through these, and
their verdicts must equal the one-row-at-a-time path exactly.  The oracle
here is the training forward pass (``_forward``) run on each row on its
own — what a one-row ``predict`` computes — compared with
``np.array_equal``, never a tolerance.
"""

import numpy as np
import pytest

from repro.controllers import ControlAction
from repro.core import ContextVector
from repro.ml import FEATURE_NAMES, LSTMMonitor, MLPMonitor
from repro.ml.nn import LSTMClassifier, MLPClassifier
from repro.ml.nn.model import INFER_BLOCK
from repro.simulation import ContextBatch

ROW_COUNTS = (1, INFER_BLOCK - 1, INFER_BLOCK, INFER_BLOCK + 1,
              3 * INFER_BLOCK + 5)
D = len(FEATURE_NAMES)


def random_model(cls, in_shape, n_classes, seed):
    """A model at the paper's layer sizes with random weights, biases and
    scaler (inference exactness must not depend on trained weights)."""
    model = cls(n_classes=n_classes, seed=seed)
    rng = np.random.default_rng(seed)
    model.scaler.mean = rng.normal(size=in_shape[-1])
    model.scaler.std = rng.uniform(0.5, 2.0, size=in_shape[-1])
    model._build(in_shape)
    for layer in model.layers:
        for param in layer.params:
            param[...] = rng.normal(0.0, 0.3, size=param.shape)
    return model


def per_row_logits(model, X):
    """The oracle: every row standardised and forwarded on its own."""
    return np.concatenate([
        model._forward(model.scaler.transform(X[i:i + 1]), training=False)
        for i in range(len(X))])


MODELS = {
    "mlp": (MLPClassifier, (D,)),
    "lstm": (LSTMClassifier, (6, D)),
}


@pytest.mark.parametrize("n_classes", (2, 3))
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_row_logits_equal_per_row_forward(kind, n_classes):
    cls, in_shape = MODELS[kind]
    model = random_model(cls, in_shape, n_classes, seed=n_classes)
    rng = np.random.default_rng(7)
    X = rng.normal(0.0, 3.0, size=(max(ROW_COUNTS),) + in_shape)
    reference = per_row_logits(model, X)
    classes = [model.predict(x[None])[0] for x in X]
    for n_rows in ROW_COUNTS:
        logits = model.row_logits(X[:n_rows])
        assert logits.shape == (n_rows, n_classes)
        assert np.array_equal(logits, reference[:n_rows]), (kind, n_rows)
        assert np.array_equal(model.predict_rows(X[:n_rows]),
                              classes[:n_rows]), (kind, n_rows)


def test_whole_matrix_forward_is_not_the_oracle():
    # the reason row_logits exists: a plain (n, d) @ W gemm rounds rows
    # differently from the one-row gemv, so it cannot serve as the batch
    # path — if this ever passes, the oracle test above proves nothing
    model = random_model(*MODELS["mlp"], n_classes=2, seed=0)
    X = np.random.default_rng(1).normal(0.0, 3.0, size=(INFER_BLOCK, D))
    stacked = model._forward(model.scaler.transform(X), training=False)
    assert not np.array_equal(stacked, per_row_logits(model, X))


def test_empty_input():
    model = random_model(*MODELS["lstm"], n_classes=2, seed=0)
    assert model.predict_rows(np.empty((0, 6, D))).shape == (0,)


def test_unfitted_model_raises():
    with pytest.raises(RuntimeError):
        MLPClassifier().predict_rows(np.zeros((1, D)))


def tied_head(cls, in_shape):
    """A model whose logits are exactly ``[0, 1e-20]`` for every input:
    zero weights everywhere, the output bias carrying the tie."""
    model = cls(hidden=(1,), n_classes=2)
    model._build(in_shape)
    params = [np.zeros(in_shape[-1]), np.ones(in_shape[-1])]
    for layer in model.layers:
        params.extend(np.zeros_like(p) for p in layer.params)
    params[-1] = np.array([0.0, 1e-20])
    return model.load_params(in_shape, params)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_class_is_argmax_of_softmax_not_of_logits(kind):
    cls, in_shape = MODELS[kind]
    model = tied_head(cls, in_shape)
    X = np.zeros((3,) + in_shape)
    assert np.array_equal(model.row_logits(X), [[0.0, 1e-20]] * 3)
    # softmax rounds both classes to 0.5, so predict picks class 0; the
    # raw logits would pick class 1
    assert np.array_equal(model.predict(X), [0, 0, 0])
    assert np.array_equal(model.predict_rows(X), [0, 0, 0])


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_tied_head_monitors_stay_silent(kind):
    cls, in_shape = MODELS[kind]
    model = tied_head(cls, in_shape)
    monitor = (MLPMonitor(model) if kind == "mlp"
               else LSTMMonitor(model, k=in_shape[0]))
    n_steps, n_cols = 8, 3
    ctx = ContextVector(t=0.0, bg=60.0, bg_rate=-1.0, iob=2.0, iob_rate=0.0,
                        rate=1.0, bolus=0.0, action=ControlAction.KEEP)
    assert not any(monitor.observe(ctx).alert for _ in range(n_steps))
    tick = ContextBatch.from_tick(
        0.0, *(np.full(n_cols, v) for v in (60.0, -1.0, 2.0, 0.0, 1.0, 0.0)),
        np.full(n_cols, int(ControlAction.KEEP)), 5.0)
    batch = tick
    for _ in range(n_steps - 1):
        batch = batch.append(tick)
    alerts, hazards = monitor.observe_batch(batch)
    assert alerts.shape == (n_steps, n_cols) and not alerts.any()
    assert not hazards.any()


def caches(model):
    return [layer._cache for layer in model.layers]


class TestCacheRelease:
    def test_fitted_models_hold_no_forward_cache(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 6, 3))
        y = (X[:, -1, 0] > 0).astype(int)
        lstm = LSTMClassifier(hidden=(4, 3), max_epochs=2, seed=0).fit(X, y)
        mlp = MLPClassifier(hidden=(8, 4), max_epochs=2,
                            seed=0).fit(X[:, -1, :], y)
        for model in (lstm, mlp):
            assert all(cache is None for cache in caches(model))

    def test_inference_leaves_no_cache(self):
        model = random_model(*MODELS["lstm"], n_classes=2, seed=0)
        X = np.zeros((INFER_BLOCK + 1, 6, D))
        model.predict_rows(X)
        assert all(cache is None for cache in caches(model))
        model.predict(X)
        assert all(cache is None for cache in caches(model))

    def test_forward_still_feeds_backward(self):
        # releasing after fit leaves forward's contract alone: a forward
        # keeps its activations until the backward that consumes them
        model = random_model(*MODELS["lstm"], n_classes=2, seed=0)
        x = np.random.default_rng(0).normal(size=(4, 6, D))
        out = model._forward(x, training=True)
        assert all(cache is not None for cache in caches(model))
        model._backward(np.ones_like(out))
