"""CART decision-tree classifier (numpy, from scratch).

Stands in for the scikit-learn decision tree the paper uses as an ML
baseline monitor.  Standard CART: greedy binary splits minimising weighted
Gini impurity, with depth / minimum-samples regularisation.  Supports
multi-class targets (binary safe/unsafe and the Section VI multi-class
hazard-type variant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    counts: Optional[np.ndarray] = None  # class counts at leaves

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


class DecisionTreeClassifier:
    """Greedy CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_split:
        Do not split nodes smaller than this.
    min_samples_leaf:
        Both children of a split must keep at least this many samples.
    max_thresholds:
        Cap on candidate thresholds per feature per node (quantile-based
        subsampling keeps training fast on large campaigns).
    """

    def __init__(self, max_depth: int = 8, min_samples_split: int = 10,
                 min_samples_leaf: int = 5, max_thresholds: int = 64):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self._root: Optional[_Node] = None
        self._flat: Optional[tuple] = None
        self.classes_: Optional[np.ndarray] = None
        self.n_nodes_ = 0

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_nodes_ = 0
        self._flat = None
        self._root = self._build(X, y_enc, depth=0)
        return self

    def _class_counts(self, y_enc: np.ndarray) -> np.ndarray:
        return np.bincount(y_enc, minlength=len(self.classes_))

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        self.n_nodes_ += 1
        counts = self._class_counts(y)
        node = _Node(counts=counts)
        if (depth >= self.max_depth or len(y) < self.min_samples_split
                or _gini(counts) == 0.0):
            return node
        split = self._best_split(X, y, counts)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray,
                    counts: np.ndarray):
        best_gain = 1e-12
        best = None
        parent_impurity = _gini(counts)
        n = len(y)
        for feature in range(X.shape[1]):
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_col = column[order]
            sorted_y = y[order]
            # candidate boundaries: positions where the value changes
            change = np.flatnonzero(np.diff(sorted_col) > 0) + 1
            if change.size == 0:
                continue
            if change.size > self.max_thresholds:
                idx = np.linspace(0, change.size - 1, self.max_thresholds)
                change = change[idx.astype(int)]
            # cumulative class counts along the sorted order
            one_hot = np.zeros((n, len(self.classes_)))
            one_hot[np.arange(n), sorted_y] = 1.0
            csum = np.cumsum(one_hot, axis=0)
            left_counts = csum[change - 1]
            right_counts = counts - left_counts
            n_left = change.astype(float)
            n_right = n - n_left
            valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                p_left = left_counts / n_left[:, None]
                p_right = right_counts / n_right[:, None]
            gini_left = 1.0 - np.sum(p_left ** 2, axis=1)
            gini_right = 1.0 - np.sum(p_right ** 2, axis=1)
            weighted = (n_left * gini_left + n_right * gini_right) / n
            weighted[~valid] = np.inf
            best_idx = int(np.argmin(weighted))
            gain = parent_impurity - weighted[best_idx]
            if gain > best_gain:
                boundary = change[best_idx]
                threshold = (sorted_col[boundary - 1] + sorted_col[boundary]) / 2.0
                best_gain = gain
                best = (feature, float(threshold))
        return best

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _leaf(self, x: np.ndarray) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, X) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((len(X), len(self.classes_)))
        for i, x in enumerate(X):
            counts = self._leaf(x).counts
            out[i] = counts / counts.sum()
        return out

    def _flat_tree(self) -> tuple:
        """Child-indexed flat view for vectorized traversal (cached per
        fit): ``(features, thresholds, left, right, predictions)``.

        Built from the same preorder layout as :meth:`node_arrays` — the
        left child of an interior node is the next preorder index, the
        right child follows the left subtree — with the per-node class
        prediction precomputed exactly as :meth:`predict_proba` +
        ``argmax`` would resolve it at a leaf.
        """
        if self._flat is None:
            features, thresholds, counts = self.node_arrays()
            n = len(features)
            left = np.full(n, -1, dtype=np.intp)
            right = np.full(n, -1, dtype=np.intp)
            # reconstruct children from preorder: interior nodes wait on
            # the stack, first arrival is the left child, second (after
            # the left subtree completes) the right
            stack = [0] if features[0] >= 0 else []
            for i in range(1, n):
                parent = stack[-1]
                if left[parent] < 0:
                    left[parent] = i
                else:
                    right[parent] = i
                    stack.pop()
                if features[i] >= 0:
                    stack.append(i)
            proba = counts / counts.sum(axis=1, keepdims=True)
            predictions = self.classes_[np.argmax(proba, axis=1)]
            self._flat = (features, thresholds, left, right, predictions)
        return self._flat

    def predict(self, X) -> np.ndarray:
        """Predicted class per row, via one vectorized level-by-level
        traversal of the flat tree — element-wise identical to the
        per-row :meth:`_leaf` walk (the split comparisons are exact) at
        any batch size, which is what lets the batched monitor replay
        call it on whole context stacks."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        features, thresholds, left, right, predictions = self._flat_tree()
        index = np.zeros(len(X), dtype=np.intp)
        active = np.flatnonzero(features[index] >= 0)
        while active.size:
            node = index[active]
            go_left = X[active, features[node]] <= thresholds[node]
            index[active] = np.where(go_left, left[node], right[node])
            active = active[features[index[active]] >= 0]
        return predictions[index]

    #: the monitors' per-row entry point: :meth:`predict` is already
    #: batch-size invariant, so it serves rows of any count as they are
    predict_rows = predict

    def node_arrays(self):
        """Preorder flattening of the fitted tree into three arrays:
        ``(features, thresholds, counts)`` with one row per node (leaves
        carry feature -1).  Two trees are structurally identical iff all
        three are element-wise equal — the exact-equality form the
        training parity suite compares."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        features, thresholds, counts = [], [], []

        def visit(node: _Node) -> None:
            features.append(node.feature)
            thresholds.append(node.threshold)
            counts.append(node.counts)
            if not node.is_leaf:
                visit(node.left)
                visit(node.right)

        visit(self._root)
        return (np.asarray(features), np.asarray(thresholds),
                np.stack(counts))

    @classmethod
    def from_node_arrays(cls, features, thresholds, counts, classes,
                         **hyperparams) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from :meth:`node_arrays` output.

        The inverse of the preorder flattening: interior nodes (feature
        >= 0) take the next preorder node as their left child and the one
        after their left subtree as the right, exactly like
        :meth:`_flat_tree`.  ``from_node_arrays(*tree.node_arrays(),
        tree.classes_)`` predicts bit-identically to ``tree`` — the
        round-trip the serving registry relies on.
        """
        features = np.asarray(features, dtype=int)
        thresholds = np.asarray(thresholds, dtype=float)
        counts = np.asarray(counts)  # dtype preserved for exact round-trips
        if not (len(features) == len(thresholds) == len(counts)):
            raise ValueError("node array length mismatch")
        if len(features) == 0:
            raise ValueError("cannot rebuild a tree from zero nodes")
        tree = cls(**hyperparams)
        tree.classes_ = np.asarray(classes)
        if counts.shape[1] != len(tree.classes_):
            raise ValueError(
                f"counts have {counts.shape[1]} classes, classes_ has "
                f"{len(tree.classes_)}")
        nodes = [_Node(feature=int(f), threshold=float(th), counts=c)
                 for f, th, c in zip(features, thresholds, counts)]
        stack = [nodes[0]] if features[0] >= 0 else []
        for i in range(1, len(nodes)):
            if not stack:
                raise ValueError("malformed preorder: node without a parent")
            parent = stack[-1]
            if parent.left is None:
                parent.left = nodes[i]
            else:
                parent.right = nodes[i]
                stack.pop()
            if features[i] >= 0:
                stack.append(nodes[i])
        if stack:
            raise ValueError("malformed preorder: unclosed interior nodes")
        tree._root = nodes[0]
        tree.n_nodes_ = len(nodes)
        return tree

    @property
    def depth_(self) -> int:
        def depth(node, d):
            if node is None or node.is_leaf:
                return d
            return max(depth(node.left, d + 1), depth(node.right, d + 1))
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        return depth(self._root, 0)
