"""Vector classifiers built around one cell: linear stems, cell, linear head.

Both cell inputs are independent linear projections of the same feature
vector; the classifier head is a single linear map from the reduced cell
output to class logits. Stems, every edge-op matrix, and the head together
form the inner weight group; the per-edge operation logits form the outer
(architecture) group and live elsewhere.

Weight dicts are keyed ``stem_{i}``, ``{i}->{j}:{op_kind}``, and ``head``;
the same naming scheme is shared by the relaxed network and by discrete
networks instantiated from a genotype, which simply own fewer edge matrices.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import tensor
from .cell import CellSpec, Genotype, cell_forward, discrete_forward, edge_key
from .ops import OP_ORDER, PARAMETERIZED_OPS, init_linear
from .tensor import Value


def _edge_view(weights: Mapping[str, Value]) -> dict[str, dict[str, Value]]:
    view: dict[str, dict[str, Value]] = {}
    for name, value in weights.items():
        if ":" in name:
            edge, _, kind = name.partition(":")
            view.setdefault(edge, {})[kind] = value
    return view


class CellClassifier:
    """Feature rows -> stem projections -> cell -> linear head -> logits."""

    def __init__(self, spec: CellSpec, in_dim: int, n_classes: int):
        if in_dim < 1 or n_classes < 2:
            raise ValueError("need at least one feature and two classes")
        self.spec = spec
        self.in_dim = in_dim
        self.n_classes = n_classes

    def init_weights(self, seed: int) -> dict[str, np.ndarray]:
        """Fresh inner weights for the relaxed network (every edge-op matrix)."""
        return self._init(seed, [(i, j, kind) for i, j in self.spec.edges() for kind in OP_ORDER])

    def init_genotype_weights(self, genotype: Genotype, seed: int) -> dict[str, np.ndarray]:
        """Fresh inner weights for a derived architecture (retained edges only)."""
        return self._init(seed, [(pred, self.spec.input_arity + offset, kind)
                                 for offset, pairs in enumerate(genotype.nodes)
                                 for pred, kind in pairs])

    def _init(self, seed: int, edge_ops) -> dict[str, np.ndarray]:
        """Stems, then a matrix per parameterized ``(i, j, kind)`` in order, then the head."""
        rng = np.random.default_rng(seed)
        hidden = self.spec.hidden
        weights = {f"stem_{i}": init_linear(rng, self.in_dim, hidden)
                   for i in range(self.spec.input_arity)}
        for i, j, kind in edge_ops:
            if kind in PARAMETERIZED_OPS:
                weights[f"{edge_key(i, j)}:{kind}"] = init_linear(rng, hidden, hidden)
        weights["head"] = init_linear(rng, self.spec.output_width(), self.n_classes)
        return weights

    def _stem_nodes(self, weights: Mapping[str, Value], features: Value) -> list[Value]:
        return [
            tensor.matmul(features, weights[f"stem_{i}"])
            for i in range(self.spec.input_arity)
        ]

    def logits_mixed(self, weights: Mapping[str, Value], alpha: Mapping[str, Value],
                     features: np.ndarray) -> Value:
        x = Value(features)
        out, _ = cell_forward(self.spec, alpha, _edge_view(weights), self._stem_nodes(weights, x))
        return tensor.matmul(out, weights["head"])

    def logits_discrete(self, weights: Mapping[str, Value], genotype: Genotype,
                        features: np.ndarray) -> Value:
        x = Value(features)
        out, _ = discrete_forward(genotype, _edge_view(weights), self._stem_nodes(weights, x))
        return tensor.matmul(out, weights["head"])

    def accuracy_discrete(self, weight_arrays: Mapping[str, np.ndarray], genotype: Genotype,
                          features: np.ndarray, labels: np.ndarray) -> float:
        """Share of rows classified right, with no tape participation."""
        values = {k: Value(v) for k, v in weight_arrays.items()}
        pred = np.argmax(self.logits_discrete(values, genotype, features).data, axis=1)
        return float(np.mean(pred == labels.astype(np.int64)))
