"""Vector classifiers built around one cell: linear stems, cell, linear head.

Both cell inputs are independent linear projections of the same feature
vector; the classifier head is a single linear map from the reduced cell
output to class logits. Stems, every edge-op matrix, and the head together
form the inner weight group; the operation logits, one block per intermediate
node under the same ``cell.block_name(j)``, form the outer (architecture) group
and live elsewhere.

Weight dicts are keyed ``stem_{i}``, then the cell's matrices, then ``head``.
The relaxed network holds one block per intermediate node j, keyed
``cell.block_name(j)``; a discrete network instantiated from a genotype holds
one matrix per retained parameterized edge, keyed ``cell.edge_key(i, j)``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import tensor
from .cell import CellSpec, Genotype, block_name, cell_forward, discrete_forward, edge_key
from .ops import OP_ORDER, PARAMETERIZED_OPS, init_linear
from .tensor import Value


class CellClassifier:
    """Feature rows -> stem projections -> cell -> linear head -> logits."""

    def __init__(self, spec: CellSpec, in_dim: int, n_classes: int):
        if in_dim < 1 or n_classes < 2:
            raise ValueError("need at least one feature and two classes")
        self.spec = spec
        self.in_dim = in_dim
        self.n_classes = n_classes

    def init_weights(self, seed: int) -> dict[str, np.ndarray]:
        """Fresh inner weights for the relaxed network: one block per node."""
        stems, mats, head = self._draw(seed, [(i, j, kind) for i, j in self.spec.edges()
                                              for kind in OP_ORDER])
        rows = {(i, j): np.concatenate([mats[i, j, kind] for kind in PARAMETERIZED_OPS], axis=1)
                for i, j in self.spec.edges()}
        blocks = {block_name(j): np.stack([rows[i, j] for i in range(j)])
                  for j in self.spec.intermediate_ids}
        return {**stems, **blocks, "head": head}

    def init_genotype_weights(self, genotype: Genotype, seed: int) -> dict[str, np.ndarray]:
        """Fresh inner weights for a derived architecture (retained edges only)."""
        stems, mats, head = self._draw(seed, [(pred, self.spec.input_arity + offset, kind)
                                              for offset, pairs in enumerate(genotype.nodes)
                                              for pred, kind in pairs])
        return {**stems, **{edge_key(i, j): m for (i, j, _), m in mats.items()}, "head": head}

    def _draw(self, seed: int, edge_ops):
        """Stems, then a matrix per parameterized ``(i, j, kind)`` in order, then the head."""
        rng = np.random.default_rng(seed)
        hidden = self.spec.hidden
        stems = {f"stem_{i}": init_linear(rng, self.in_dim, hidden)
                 for i in range(self.spec.input_arity)}
        mats = {(i, j, kind): init_linear(rng, hidden, hidden)
                for i, j, kind in edge_ops if kind in PARAMETERIZED_OPS}
        return stems, mats, init_linear(rng, self.spec.output_width(), self.n_classes)

    def _stem_nodes(self, weights: Mapping[str, Value], features: Value) -> list[Value]:
        return [
            tensor.matmul(features, weights[f"stem_{i}"])
            for i in range(self.spec.input_arity)
        ]

    def logits_mixed(self, weights: Mapping[str, Value], alpha: Mapping[str, Value],
                     features: np.ndarray) -> Value:
        out = cell_forward(self.spec, alpha, weights, self._stem_nodes(weights, Value(features)))
        return tensor.matmul(out, weights["head"])

    def logits_discrete(self, weights: Mapping[str, Value], genotype: Genotype,
                        features: np.ndarray) -> Value:
        out = discrete_forward(genotype, weights, self._stem_nodes(weights, Value(features)))
        return tensor.matmul(out, weights["head"])

    def accuracy_discrete(self, weight_arrays: Mapping[str, np.ndarray], genotype: Genotype,
                          features: np.ndarray, labels: np.ndarray) -> float:
        """Share of rows classified right, with no tape participation."""
        values = {k: Value(v) for k, v in weight_arrays.items()}
        pred = np.argmax(self.logits_discrete(values, genotype, features).data, axis=1)
        return float(np.mean(pred == labels.astype(np.int64)))
