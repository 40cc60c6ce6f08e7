"""Candidate operations applicable to a node representation.

The registry order is fixed and public: ``zero``, ``identity``,
``linear_tanh``, ``linear_relu``, ``linear_sigmoid``. Architecture logit
vectors index into this order, so it must never be reshuffled.

Node representations are always 2-d, rows of width ``hidden``; a single
vector is a one-row matrix. Parameterized kinds apply ``activation(x @ W)``
with one ``(hidden, hidden)`` weight matrix owned per edge-op; ``zero`` and
``identity`` hold no parameters.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import tensor
from .tensor import Value

OP_ORDER: tuple[str, ...] = ("zero", "identity", "linear_tanh", "linear_relu", "linear_sigmoid")
NON_ZERO_OPS: tuple[str, ...] = OP_ORDER[1:]
PARAMETERIZED_OPS: frozenset[str] = frozenset(k for k in OP_ORDER if k.startswith("linear_"))

_ACTIVATIONS = {
    "linear_tanh": tensor.tanh,
    "linear_relu": tensor.relu,
    "linear_sigmoid": tensor.sigmoid,
}

# What each kind adds to a fused mixed edge (``tensor.mixed_edge``), in
# registry order: nothing, its input, or an activation of its input times the
# kind's matrix.
EDGE_TERMS: tuple[str, ...] = ("zero", "identity", "tanh", "relu", "sigmoid")


class OpError(ValueError):
    """Unknown operation kind or missing/invalid operation parameters."""


def apply_op(kind: str, weights: Value | None, x: Value) -> Value:
    """Apply one candidate operation to a stack of row vectors."""
    if x.ndim != 2:
        raise OpError(f"{kind}: expected rows of vectors, got shape {x.shape}")
    if kind == "zero":
        return tensor.scale(x, 0.0)
    if kind == "identity":
        return x
    if kind in PARAMETERIZED_OPS:
        if weights is None:
            raise OpError(f"{kind}: operation requires a weight matrix")
        return _ACTIVATIONS[kind](tensor.matmul(x, weights))
    raise OpError(f"unknown operation kind: {kind!r}")


def edge_matrices(weights: Mapping[str, Value]) -> list[Value]:
    """The weight matrices of the parameterized kinds, in registry order: the
    matrices ``tensor.mixed_edge`` takes with ``EDGE_TERMS``."""
    matrices = []
    for kind in OP_ORDER:
        if kind in PARAMETERIZED_OPS:
            if weights.get(kind) is None:
                raise OpError(f"{kind}: operation requires a weight matrix")
            matrices.append(weights[kind])
    return matrices


def init_scale(fan_in: int) -> float:
    return 1.0 / float(np.sqrt(fan_in))


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform [-s, s] init with s = 1/sqrt(fan_in)."""
    s = init_scale(fan_in)
    return rng.uniform(-s, s, size=(fan_in, fan_out))
