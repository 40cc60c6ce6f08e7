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

from typing import Mapping, Sequence

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

# What each kind adds to a fused mixed edge (``tensor.mixed_edge``): nothing,
# its input, or an activation of its input times the kind's matrix.
EDGE_TERMS = {
    "zero": "zero",
    "identity": "identity",
    "linear_tanh": "tanh",
    "linear_relu": "relu",
    "linear_sigmoid": "sigmoid",
}


class OpError(ValueError):
    """Unknown operation kind or missing/invalid operation parameters."""


def op_index(kind: str) -> int:
    try:
        return OP_ORDER.index(kind)
    except ValueError:
        raise OpError(f"unknown operation kind: {kind!r}") from None


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


def edge_terms(op_set: Sequence[str], weights: Mapping[str, Value]
               ) -> tuple[tuple[str, ...], list[Value]]:
    """The mixed-edge term of each kind in ``op_set`` and, in the same order,
    the weight matrices of its parameterized kinds."""
    terms, matrices = [], []
    for kind in op_set:
        if kind not in EDGE_TERMS:
            raise OpError(f"unknown operation kind: {kind!r}")
        if kind in PARAMETERIZED_OPS:
            if weights.get(kind) is None:
                raise OpError(f"{kind}: operation requires a weight matrix")
            matrices.append(weights[kind])
        terms.append(EDGE_TERMS[kind])
    return tuple(terms), matrices


def init_scale(fan_in: int) -> float:
    return 1.0 / float(np.sqrt(fan_in))


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform [-s, s] init with s = 1/sqrt(fan_in)."""
    s = init_scale(fan_in)
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_op_params(kind: str, hidden: int, rng: np.random.Generator) -> np.ndarray | None:
    """Fresh parameters for one edge-op; None for parameter-free kinds."""
    if hidden < 1:
        raise OpError(f"hidden size must be positive, got {hidden}")
    if kind in PARAMETERIZED_OPS:
        return init_linear(rng, hidden, hidden)
    if kind in OP_ORDER:
        return None
    raise OpError(f"unknown operation kind: {kind!r}")
