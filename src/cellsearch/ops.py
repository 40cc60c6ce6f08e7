"""Candidate operations applicable to a node representation.

The registry order, that of ``OPS``, is fixed and public. Architecture logit
vectors index into it, so it must never be reshuffled.

Parameterized kinds apply ``activation(x @ W)`` to rows of width ``hidden``,
with one ``(hidden, hidden)`` weight matrix per edge-op; ``identity`` holds
none, and ``zero`` is a mixed-edge term only.
"""

from __future__ import annotations

import numpy as np

from . import tensor
from .tensor import Value

# Each kind with the term it adds to a fused mixed edge (``tensor.mixed_edge``):
# nothing, its input, or that activation primitive of its input times its matrix.
# The registry order is the edge's term order, ``tensor.EDGE_TERMS``.
OPS: dict[str, str] = {"zero": "zero", "identity": "identity",
                       **{f"linear_{t}": t for t in tensor.ACTIVATION_RULES}}
OP_ORDER: tuple[str, ...] = tuple(OPS)
NON_ZERO_OPS: tuple[str, ...] = OP_ORDER[1:]
PARAMETERIZED_OPS: tuple[str, ...] = tuple(k for k in OPS if OPS[k] in tensor.ACTIVATION_RULES)


def apply_op(kind: str, weights: Value | None, x: Value) -> Value:
    """Apply one non-zero kind, as a genotype keeps, to ``([slices,] rows, hidden)`` states."""
    term = OPS[kind]
    return x if term == "identity" else tensor.PRIMITIVES[term](tensor.matmul(x, weights))


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform [-s, s] init with s = 1/sqrt(fan_in)."""
    s = 1.0 / float(np.sqrt(fan_in))
    return rng.uniform(-s, s, size=(fan_in, fan_out))
