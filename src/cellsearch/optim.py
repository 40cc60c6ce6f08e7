"""Parameter update rules for network weights and architecture logits.

Each parameter group travels as one contiguous float64 vector: ``pack`` lays a
group's arrays end to end in the group's own name order, and ``unpack`` gives
named views back, shaped as the arrays. The update rules, the clip and the
norm are each one numpy expression over that vector, and each optimizer
keeps one state array per group. Both update rules fold weight decay into the
gradient as an additive ``decay * p`` term before any momentum accumulation;
this convention is fixed here so runs are reproducible. ``step`` returns a
fresh vector and never mutates its inputs; optimizer buffers are the only
mutable state.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

Params = dict[str, np.ndarray]

ADAM_EPS = 1e-8


class OptimizerError(ValueError):
    """A gradient vector's shape does not match the parameters'."""


def pack(arrays: Iterable[np.ndarray], lead: tuple[int, ...] = ()) -> np.ndarray:
    """The arrays' entries in order as one vector; with leading slice axes
    ``lead`` on every array, one vector per slice."""
    shape = (*lead, -1)
    return np.concatenate([np.asarray(a).reshape(shape) for a in arrays], axis=-1)


def unpack(vector: np.ndarray, like: Mapping[str, np.ndarray]) -> Params:
    """Views of ``vector``, named and shaped as ``like``'s arrays in order;
    ``like`` carries the same leading slice axes as ``vector``."""
    lead, start, out = vector.shape[:-1], 0, {}
    for name, p in like.items():
        shape = np.shape(p)[len(lead):]
        stop = start + math.prod(shape)
        out[name] = vector[..., start:stop].reshape((*lead, *shape))
        start = stop
    return out


def flat_norm(vector: np.ndarray) -> float:
    """The L2 norm of a packed vector, as one dot product."""
    return math.sqrt(vector @ vector)


def _check_aligned(what: str, params: np.ndarray, grads: np.ndarray) -> None:
    if grads.shape != params.shape:
        raise OptimizerError(f"{what}: shape mismatch: {params.shape} vs {grads.shape}")


class SgdMomentum:
    """Momentum SGD: v <- mu*v + (g + decay*p), or g + decay*p from no velocity; p <- p - lr*v."""

    def __init__(self, lr: float, momentum: float, weight_decay: float):
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity: np.ndarray | None = None

    def _velocity(self, p: np.ndarray, g: np.ndarray) -> np.ndarray:
        g = g + self.weight_decay * p
        return g if self.velocity is None else self.momentum * self.velocity + g

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        _check_aligned("sgd", params, grads)
        self.velocity = v = self._velocity(params, grads)
        return params - self.lr * v

    def lookahead(self, params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
        """What ``step`` would return at rate ``lr``; the velocity is left as it
        is. Stacked vectors step per slice, the velocity broadcast along them."""
        _check_aligned("sgd", params, grads)
        return params - lr * self._velocity(params, grads)


class Adam:
    """Bias-corrected Adam with decay folded into the gradient; the caller
    passes every setting, and ``ADAM_EPS`` guards the division."""

    def __init__(self, lr: float, betas: tuple[float, float], weight_decay: float):
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = self.v = 0.0  # each the group's one state array from the first step on

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        _check_aligned("adam", params, grads)
        self.step_count += 1
        t = self.step_count
        g = grads + self.weight_decay * params
        self.m = m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        return params - self.lr * (m / (1.0 - self.beta1 ** t)) / (
            np.sqrt(v / (1.0 - self.beta2 ** t)) + ADAM_EPS)


def clip_global_norm(grads: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    """Scale a packed gradient vector so its L2 norm is at most ``max_norm``.

    Returns the (possibly rescaled) vector and the pre-clip norm.
    """
    total = flat_norm(grads)
    if total <= max_norm or total == 0.0:
        return grads, total
    return grads * (max_norm / total), total
