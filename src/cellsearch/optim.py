"""Parameter update rules for network weights and architecture logits.

Parameters and gradients travel as name-keyed dicts of float64 arrays. Both
update rules fold weight decay into the gradient as an additive ``decay * p``
term before any momentum accumulation; this convention is fixed here so runs
are reproducible. ``step`` returns fresh arrays and never mutates its inputs;
optimizer buffers are the only mutable state.
"""

from __future__ import annotations

import numpy as np

from .tensor import flat_norm

Params = dict[str, np.ndarray]

ADAM_EPS = 1e-8


class OptimizerError(ValueError):
    """Gradient keys or shapes do not match the parameters."""


def _check_aligned(what: str, params: Params, grads: Params) -> None:
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise OptimizerError(f"{what}: parameter/gradient keys differ: {sorted(missing)}")
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise OptimizerError(
                f"{what}: shape mismatch for {name!r}: {p.shape} vs {grads[name].shape}"
            )


class SgdMomentum:
    """Momentum SGD: v <- mu*v + (g + decay*p); p <- p - lr*v."""

    def __init__(self, lr: float, momentum: float, weight_decay: float):
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity: Params = {}

    def _velocity(self, name: str, p: np.ndarray, g: np.ndarray) -> np.ndarray:
        g = g + self.weight_decay * p
        v = self.velocity.get(name)
        return g if v is None else self.momentum * v + g

    def step(self, params: Params, grads: Params) -> Params:
        _check_aligned("sgd", params, grads)
        out: Params = {}
        for name, p in params.items():
            v = self.velocity[name] = self._velocity(name, p, grads[name])
            out[name] = p - self.lr * v
        return out

    def lookahead(self, params: Params, grads: Params, lr: float) -> Params:
        """What ``step`` would return at rate ``lr``; the velocity is left as it is."""
        _check_aligned("sgd", params, grads)
        return {name: p - lr * self._velocity(name, p, grads[name])
                for name, p in params.items()}


class Adam:
    """Bias-corrected Adam with decay folded into the gradient; the caller
    passes every setting, and ``ADAM_EPS`` guards the division."""

    def __init__(self, lr: float, betas: tuple[float, float], weight_decay: float):
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m: Params = {}
        self.v: Params = {}

    def step(self, params: Params, grads: Params) -> Params:
        _check_aligned("adam", params, grads)
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        out: Params = {}
        for name, p in params.items():
            g = grads[name] + self.weight_decay * p
            m = self.beta1 * self.m.get(name, 0.0) + (1.0 - self.beta1) * g
            v = self.beta2 * self.v.get(name, 0.0) + (1.0 - self.beta2) * g * g
            self.m[name] = m
            self.v[name] = v
            m_hat = m / c1
            v_hat = v / c2
            out[name] = p - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        return out


def clip_global_norm(grads: Params, max_norm: float) -> tuple[Params, float]:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the (possibly rescaled) gradients and the pre-clip norm.
    """
    total = flat_norm(grads.values())
    if total <= max_norm or total == 0.0:
        return grads, total
    factor = max_norm / total
    return {k: g * factor for k, g in grads.items()}, total
