"""Randomized verification of reverse-mode gradients against central differences.

Every primitive kind gets a family of random cases (random shapes, random
inputs). For each case the same scalar loss is evaluated twice: once through
the tape to get reverse-mode gradients, once untaped for the central-difference
oracle, which never touches the backward pass it is checking. The oracle runs
all 2N probes of a case in one call, stacked along a leading probe axis; the
kinds whose primitive has no slice axis (``_PER_PROBE_KINDS``) run each probe alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import Tape, Value, backward, finite_difference, relative_error

DEFAULT_TOLERANCE = 1e-4


@dataclass
class CheckReport:
    """One family of gradient checks: the worst relative error over its problems."""

    name: str
    problems: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _rand_shape(rng, max_ndim=3, max_extent=4) -> tuple[int, ...]:
    ndim = int(rng.integers(1, max_ndim + 1))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(ndim))


# Kinds whose output already is the scalar loss. Every other kind's output is
# weighted by random coefficients, drawn right after its inputs, and summed;
# a 0-d output (a mean over all axes) still draws its one coefficient but is
# the loss itself.
_LOSS_KINDS = ("sum", "select-index", "mean-squared-error", "softmax-cross-entropy")
# Kinds whose primitive has no slice axis, so the oracle runs each probe alone.
# ROADMAP item 1 deletes these kinds; this tuple and its loop go with them.
_PER_PROBE_KINDS = ("select-index", "mean-squared-error", "mean-over-axis")


def _scalarize(out: Value, coeffs: np.ndarray | None) -> Value:
    """``out`` weighted by ``coeffs`` and summed over their axes, per probe if stacked."""
    if coeffs is None or coeffs.ndim == 0:
        return out
    weighted = tensor.multiply(out, Value(np.broadcast_to(coeffs, out.shape)))
    return tensor.sum_all(weighted, axis=tuple(range(-coeffs.ndim, 0)))


def _pair_case(rng, fn):
    shape = _rand_shape(rng)
    a = rng.normal(size=shape)
    b = rng.normal(size=shape) if rng.random() > 0.3 else np.asarray(rng.normal())
    if rng.random() > 0.5:
        a, b = b, a
    return [a, b], lambda vals: fn(vals[0], vals[1])


def _unary_case(rng, fn, positive_margin=False):
    shape = _rand_shape(rng)
    if positive_margin:
        # keep relu inputs away from the kink so the FD step cannot cross it
        x = rng.uniform(0.1, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    else:
        x = rng.normal(size=shape)
    return [x], lambda vals: fn(vals[0])


def _case_for(kind: str, rng):
    """Random inputs for one case of ``kind`` and the function of their
    Values whose gradient is checked."""
    if kind == "add":
        return _pair_case(rng, tensor.add)
    if kind == "subtract":
        return _pair_case(rng, tensor.subtract)
    if kind == "elementwise-multiply":
        return _pair_case(rng, tensor.multiply)
    if kind == "scale-by-constant":
        c = float(rng.normal())
        x = rng.normal(size=_rand_shape(rng))
        return [x], lambda vals: tensor.scale(vals[0], c)
    if kind == "matrix-multiply":
        m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        return [a, b], lambda vals: tensor.matmul(vals[0], vals[1])
    if kind == "tanh":
        return _unary_case(rng, tensor.tanh)
    if kind == "relu":
        return _unary_case(rng, tensor.relu, positive_margin=True)
    if kind == "sigmoid":
        return _unary_case(rng, tensor.sigmoid)
    if kind == "softmax-over-axis":
        shape = _rand_shape(rng)
        axis = int(rng.integers(0, len(shape))) - len(shape)
        x = rng.normal(size=shape)
        return [x], lambda vals: tensor.softmax(vals[0], axis=axis)
    if kind == "concatenate":
        lead = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(0, 3))))
        parts = [rng.normal(size=(*lead, int(rng.integers(1, 4))))
                 for _ in range(int(rng.integers(2, 4)))]
        return parts, lambda vals: tensor.concatenate(list(vals))
    if kind == "mean-over-axis":
        shape = _rand_shape(rng)
        axis = None if rng.random() < 0.3 else int(rng.integers(0, len(shape)))
        x = rng.normal(size=shape)
        return [x], lambda vals: tensor.mean(vals[0], axis=axis)
    if kind == "sum":
        x = rng.normal(size=_rand_shape(rng))
        return [x], lambda vals: tensor.sum_all(vals[0], axis=tuple(range(-x.ndim, 0)))
    if kind == "select-index":
        n = int(rng.integers(1, 6))
        x = rng.normal(size=(n,))
        index = int(rng.integers(0, n))
        return [x], lambda vals: tensor.select(vals[0], index)
    if kind == "mean-squared-error":
        shape = _rand_shape(rng)
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        return [a, b], lambda vals: tensor.mse_loss(vals[0], vals[1])
    if kind == "softmax-cross-entropy":
        batch = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        logits = rng.normal(size=(batch, classes))
        labels = rng.integers(0, classes, size=batch)
        return [logits], lambda vals: tensor.cross_entropy(vals[0], labels)
    if kind == "mixed-edge":
        j, rows, d = int(rng.integers(1, 3)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        logits = rng.normal(size=(j, len(tensor.EDGE_TERMS)))
        relu = list(tensor.ACTIVATION_RULES).index("relu")
        # keep relu pre-activations away from the kink so the FD step cannot cross it
        relu_margin = 0.0
        while relu_margin < 0.1:
            x = rng.normal(size=(j, rows, d))
            block = rng.normal(size=(j, d, len(tensor.ACTIVATION_RULES) * d))
            relu_margin = np.min(np.abs(x @ block[..., relu * d:(relu + 1) * d]))
        return ([logits, *x, block],
                lambda vals: tensor.mixed_edge(vals[0], vals[1:j + 1], vals[j + 1]))
    raise ValueError(f"no gradient-check case for kind {kind!r}")


def _probe_losses(kind, fn, arrays, coeffs, probes) -> np.ndarray:
    """A case's loss at every stacked probe, from one untaped call of ``fn``
    unless ``kind`` runs per probe; a 0-d operand takes its stacked partner's shape."""
    if kind in _PER_PROBE_KINDS:
        return np.array([_scalarize(fn([Value(a) for a in point]), coeffs).item()
                         for point in zip(*probes)])
    lead = max(probes, key=np.ndim).shape
    vals = [Value(np.broadcast_to(p.reshape(-1, *[1] * (len(lead) - 1)), lead)
                  if a.ndim == 0 else p) for a, p in zip(arrays, probes)]
    return _scalarize(fn(vals), coeffs).data


def check_kind(kind: str, seed: int = 0, cases: int = 20,
               tolerance: float = DEFAULT_TOLERANCE) -> CheckReport:
    """Compare reverse-mode and central-difference gradients for one kind."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        arrays, fn = _case_for(kind, rng)

        with Tape():
            params = [Value.param(a) for a in arrays]
            out = fn(params)
            coeffs = None if kind in _LOSS_KINDS else rng.normal(size=out.shape)
            loss = _scalarize(out, coeffs)
        backward(loss)
        ad_grads = [p.grad for p in params]

        fd_grads = finite_difference(
            lambda probes: _probe_losses(kind, fn, arrays, coeffs, probes), arrays)
        for g_ad, g_fd in zip(ad_grads, fd_grads):
            worst = max(worst, relative_error(g_ad, g_fd))
    return CheckReport(kind, cases, worst, tolerance)


def check_all_primitives(seed: int = 0, cases_per_kind: int = 20,
                         tolerance: float = DEFAULT_TOLERANCE) -> list[CheckReport]:
    """Run the gradient check for every registered primitive kind."""
    reports = []
    for offset, kind in enumerate(tensor.PRIMITIVES):
        reports.append(check_kind(kind, seed=seed + offset, cases=cases_per_kind,
                                  tolerance=tolerance))
    return reports
