"""Randomized verification of reverse-mode gradients against central differences.

Every primitive kind gets a family of random cases (random shapes, random
inputs). For each case the same scalar loss is evaluated twice: once through
the tape to get reverse-mode gradients, once as a plain function of numpy
arrays for the central-difference oracle. The oracle never touches the
backward pass it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import Tape, Value, backward, finite_difference, relative_error

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


@dataclass
class KindReport:
    kind: str
    cases: int
    max_error: float
    tolerance: float
    passed: bool


def _rand_shape(rng, max_ndim=3, max_extent=4) -> tuple[int, ...]:
    ndim = int(rng.integers(1, max_ndim + 1))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(ndim))


def _coeffs(rng, shape) -> np.ndarray:
    return rng.normal(size=shape)


def _scalarize(out: Value, coeffs: np.ndarray) -> Value:
    if out.ndim == 0:
        return out
    return tensor.sum_all(tensor.multiply(out, Value(coeffs)))


def _pair_case(rng, fn):
    shape = _rand_shape(rng)
    a = rng.normal(size=shape)
    b = rng.normal(size=shape) if rng.random() > 0.3 else np.asarray(rng.normal())
    if rng.random() > 0.5:
        a, b = b, a
    out_shape = np.broadcast_shapes(a.shape, b.shape)
    coeffs = _coeffs(rng, out_shape)

    def build(vals):
        return _scalarize(fn(vals[0], vals[1]), coeffs)

    return [a, b], build


def _unary_case(rng, fn, positive_margin=False):
    shape = _rand_shape(rng)
    if positive_margin:
        # keep relu inputs away from the kink so the FD step cannot cross it
        x = rng.uniform(0.1, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    else:
        x = rng.normal(size=shape)
    coeffs = _coeffs(rng, shape)

    def build(vals):
        return _scalarize(fn(vals[0]), coeffs)

    return [x], build


def _case_for(kind: str, rng):
    if kind == "add":
        return _pair_case(rng, tensor.add)
    if kind == "subtract":
        return _pair_case(rng, tensor.subtract)
    if kind == "elementwise-multiply":
        return _pair_case(rng, tensor.multiply)
    if kind == "scale-by-constant":
        c = float(rng.normal())
        arrays, shape = [rng.normal(size=_rand_shape(rng))], None
        coeffs = _coeffs(rng, arrays[0].shape)

        def build_scale(vals):
            return _scalarize(tensor.scale(vals[0], c), coeffs)

        return arrays, build_scale
    if kind == "matrix-multiply":
        m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        coeffs = _coeffs(rng, (m, n))

        def build_mm(vals):
            return _scalarize(tensor.matmul(vals[0], vals[1]), coeffs)

        return [a, b], build_mm
    if kind == "tanh":
        return _unary_case(rng, tensor.tanh)
    if kind == "relu":
        return _unary_case(rng, tensor.relu, positive_margin=True)
    if kind == "sigmoid":
        return _unary_case(rng, tensor.sigmoid)
    if kind == "softmax-over-axis":
        shape = _rand_shape(rng)
        axis = int(rng.integers(0, len(shape)))
        x = rng.normal(size=shape)
        coeffs = _coeffs(rng, shape)

        def build_sm(vals):
            return _scalarize(tensor.softmax(vals[0], axis=axis), coeffs)

        return [x], build_sm
    if kind == "concatenate":
        base = _rand_shape(rng)
        axis = int(rng.integers(0, len(base)))
        parts = []
        for _ in range(int(rng.integers(2, 4))):
            shape = list(base)
            shape[axis] = int(rng.integers(1, 4))
            parts.append(rng.normal(size=tuple(shape)))
        total = list(base)
        total[axis] = sum(p.shape[axis] for p in parts)
        coeffs = _coeffs(rng, tuple(total))

        def build_cat(vals):
            return _scalarize(tensor.concatenate(list(vals), axis=axis), coeffs)

        return parts, build_cat
    if kind == "mean-over-axis":
        shape = _rand_shape(rng)
        axis = None if rng.random() < 0.3 else int(rng.integers(0, len(shape)))
        x = rng.normal(size=shape)
        out_shape = () if axis is None else tuple(
            d for i, d in enumerate(shape) if i != axis
        )
        coeffs = _coeffs(rng, out_shape)

        def build_mean(vals):
            return _scalarize(tensor.mean(vals[0], axis=axis), coeffs)

        return [x], build_mean
    if kind == "sum":
        x = rng.normal(size=_rand_shape(rng))
        return [x], lambda vals: tensor.sum_all(vals[0])
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
        labels = rng.integers(0, classes, size=batch).astype(np.float64)

        def build_ce(vals):
            return tensor.cross_entropy(vals[0], Value(labels))

        return [logits], build_ce
    if kind == "mixed-edge":
        terms = tuple(rng.permutation(["zero", "identity", *tensor.ACTIVATION_RULES]))
        rows, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        logits = rng.normal(size=len(terms))
        # keep relu pre-activations away from the kink so the FD step cannot cross it
        relu_margin = 0.0
        while relu_margin < 0.1:
            x = rng.normal(size=(rows, d))
            mats = {term: rng.normal(size=(d, d))
                    for term in terms if term in tensor.ACTIVATION_RULES}
            relu_margin = np.min(np.abs(x @ mats["relu"]))
        coeffs = _coeffs(rng, (rows, d))

        def build_me(vals):
            return _scalarize(tensor.mixed_edge(vals[0], vals[1], vals[2:], terms), coeffs)

        return [logits, x, *mats.values()], build_me
    raise ValueError(f"no gradient-check case for kind {kind!r}")


def check_kind(kind: str, seed: int = 0, cases: int = 20,
               step: float = DEFAULT_STEP, tolerance: float = DEFAULT_TOLERANCE) -> KindReport:
    """Compare reverse-mode and central-difference gradients for one kind."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        arrays, build = _case_for(kind, rng)

        with Tape():
            params = [Value.param(a) for a in arrays]
            loss = build(params)
        backward(loss, wrt=params)
        ad_grads = [p.grad for p in params]

        def f(arrs):
            return build([Value(a) for a in arrs]).item()

        fd_grads = finite_difference(f, arrays, step=step)
        for g_ad, g_fd in zip(ad_grads, fd_grads):
            worst = max(worst, relative_error(g_ad, g_fd))
    return KindReport(kind, cases, worst, tolerance, worst < tolerance)


def check_all_primitives(seed: int = 0, cases_per_kind: int = 20,
                         step: float = DEFAULT_STEP,
                         tolerance: float = DEFAULT_TOLERANCE) -> list[KindReport]:
    """Run the gradient check for every registered primitive kind."""
    reports = []
    for offset, kind in enumerate(tensor.PRIMITIVES):
        reports.append(check_kind(kind, seed=seed + offset, cases=cases_per_kind,
                                  step=step, tolerance=tolerance))
    return reports
