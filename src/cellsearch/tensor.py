"""Dense float64 arrays with a recorded computation tape for reverse-mode gradients.

The engine is define-by-run: opening a ``Tape`` as a context manager makes it
the active tape, and every primitive applied while it is active appends one
record. Records are appended in execution order, which is a topological
order by construction, so ``backward`` is a single reverse sweep with no
sorting.

Which values need a gradient is settled at record time: parameters carry
``requires_grad``, each record stores which of its inputs need a gradient,
and its output needs one if any input does. Each backward closure receives
that mask as ``need`` and may return ``None`` for inputs that need none. A
pass thus picks what it differentiates when it wraps its arrays, and
``backward`` fills every parameter the tape recorded. It consumes the tape,
dropping the records, so a finished pass holds no reference cycle and is
freed by reference counting, without waiting for the cyclic collector.

``Value`` has no arithmetic operators: each operation is a call to its
primitive, so every record a program makes shows at its call site.

Shape rules are deliberately narrow: elementwise primitives require identical
shapes, and the only broadcasting allowed is a 0-d scalar against a tensor.
``concatenate`` joins along the last axis only. The mixed-edge node reads its
logit block in one fixed term order, ``EDGE_TERMS``, and its ``(j, d, 3 * d)``
weight block, row k for edge k, through term-major slabs inside its record.
Each ``ACTIVATION_RULES`` entry is a ``(forward, derivative)`` pair, used by
its primitive and the node; with ``out``, each writes the bits it would return.
Everything is float64; the finite-difference machinery built on top of this
engine is too sensitive to rounding for single precision.

A pass may carry a leading slice axis: S copies of one program, run as one
tape. Matrix multiplication takes 2-d operands, or 3-d ones whose leading axis
holds the S slices, where a 2-d operand is shared by every slice and is a
constant (the features, a fixed matrix), so it gets no gradient; the
mixed-edge node takes stacked logit and weight blocks and states; cross-entropy
gives one mean per slice; and ``backward`` seeds every slice of an ``(S,)``
loss with 1. Each slice is bit-identical to the same pass run on that slice
alone; a parameter carries the slice axis, and each slice gets its own gradient.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """An operand shape violates a primitive's shape rule."""


class TapeError(RuntimeError):
    """Invalid tape usage: nested tapes, cross-tape values, loss not recorded,
    backward on a tape that an earlier backward consumed."""


_active: "Tape | None" = None  # the tape primitives record on, if any


class Value:
    """A dense float64 array, optionally participating in a recorded tape.

    A ``Value`` is either a leaf (constant or parameter) or the output of a
    primitive, which is recorded exactly when ``_tape`` is set. Parameters
    are leaves with ``requires_grad``, whose ``grad`` slot ``backward`` fills
    in; constants never receive gradients. A recorded output requires a
    gradient when one of its inputs does. Data is stored row-major.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, *, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._tape: "Tape | None" = None

    @classmethod
    def param(cls, data) -> "Value":
        """A leaf that will receive a gradient from ``backward``."""
        return cls(data, requires_grad=True)

    @property
    def is_param(self) -> bool:
        """A leaf that requires a gradient: a parameter, never a recorded output."""
        return self.requires_grad and self._tape is None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = "param " if self.is_param else ""
        return f"Value({tag}shape={self.shape})"


class Tape:
    """Append-only record of primitive applications, in execution order.

    Use as a context manager; at most one tape may be active at a time.
    Independent tapes share no state. ``backward`` empties the tape.
    """

    __slots__ = ("records", "_consumed")

    def __init__(self):
        self.records: list[tuple] = []  # (kind, inputs, output, backward_fn, need)
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise TapeError("a tape is already active")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active
        _active = None
        return False

    @property
    def params(self) -> tuple[Value, ...]:
        """The leaf parameters the records consume, in first-use order."""
        return tuple(dict.fromkeys(v for _, inputs, *_ in self.records
                                   for v in inputs if v.is_param))

    def _record(self, kind: str, inputs: tuple[Value, ...], output: Value, backward_fn):
        for v in inputs:
            if v._tape is not None and v._tape is not self:
                raise TapeError(f"{kind}: input was produced on a different tape")
        need = tuple(v.requires_grad for v in inputs)
        output.requires_grad = True in need
        output._tape = self
        self.records.append((kind, inputs, output, backward_fn, need))


def _emit(kind: str, inputs: tuple[Value, ...], out_data: np.ndarray, backward_fn) -> Value:
    """Create the output Value and record it on the active tape, if any."""
    out = Value(out_data)
    if _active is not None:
        _active._record(kind, inputs, out, backward_fn)
    return out


def backward(loss: Value) -> None:
    """Assign d(loss)/d(p) into ``p.grad`` for each parameter of ``tape.params``.

    ``loss`` must be recorded on a tape and be a scalar, or one scalar per
    slice of a stacked pass; every slice is seeded with 1. Every parameter
    the loss's tape recorded receives a gradient, zeros if it does not
    influence the loss; a parameter the tape never recorded keeps its
    ``grad``. Each call assigns fresh gradients; nothing accumulates across
    calls.

    Gradients flow only through values whose ``requires_grad`` was set when
    they were recorded, and each closure is told which of its inputs need
    one. The call consumes the tape: its records are dropped, and a second
    ``backward`` on it raises ``TapeError``.
    """
    if loss.ndim > 1:
        raise TapeError(f"backward: loss must be scalar or one scalar per slice, "
                        f"got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise TapeError("backward: loss is not recorded on a tape")
    if tape._consumed:
        raise TapeError("backward: the tape was already consumed by an earlier backward")
    params = tape.params  # read before the sweep drops the records

    adjoint: dict[int, np.ndarray] = {}
    if loss.requires_grad:
        adjoint[id(loss)] = np.ones(loss.shape, dtype=np.float64)
        for _, inputs, output, backward_fn, need in reversed(tape.records):
            g_out = adjoint.pop(id(output), None)
            if g_out is None:
                continue
            for v, needed, g in zip(inputs, need, backward_fn(g_out, need)):
                if not needed or g is None:
                    continue
                prev = adjoint.get(id(v))
                adjoint[id(v)] = g if prev is None else prev + g
    tape.records.clear()
    tape._consumed = True

    for p in params:
        g = adjoint.get(id(p))
        p.grad = np.zeros_like(p.data) if g is None else np.reshape(g, p.shape)


# ---------------------------------------------------------------------------
# Primitives. Each takes Values (``scale`` also takes a Python constant),
# checks its shape rule, computes with numpy, and registers a closure
# ``back(g, need)`` producing input gradients aligned with the ``inputs``
# tuple. ``need`` flags the inputs that need one; a closure may return None
# for the others.
# ---------------------------------------------------------------------------


def _shape_guard(kind: str, ok: bool, *operands: Value):
    """Raise unless ``ok``; the operands' shapes are read only for the message."""
    if not ok:
        pretty = " vs ".join(str(v.shape) for v in operands)
        raise ShapeError(f"{kind}: incompatible shapes {pretty}")


def _elementwise_pair(kind: str, a: Value, b: Value):
    """Allow identical shapes, or a 0-d scalar against a tensor."""
    _shape_guard(kind, a.data.shape == b.data.shape or a.data.ndim == 0 or b.data.ndim == 0, a, b)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Undo scalar-with-tensor broadcasting in the backward pass.
    if shape == ():
        return np.asarray(g.sum(), dtype=np.float64)
    return g


def add(a: Value, b: Value) -> Value:
    _elementwise_pair("add", a, b)

    def back(g, need):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _emit("add", (a, b), a.data + b.data, back)


def subtract(a: Value, b: Value) -> Value:
    _elementwise_pair("subtract", a, b)

    def back(g, need):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return _emit("subtract", (a, b), a.data - b.data, back)


def multiply(a: Value, b: Value) -> Value:
    _elementwise_pair("elementwise-multiply", a, b)
    ad, bd = a.data, b.data

    def back(g, need):
        return _reduce_to(g * bd, a.shape), _reduce_to(g * ad, b.shape)

    return _emit("elementwise-multiply", (a, b), ad * bd, back)


def scale(a: Value, c: float) -> Value:
    """Multiply by a plain Python constant (not differentiated through)."""
    c = float(c)

    def back(g, need):
        return (g * c,)

    return _emit("scale-by-constant", (a,), a.data * c, back)


def matmul(a: Value, b: Value) -> Value:
    """Matrix product of 2-d operands, or per slice, where a 2-d one is a shared constant."""
    ad, bd = a.data, b.data
    _shape_guard(
        "matrix-multiply",
        2 <= ad.ndim <= 3 and 2 <= bd.ndim <= 3 and ad.shape[-1] == bd.shape[-2]
        and (ad.ndim == 2 or bd.ndim == 2 or ad.shape[0] == bd.shape[0]),
        a, b,
    )

    def back(g, need):
        return (g @ bd.mT if need[0] else None), (ad.mT @ g if need[1] else None)

    return _emit("matrix-multiply", (a, b), ad @ bd, back)


def _tanh_derivative(z, y, out=None):
    return np.subtract(1.0, np.multiply(y, y, out=out), out=out)


def _relu_forward(z, out=None):
    return np.maximum(z, 0.0, out=out)


def _relu_derivative(z, y, out=None):
    return np.greater(z, 0.0, out=out)


def _sigmoid_forward(z, out=None):
    return np.divide(1.0, np.add(1.0, np.exp(np.negative(z, out=out), out=out), out=out), out=out)


def _sigmoid_derivative(z, y, out=None):
    return np.multiply(y, np.subtract(1.0, y, out=out), out=out)


ACTIVATION_RULES = {  # kind: (forward(z, out=None), derivative(z, y, out=None))
    "tanh": (np.tanh, _tanh_derivative),
    "relu": (_relu_forward, _relu_derivative),
    "sigmoid": (_sigmoid_forward, _sigmoid_derivative),
}

# The logit order of every mixed edge: what ``softmax(logits)[i]`` weights.
EDGE_TERMS: tuple[str, ...] = ("zero", "identity", *ACTIVATION_RULES)


def _activation(kind: str, x: Value) -> Value:
    forward, derivative = ACTIVATION_RULES[kind]
    z = x.data
    y = forward(z)

    def back(g, need):
        return (g * derivative(z, y),)

    return _emit(kind, (x,), y, back)


def tanh(x: Value) -> Value:
    return _activation("tanh", x)


def relu(x: Value) -> Value:
    return _activation("relu", x)


def sigmoid(x: Value) -> Value:
    return _activation("sigmoid", x)


def _softmax_forward(z: np.ndarray, axis) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_backward(g: np.ndarray, y: np.ndarray, axis) -> np.ndarray:
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - dot)


def softmax(x: Value, axis: int = -1) -> Value:
    """Softmax along one axis; stable under large logits."""
    _shape_guard("softmax-over-axis", x.ndim >= 1, x)
    y = _softmax_forward(x.data, axis)

    def back(g, need):
        return (_softmax_backward(g, y, axis),)

    return _emit("softmax-over-axis", (x,), y, back)


def mixed_edge(logits: Value, states: Sequence[Value], block: Value) -> Value:
    """One intermediate node as one record: the sum over its incoming edges,
    in order, of each edge's softmax-weighted candidate terms.

    Edge k reads row k of the ``(j, len(EDGE_TERMS))`` logit block, ``states[k]``
    and ``block[k]``, a ``(d, 3 * d)`` slab. ``softmax(logits[k])`` weights the
    terms of ``EDGE_TERMS`` in order: zero (nothing), identity (``states[k]``),
    then each activation of ``ACTIVATION_RULES`` applied to ``states[k] @ W``,
    W being the slab's next ``d`` columns. The zero term is skipped, which is
    exact for finite states; its logit still counts in the softmax. Stacked,
    the logit block, states and weight block share one leading slice axis.

    Inside, the terms sit in contiguous term-major slabs ``(4, j, B, d)`` (the
    states, then each activation), so the output and the logit gradient are
    products of ``(4j, B * d)`` rows; derivatives go back once to ``(j, B, 3d)``.
    """
    j = len(states)
    shape = states[0].data.shape if j else ()
    lead = shape[:-2]
    d = shape[-1] if 2 <= len(shape) <= 3 else -1
    n = len(ACTIVATION_RULES)
    _shape_guard(
        "mixed-edge",
        d >= 0 and all(x.data.shape == shape for x in states)
        and logits.data.shape == (*lead, j, len(EDGE_TERMS))
        and block.data.shape == (*lead, j, d, n * d),
        logits, *states, block,
    )
    b, s = shape[-2], len(lead)
    w = _softmax_forward(logits.data, -1)
    w_terms = w[..., 1:].mT  # (terms, j): identity, then each activation
    slabs = np.empty((*lead, 1 + n, j, b, d))
    xd, y = slabs[..., 0, :, :, :], slabs[..., 1:, :, :, :]
    for k, x in enumerate(states):
        xd[..., k, :, :] = x.data
    mats = block.data.reshape(*lead, j, d, n, d).transpose(*range(s), s + 2, s, s + 1, s + 3)
    # ``out`` keeps z term-major: matmul would follow the edge-major block's strides.
    z = np.matmul(xd[..., None, :, :, :], mats, out=np.empty((*lead, n, j, b, d)))
    for t, (forward, _) in enumerate(ACTIVATION_RULES.values()):
        forward(z[..., t, :, :, :], out=y[..., t, :, :, :])
    rows = slabs.reshape(*lead, (1 + n) * j, b * d)
    out = (w_terms.reshape(*lead, 1, (1 + n) * j) @ rows).reshape(shape)

    def back(g, need):
        dlogits, dstates, dblock = None, [None] * j, None
        if need[0]:
            dw = np.zeros_like(w)
            dw[..., 1:] = (rows @ g.reshape(*lead, b * d, 1)).reshape(*lead, 1 + n, j).mT
            dlogits = _softmax_backward(dw, w, -1)
        need_states = True in need[1:-1]
        if need_states or need[-1]:
            dz = np.empty_like(z)
            for t, (_, derivative) in enumerate(ACTIVATION_RULES.values()):
                derivative(z[..., t, :, :, :], y[..., t, :, :, :], out=dz[..., t, :, :, :])
            dz *= w_terms[..., 1:, :, None, None]
            dz *= g[..., None, None, :, :]
            dz = dz.transpose(*range(s), s + 1, s + 2, s, s + 3).reshape(*lead, j, b, n * d)
            if need_states:
                dx = dz @ block.data.mT + g[..., None, :, :] * w[..., 1, None, None]
                dstates = [dx[..., k, :, :] for k in range(j)]
            if need[-1]:
                dblock = xd.mT @ dz
        return (dlogits, *dstates, dblock)

    return _emit("mixed-edge", (logits, *states, block), out, back)


def concatenate(values: Sequence[Value]) -> Value:
    """Join along the last axis. Every value has at least one axis, and all
    share the leading shape."""
    lead = values[0].shape[:-1] if values else ()
    _shape_guard("concatenate", len(values) >= 1 and all(
        v.ndim >= 1 and v.shape[:-1] == lead for v in values), *values)
    offsets = np.cumsum([v.shape[-1] for v in values])[:-1]

    def back(g, need):
        return tuple(np.split(g, offsets, axis=-1))

    return _emit(
        "concatenate", tuple(values), np.concatenate([v.data for v in values], axis=-1), back
    )


def mean(x: Value, axis: int | None = None) -> Value:
    """Mean over one axis, or over all elements when axis is None."""
    if axis is None:
        n = x.size

        def back(g, need):
            return (np.full(x.shape, float(g) / n),)

        return _emit("mean-over-axis", (x,), np.asarray(x.data.mean()), back)

    _shape_guard("mean-over-axis", -x.ndim <= axis < x.ndim, x)
    n = x.shape[axis]

    def back(g, need):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _emit("mean-over-axis", (x,), x.data.mean(axis=axis), back)


def sum_all(x: Value, axis: int | tuple[int, ...] | None = None) -> Value:
    """Sum over the given axes, or over all elements when axis is None."""
    axes = () if axis is None else np.atleast_1d(axis)
    _shape_guard("sum", all(-x.ndim <= a < x.ndim for a in axes), x)

    def back(g, need):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis),
                                x.shape).copy(),)

    return _emit("sum", (x,), np.asarray(x.data.sum(axis=axis)), back)


def select(x: Value, index: int) -> Value:
    """Pick one entry of a 1-d value as a scalar."""
    _shape_guard("select-index", x.ndim == 1 and 0 <= index < x.shape[0], x)

    def back(g, need):
        out = np.zeros(x.shape)
        out[index] = float(g)
        return (out,)

    return _emit("select-index", (x,), np.asarray(x.data[index]), back)


def mse_loss(pred: Value, target: Value) -> Value:
    _shape_guard("mean-squared-error", pred.shape == target.shape, pred, target)
    diff = pred.data - target.data
    n = max(pred.size, 1)

    def back(g, need):
        d = (2.0 / n) * diff * float(g)
        return d, -d

    return _emit("mean-squared-error", (pred, target), np.asarray((diff * diff).mean()), back)


def cross_entropy(logits: Value, labels: np.ndarray) -> Value:
    """Mean softmax cross-entropy over a batch of rows, one mean per slice.

    ``logits`` is (batch, classes), or (slices, batch, classes); ``labels``
    is a plain integer array of class ids, shared by every slice. It is not
    a tape input, so the record has one input.
    """
    z = logits.data
    _shape_guard(
        "softmax-cross-entropy",
        2 <= z.ndim <= 3 and labels.ndim == 1 and labels.shape[0] == z.shape[-2],
        logits, labels,
    )
    shifted = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    rows = np.arange(z.shape[-2])
    nll = lse - shifted[..., rows, labels]
    probs = np.exp(shifted - lse[..., None])
    batch = z.shape[-2]

    def back(g, need):
        d = probs.copy()
        d[..., rows, labels] -= 1.0
        scale = g / batch
        return (d * (scale[:, None, None] if scale.ndim else scale),)

    return _emit("softmax-cross-entropy", (logits,), np.asarray(nll.mean(axis=-1)), back)


# ---------------------------------------------------------------------------
# The primitive set by kind name, checked case by case by the gradient checker.
# ---------------------------------------------------------------------------

PRIMITIVES: dict[str, Callable] = {
    "add": add,
    "subtract": subtract,
    "scale-by-constant": scale,
    "elementwise-multiply": multiply,
    "matrix-multiply": matmul,
    "tanh": tanh,
    "relu": relu,
    "sigmoid": sigmoid,
    "softmax-over-axis": softmax,
    "concatenate": concatenate,
    "mean-over-axis": mean,
    "sum": sum_all,
    "select-index": select,
    "mean-squared-error": mse_loss,
    "softmax-cross-entropy": cross_entropy,
    "mixed-edge": mixed_edge,
}


# ---------------------------------------------------------------------------
# Finite-difference utilities shared by the test oracles and the gradient
# check command.
# ---------------------------------------------------------------------------


def finite_difference(f: Callable[[list[np.ndarray]], np.ndarray],
                      arrays: Sequence[np.ndarray],
                      step: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of a scalar function of several arrays.

    ``f`` evaluates every probe point in one call. It gets one array per entry
    of ``arrays`` with a leading axis of 2N probes, N being the number of
    coordinates in all: for each coordinate in order, the point moved up by
    ``step``, then the point moved down. It returns the 2N values.
    """
    work = [np.array(a, dtype=np.float64) for a in arrays]
    n = sum(a.size for a in work)
    probes = [np.repeat(a[None], 2 * n, axis=0) for a in work]
    p = 0
    for a, stacked in zip(work, probes):
        flat = stacked.reshape(2 * n, a.size)
        for i, orig in enumerate(a.reshape(-1)):
            flat[p, i] = orig + step
            flat[p + 1, i] = orig - step
            p += 2
    values = np.asarray(f(probes), dtype=np.float64)
    grads = (values[0::2] - values[1::2]) / (2.0 * step)
    offsets = np.cumsum([a.size for a in work])[:-1]
    return [g.reshape(a.shape) for g, a in zip(np.split(grads, offsets), work)]


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 distance, guarded for near-zero pairs."""
    na = float(np.linalg.norm(np.asarray(a, dtype=np.float64).ravel()))
    nb = float(np.linalg.norm(np.asarray(b, dtype=np.float64).ravel()))
    diff = float(np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()))
    denom = max(na, nb)
    if denom == 0.0:
        return diff
    return diff / denom
