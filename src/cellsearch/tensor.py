"""Dense float64 arrays with a recorded computation tape for reverse-mode gradients.

The engine is define-by-run: opening a ``Tape`` as a context manager makes it
the active tape for the current thread, and every primitive applied while it
is active appends one record. Records are appended in execution order, which
is a topological order by construction, so ``backward`` is a single reverse
sweep with no sorting.

Which values need a gradient is settled at record time: parameters carry
``requires_grad``, each record stores which of its inputs need a gradient,
and its output needs one if any input does. Each backward closure receives
that mask as ``need`` and may return ``None`` for inputs that need none.
``backward`` consumes its tape: once the sweep is done it drops the records,
so a finished pass holds no reference cycle and is freed by reference
counting, without waiting for the cyclic collector.

Shape rules are deliberately narrow: elementwise primitives require identical
shapes, the only broadcasting allowed is a 0-d scalar against a tensor, and
matrix multiplication is strictly 2-d. Everything is float64; the
finite-difference machinery built on top of this engine is too sensitive to
rounding for single precision.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """An operand shape violates a primitive's shape rule."""


class TapeError(RuntimeError):
    """Invalid tape usage: nested tapes, cross-tape values, loss not recorded,
    backward on a tape that an earlier backward consumed."""


_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


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

    # Arithmetic sugar. Python scalars go through scale/add-constant paths.
    def __add__(self, other):
        return add(self, _as_value(other))

    __radd__ = __add__

    def __sub__(self, other):
        return subtract(self, _as_value(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return multiply(self, other)

    __rmul__ = __mul__


def _as_value(x) -> Value:
    if isinstance(x, Value):
        return x
    return Value(np.asarray(x, dtype=np.float64))


class Tape:
    """Append-only record of primitive applications, in execution order.

    Use as a context manager; at most one tape may be active per thread.
    The tape and its values belong to one thread; independent tapes share
    no state. ``backward`` empties the tape.
    """

    __slots__ = ("records", "_consumed")

    def __init__(self):
        self.records: list[tuple] = []  # (kind, inputs, output, backward_fn, need)
        self._consumed = False

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise TapeError("a tape is already active in this thread")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        return False

    def __len__(self) -> int:
        return len(self.records)

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
    tape = _active_tape()
    if tape is not None:
        tape._record(kind, inputs, out, backward_fn)
    return out


def backward(loss: Value, wrt: Iterable[Value] | None = None) -> None:
    """Assign d(loss)/d(p) into ``p.grad`` for each requested parameter.

    ``loss`` must be a scalar recorded on a tape. With ``wrt`` omitted, every
    parameter the loss's tape consumed receives a gradient; otherwise
    only the given parameters do (others are left untouched). Parameters that
    do not influence the loss receive zeros. Each call assigns fresh
    gradients; nothing accumulates across calls.

    Gradients flow only through values whose ``requires_grad`` was set when
    they were recorded, and each closure is told which of its inputs need
    one. The call consumes the tape: its records are dropped, and a second
    ``backward`` on it raises ``TapeError``.
    """
    if loss.ndim != 0:
        raise TapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise TapeError("backward: loss is not recorded on a tape")
    if tape._consumed:
        raise TapeError("backward: the tape was already consumed by an earlier backward")
    params = list(tape.params) if wrt is None else list(wrt)
    for p in params:
        if not p.is_param:
            raise TapeError("backward: wrt entries must be parameters")

    adjoint: dict[int, np.ndarray] = {}
    if loss.requires_grad:
        adjoint[id(loss)] = np.ones((), dtype=np.float64)
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
# Primitives. Each takes Values (only the operator sugar converts Python
# scalars), checks its shape rule, computes with numpy, and registers
# a closure ``back(g, need)`` producing input gradients aligned with the
# ``inputs`` tuple. ``need`` flags the inputs that need one; a closure may
# return None for the others (and always does for class labels).
# ---------------------------------------------------------------------------


def _shape_guard(kind: str, ok: bool, *shapes):
    if not ok:
        pretty = " vs ".join(str(s) for s in shapes)
        raise ShapeError(f"{kind}: incompatible shapes {pretty}")


def _elementwise_pair(kind: str, a: Value, b: Value):
    """Allow identical shapes, or a 0-d scalar against a tensor."""
    _shape_guard(kind, a.shape == b.shape or a.ndim == 0 or b.ndim == 0, a.shape, b.shape)


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
    _shape_guard(
        "matrix-multiply",
        a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0],
        a.shape,
        b.shape,
    )
    ad, bd = a.data, b.data

    def back(g, need):
        return g @ bd.T if need[0] else None, ad.T @ g if need[1] else None

    return _emit("matrix-multiply", (a, b), ad @ bd, back)


# Elementwise activation rules: ``forward(z) -> y`` and ``backward(g, z, y)``
# giving the gradient with respect to z. The activation primitives and the
# fused mixed edge both apply them.


def _tanh_forward(z):
    return np.tanh(z)


def _tanh_backward(g, z, y):
    return g * (1.0 - y * y)


def _relu_forward(z):
    return np.where(z > 0.0, z, 0.0)


def _relu_backward(g, z, y):
    return g * (z > 0.0)


def _sigmoid_forward(z):
    return 1.0 / (1.0 + np.exp(-z))


def _sigmoid_backward(g, z, y):
    return g * y * (1.0 - y)


ACTIVATION_RULES = {
    "tanh": (_tanh_forward, _tanh_backward),
    "relu": (_relu_forward, _relu_backward),
    "sigmoid": (_sigmoid_forward, _sigmoid_backward),
}


def _activation(kind: str, x: Value) -> Value:
    forward, backward_rule = ACTIVATION_RULES[kind]
    z = x.data
    y = forward(z)

    def back(g, need):
        return (backward_rule(g, z, y),)

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
    _shape_guard("softmax-over-axis", x.ndim >= 1, x.shape)
    y = _softmax_forward(x.data, axis)

    def back(g, need):
        return (_softmax_backward(g, y, axis),)

    return _emit("softmax-over-axis", (x,), y, back)


@functools.lru_cache(maxsize=256)
def _edge_plan(terms: tuple[str, ...], d: int):
    """The activation-term count of a mixed edge and, per non-zero term, its
    logit index, activation rules (None for identity) and columns of z.

    A search calls ``mixed_edge`` with a few term tuples, so the plan is built
    once per tuple and width; the cache is bounded and its entries immutable.
    """
    plan, n_act = [], 0
    for i, term in enumerate(terms):
        if term == "identity":
            plan.append((i, None, None))
        elif term != "zero":
            plan.append((i, ACTIVATION_RULES[term], slice(n_act * d, (n_act + 1) * d)))
            n_act += 1
    return n_act, tuple(plan)


def mixed_edge(logits: Value, x: Value, matrices: Sequence[Value],
               terms: Sequence[str]) -> Value:
    """Softmax-weighted sum of candidate terms of one input, as one record.

    ``terms[i]`` names what ``softmax(logits)[i]`` weights: ``"zero"``
    (nothing), ``"identity"`` (``x`` itself) or an activation kind of
    ``ACTIVATION_RULES`` applied to ``x @ W``, where each activation term
    takes the next square matrix of ``matrices`` in order. The matrices are
    multiplied as one ``(d, n * d)`` block. The zero term is skipped, which
    is exact for finite ``x``; its logit still counts in the softmax.
    """
    d = x.shape[1] if x.ndim == 2 else -1
    n_act, plan = _edge_plan(tuple(terms), d)
    _shape_guard(
        "mixed-edge",
        logits.ndim == 1 and logits.shape[0] == len(terms) and x.ndim == 2
        and len(matrices) == n_act and all(m.shape == (d, d) for m in matrices),
        logits.shape, x.shape, *(m.shape for m in matrices),
    )
    xd = x.data
    w = _softmax_forward(logits.data, 0)
    wcat = np.concatenate([m.data for m in matrices], axis=1) if matrices else np.zeros((d, 0))
    z = xd @ wcat
    ys = [xd if rules is None else rules[0](z[:, cols]) for _, rules, cols in plan]
    out = np.zeros_like(xd)
    for (i, _, _), y in zip(plan, ys):
        out = out + w[i] * y

    def back(g, need):
        dlogits = dx = None
        dmats = [None] * n_act
        if need[0]:
            dw = np.zeros_like(w)
            for (i, _, _), y in zip(plan, ys):
                dw[i] = (g * y).sum()
            dlogits = _softmax_backward(dw, w, 0)
        need_mats = True in need[2:]
        if need[1] or need_mats:
            dz = np.empty_like(z)
            for (i, rules, cols), y in zip(plan, ys):
                if rules is not None:
                    dz[:, cols] = rules[1](g * w[i], z[:, cols], y)
            if need[1]:
                dx = dz @ wcat.T
                for i, rules, _ in plan:
                    if rules is None:
                        dx = dx + g * w[i]
            if need_mats:
                dwcat = xd.T @ dz
                dmats = [dwcat[:, k * d:(k + 1) * d] if need[2 + k] else None
                         for k in range(n_act)]
        return (dlogits, dx, *dmats)

    return _emit("mixed-edge", (logits, x, *matrices), out, back)


def concatenate(values: Sequence[Value], axis: int = 0) -> Value:
    _shape_guard("concatenate", len(values) >= 1, ())
    base = list(values[0].shape)
    for v in values[1:]:
        other = list(v.shape)
        same_rank = len(other) == len(base)
        _shape_guard("concatenate", same_rank, values[0].shape, v.shape)
        probe = [d for i, d in enumerate(other) if i != axis % len(base)]
        ref = [d for i, d in enumerate(base) if i != axis % len(base)]
        _shape_guard("concatenate", probe == ref, values[0].shape, v.shape)
    sizes = [v.shape[axis % v.ndim] for v in values]
    offsets = np.cumsum(sizes)[:-1]

    def back(g, need):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit(
        "concatenate", tuple(values), np.concatenate([v.data for v in values], axis=axis), back
    )


def mean(x: Value, axis: int | None = None) -> Value:
    """Mean over one axis, or over all elements when axis is None."""
    if axis is None:
        n = x.size

        def back(g, need):
            return (np.full(x.shape, float(g) / n),)

        return _emit("mean-over-axis", (x,), np.asarray(x.data.mean()), back)

    _shape_guard("mean-over-axis", -x.ndim <= axis < x.ndim, x.shape)
    n = x.shape[axis]

    def back(g, need):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _emit("mean-over-axis", (x,), x.data.mean(axis=axis), back)


def sum_all(x: Value) -> Value:

    def back(g, need):
        return (np.full(x.shape, float(g)),)

    return _emit("sum", (x,), np.asarray(x.data.sum()), back)


def select(x: Value, index: int) -> Value:
    """Pick one entry of a 1-d value as a scalar."""
    _shape_guard("select-index", x.ndim == 1 and 0 <= index < x.shape[0], x.shape)

    def back(g, need):
        out = np.zeros(x.shape)
        out[index] = float(g)
        return (out,)

    return _emit("select-index", (x,), np.asarray(x.data[index]), back)


def mse_loss(pred: Value, target: Value) -> Value:
    _shape_guard("mean-squared-error", pred.shape == target.shape, pred.shape, target.shape)
    diff = pred.data - target.data
    n = max(pred.size, 1)

    def back(g, need):
        d = (2.0 / n) * diff * float(g)
        return d, -d

    return _emit("mean-squared-error", (pred, target), np.asarray((diff * diff).mean()), back)


def cross_entropy(logits: Value, labels) -> Value:
    """Mean softmax cross-entropy over a batch of rows.

    ``logits`` is (batch, classes); ``labels`` holds integer class ids and is
    never differentiated.
    """
    idx = labels.data.astype(np.int64)
    _shape_guard(
        "softmax-cross-entropy",
        logits.ndim == 2 and idx.ndim == 1 and idx.shape[0] == logits.shape[0],
        logits.shape,
        labels.shape,
    )
    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(z.shape[0])
    nll = lse - shifted[rows, idx]
    probs = np.exp(shifted - lse[:, None])
    batch = z.shape[0]

    def back(g, need):
        d = probs.copy()
        d[rows, idx] -= 1.0
        return d * (float(g) / batch), None

    return _emit("softmax-cross-entropy", (logits, labels), np.asarray(nll.mean()), back)


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


def finite_difference(f: Callable[[Sequence[np.ndarray]], float],
                      arrays: Sequence[np.ndarray],
                      step: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of a scalar function of several arrays."""
    grads = []
    work = [np.array(a, dtype=np.float64) for a in arrays]
    for k, a in enumerate(work):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f(work)
            flat[i] = orig - step
            down = f(work)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 distance, guarded for near-zero pairs."""
    na = float(np.linalg.norm(np.asarray(a, dtype=np.float64).ravel()))
    nb = float(np.linalg.norm(np.asarray(b, dtype=np.float64).ravel()))
    diff = float(np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()))
    denom = max(na, nb)
    if denom == 0.0:
        return diff
    return diff / denom


def flat_norm(arrays: Iterable[np.ndarray]) -> float:
    """Global L2 norm over a collection of arrays."""
    total = 0.0
    for a in arrays:
        total += float(np.sum(np.asarray(a, dtype=np.float64) ** 2))
    return float(np.sqrt(total))
