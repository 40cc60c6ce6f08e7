import numpy as np
import pytest

from cellsearch import tensor
from cellsearch.ops import (
    NON_ZERO_OPS,
    OP_ORDER,
    OPS,
    PARAMETERIZED_OPS,
    apply_op,
    init_linear,
)
from cellsearch.tensor import Tape, Value, backward, finite_difference, relative_error


def test_registry_order_is_fixed():
    assert OP_ORDER == ("zero", "identity", "linear_tanh", "linear_relu", "linear_sigmoid")
    assert NON_ZERO_OPS == OP_ORDER[1:]
    assert tuple(OPS.values()) == tensor.EDGE_TERMS


def test_identity_op_returns_input():
    x = Value([[1.0, 2.0]])
    assert apply_op("identity", None, x) is x


def test_linear_tanh_with_zero_weights_is_zero():
    x = Value([[0.3, -0.7]])
    out = apply_op("linear_tanh", Value(np.zeros((2, 2))), x)
    np.testing.assert_array_equal(out.data, np.zeros((1, 2)))


def test_init_linear_uses_fan_in():
    for fan_in, bound in [(16, 0.25), (4, 0.5)]:
        w = init_linear(np.random.default_rng(1), fan_in, 3)
        assert w.shape == (fan_in, 3)
        assert np.max(np.abs(w)) <= bound


@pytest.mark.parametrize("kind", sorted(PARAMETERIZED_OPS))
def test_weight_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(OP_ORDER.index(kind))
    # keep relu pre-activations away from the kink
    x = rng.uniform(0.2, 1.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    w = rng.normal(size=(4, 4))
    coeffs = rng.normal(size=(3, 4))

    with Tape():
        wp = Value.param(w)
        out = apply_op(kind, wp, Value(x))
        loss = tensor.sum_all(tensor.multiply(out, Value(coeffs)))
    backward(loss)

    def f(arrays):
        out = apply_op(kind, Value(arrays[0]), Value(x))
        return tensor.sum_all(tensor.multiply(out, Value(coeffs))).item()

    fd = finite_difference(lambda probes: [f(point) for point in zip(*probes)], [w], step=1e-5)
    assert relative_error(wp.grad, fd[0]) < 1e-4


@pytest.mark.parametrize("kind", ["identity"])
def test_parameter_free_ops_leave_weights_ungradiented(kind):
    rng = np.random.default_rng(3)
    w = Value.param(rng.normal(size=(4, 4)))
    with Tape():
        out = apply_op(kind, None, Value(rng.normal(size=(2, 4))))
        loss = tensor.sum_all(out)
    backward(loss)
    assert w.grad is None  # the pass never recorded w
