import numpy as np
import pytest

from cellsearch import tensor
from cellsearch.ops import (
    NON_ZERO_OPS,
    OP_ORDER,
    PARAMETERIZED_OPS,
    OpError,
    apply_op,
    init_linear,
    init_scale,
)
from cellsearch.tensor import Tape, Value, backward, finite_difference, relative_error


def test_registry_order_is_fixed():
    assert OP_ORDER == ("zero", "identity", "linear_tanh", "linear_relu", "linear_sigmoid")
    assert NON_ZERO_OPS == OP_ORDER[1:]


def test_zero_op_outputs_zeros():
    x = Value(np.random.default_rng(0).normal(size=(3, 4)))
    out = apply_op("zero", None, x)
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_identity_op_returns_input():
    x = Value([[1.0, 2.0]])
    assert apply_op("identity", None, x) is x


def test_linear_tanh_with_zero_weights_is_zero():
    x = Value([[0.3, -0.7]])
    out = apply_op("linear_tanh", Value(np.zeros((2, 2))), x)
    np.testing.assert_array_equal(out.data, np.zeros((1, 2)))


def test_parameterized_kind_requires_weights():
    with pytest.raises(OpError, match="requires a weight matrix"):
        apply_op("linear_relu", None, Value([[1.0]]))


def test_unknown_kind_rejected():
    with pytest.raises(OpError, match="unknown operation"):
        apply_op("max_pool", None, Value([[1.0]]))


def test_vector_inputs_must_be_rows():
    with pytest.raises(OpError, match="rows of vectors"):
        apply_op("zero", None, Value([1.0, 2.0]))


def test_init_scale_rule():
    assert init_scale(4) == pytest.approx(0.5)
    assert init_scale(16) == pytest.approx(0.25)


def test_init_linear_uses_fan_in():
    w = init_linear(np.random.default_rng(1), 16, 3)
    assert w.shape == (16, 3)
    assert np.max(np.abs(w)) <= 0.25


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

    fd = finite_difference(f, [w], step=1e-5)
    assert relative_error(wp.grad, fd[0]) < 1e-4


@pytest.mark.parametrize("kind", ["zero", "identity"])
def test_parameter_free_ops_leave_weights_ungradiented(kind):
    rng = np.random.default_rng(3)
    w = Value.param(rng.normal(size=(4, 4)))
    with Tape():
        out = apply_op(kind, None, Value(rng.normal(size=(2, 4))))
        loss = tensor.sum_all(out)
    backward(loss, wrt=[w])
    np.testing.assert_array_equal(w.grad, np.zeros((4, 4)))
