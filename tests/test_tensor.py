import numpy as np
import pytest

from cellsearch import tensor
from cellsearch.gradcheck import _case_for, _scalarize, check_all_primitives, check_kind
from cellsearch.tensor import (
    ShapeError,
    Tape,
    TapeError,
    Value,
    backward,
    cross_entropy,
    finite_difference,
    matmul,
    relative_error,
    softmax,
)


def test_add_elementwise():
    out = tensor.add(Value([1.0, 2.0]), Value([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_softmax_uniform_logits():
    out = softmax(Value([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_matmul_identity():
    m = np.array([[1.5, -2.0], [0.25, 7.0]])
    out = matmul(Value(np.eye(2)), Value(m))
    np.testing.assert_array_equal(out.data, m)


def test_backward_quadratic():
    w = Value.param([1.0, -2.0])
    with Tape():
        loss = tensor.sum_all(tensor.multiply(w, w))
    backward(loss)
    np.testing.assert_allclose(w.grad, [2.0, -4.0], rtol=0, atol=1e-15)


def test_backward_through_tanh_zero():
    c = Value.param(3.0)
    with Tape():
        loss = tensor.multiply(tensor.tanh(Value(0.0)), c)
    backward(loss)
    assert c.grad == pytest.approx(0.0, abs=0.0)


def test_backward_two_layer_network_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    w1 = rng.normal(size=(3, 5))
    w2 = rng.normal(size=(5, 2))
    target = rng.normal(size=(4, 2))

    def run(arrays):
        v1, v2 = Value(arrays[0]), Value(arrays[1])
        hidden = tensor.tanh(matmul(Value(x), v1))
        return tensor.mse_loss(matmul(hidden, v2), Value(target)).item()

    with Tape():
        p1, p2 = Value.param(w1), Value.param(w2)
        hidden = tensor.tanh(matmul(Value(x), p1))
        loss = tensor.mse_loss(matmul(hidden, p2), Value(target))
    backward(loss)

    fd = finite_difference(lambda probes: [run(point) for point in zip(*probes)], [w1, w2],
                           step=1e-5)
    assert relative_error(p1.grad, fd[0]) < 1e-4
    assert relative_error(p2.grad, fd[1]) < 1e-4


def test_backward_rejects_loss_of_rank_two_or_more():
    for shape in [(2, 1), (1, 2, 2)]:
        w = Value.param(np.ones(shape))
        with Tape():
            out = tensor.multiply(w, w)
        with pytest.raises(TapeError, match="scalar"):
            backward(out)


def test_backward_seeds_every_slice_of_a_stacked_loss():
    w = Value.param([1.0, 2.0, -3.0])
    with Tape():
        out = tensor.multiply(w, w)
    backward(out)
    np.testing.assert_array_equal(w.grad, [2.0, 4.0, -6.0])


# --- the slice axis: each slice of a stacked pass is bit-identical to the
# same pass on that slice alone; a shared operand's gradient sums the slices'.


def stacked_and_per_slice(build, stacked, shared=()):
    """Run ``build`` once on the stacked arrays and once per slice; return the
    stacked loss and gradients and the per-slice ones, slices along axis 0.
    Arrays in ``shared`` have no slice axis and every slice uses them."""
    def run(arrays, fixed):
        with Tape():
            params = [Value.param(a) for a in (*arrays, *fixed)]
            loss = build(*params)
        backward(loss)
        return loss.data, [p.grad for p in params]

    loss, grads = run(stacked, shared)
    per = [run([a[s] for a in stacked], shared) for s in range(len(stacked[0]))]
    per_loss = np.stack([p[0] for p in per])
    per_grads = [np.stack([p[1][k] for p in per]) for k in range(len(grads))]
    for k in range(len(stacked), len(grads)):
        per_grads[k] = per_grads[k].sum(axis=0)
    return (loss, grads), (per_loss, per_grads)


def assert_bit_identical(stacked, per_slice):
    (loss, grads), (per_loss, per_grads) = stacked, per_slice
    assert loss.shape == per_loss.shape and np.array_equal(loss, per_loss)
    for g, ref in zip(grads, per_grads):
        assert g.shape == ref.shape and np.array_equal(g, ref)


def summed(out, coeffs):
    return tensor.sum_all(tensor.multiply(out, coeffs), axis=(-2, -1))


def test_stacked_matmul_slices_bit_identical():
    rng = np.random.default_rng(31)
    for _ in range(40):
        s, n, k, m = (int(rng.integers(1, 7)) for _ in range(4))
        a, b = rng.normal(size=(s, n, k)), rng.normal(size=(s, k, m))
        coeffs = rng.normal(size=(s, n, m))
        assert_bit_identical(*stacked_and_per_slice(
            lambda a, b, c: summed(matmul(a, b), c), [a, b, coeffs]))
        # a shared left operand (the stems' features) and a shared right one
        assert_bit_identical(*stacked_and_per_slice(
            lambda b, c, a0: summed(matmul(a0, b), c), [b, coeffs], shared=[a[0]]))
        assert_bit_identical(*stacked_and_per_slice(
            lambda a, c, b0: summed(matmul(a, b0), c), [a, coeffs], shared=[b[0]]))


def test_matmul_rejects_unequal_slice_counts():
    with pytest.raises(ShapeError, match="matrix-multiply"):
        matmul(Value(np.ones((2, 3, 4))), Value(np.ones((3, 4, 5))))


def test_stacked_cross_entropy_slices_bit_identical():
    rng = np.random.default_rng(32)
    for _ in range(20):
        s, batch, classes = (int(rng.integers(1, 7)), int(rng.integers(1, 20)),
                             int(rng.integers(2, 5)))
        logits = rng.normal(scale=3.0, size=(s, batch, classes))
        labels = rng.integers(0, classes, size=batch)
        assert_bit_identical(*stacked_and_per_slice(
            lambda z: cross_entropy(z, labels), [logits]))


def test_sum_over_row_axes_bit_identical_to_whole_sum():
    rng = np.random.default_rng(33)
    for _ in range(20):
        x = rng.normal(size=(int(rng.integers(1, 6)), 1, int(rng.integers(1, 40))))
        stacked = tensor.sum_all(Value(x), axis=(-2, -1)).data
        assert np.array_equal(stacked, [tensor.sum_all(Value(row)).data for row in x])
        assert_bit_identical(*stacked_and_per_slice(
            lambda v: tensor.sum_all(v, axis=(-2, -1)), [x]))
    with pytest.raises(ShapeError, match="sum"):
        tensor.sum_all(Value(np.ones((2, 3))), axis=(-3, -1))


def test_backward_requires_tape():
    loss = tensor.sum_all(Value.param([1.0]))
    with pytest.raises(TapeError, match="not recorded"):
        backward(loss)


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(TapeError, match="already active"):
            with Tape():
                pass


def test_cross_tape_values_rejected():
    w = Value.param([1.0, 2.0])
    with Tape():
        mid = tensor.multiply(w, w)
    with pytest.raises(TapeError, match="different tape"):
        with Tape():
            tensor.sum_all(mid)


def test_shape_mismatch_diagnostic_names_primitive_and_shapes():
    with pytest.raises(ShapeError, match=r"matrix-multiply.*\(2, 3\).*\(2, 3\)"):
        matmul(Value(np.zeros((2, 3))), Value(np.zeros((2, 3))))
    with pytest.raises(ShapeError, match=r"add.*\(2,\).*\(3,\)"):
        tensor.add(Value([1.0, 2.0]), Value([1.0, 2.0, 3.0]))


def test_concatenate_joins_the_last_axis_of_one_leading_shape():
    out = tensor.concatenate([Value(np.ones((2, 1))), Value(np.zeros((2, 3)))])
    np.testing.assert_array_equal(out.data, [[1.0, 0.0, 0.0, 0.0]] * 2)
    with pytest.raises(ShapeError, match=r"concatenate.*\(2, 3\).*\(3, 3\)"):
        tensor.concatenate([Value(np.ones((2, 3))), Value(np.ones((3, 3)))])
    with pytest.raises(ShapeError, match="concatenate"):
        tensor.concatenate([Value(np.ones(2)), Value(1.0)])


def test_scalar_broadcast_allowed_only_for_zero_dim():
    out = tensor.add(Value(np.ones((2, 3))), Value(2.0))
    np.testing.assert_array_equal(out.data, np.full((2, 3), 3.0))
    with pytest.raises(ShapeError):
        tensor.add(Value(np.ones((2, 3))), Value(np.ones(3)))


def test_scalar_broadcast_gradients_sum_over_tensor():
    s = Value.param(2.0)
    t = Value.param([1.0, 2.0, 3.0])
    with Tape():
        loss = tensor.sum_all(tensor.multiply(s, t))
    backward(loss)
    assert s.grad == pytest.approx(6.0)
    np.testing.assert_allclose(t.grad, [2.0, 2.0, 2.0])


def test_non_parameter_leaves_untouched():
    c = Value([5.0])
    w = Value.param([2.0])
    with Tape():
        loss = tensor.sum_all(tensor.multiply(c, w))
    backward(loss)
    assert c.grad is None
    np.testing.assert_allclose(w.grad, [5.0])


def test_param_reusable_across_sequential_tapes():
    w = Value.param([3.0])
    for _ in range(2):
        with Tape():
            loss = tensor.sum_all(tensor.multiply(w, w))
        backward(loss)
        np.testing.assert_allclose(w.grad, [6.0])


def test_tape_records_in_execution_order():
    w = Value.param([1.0, 2.0])
    with Tape() as tape:
        h = tensor.multiply(w, w)
        tensor.sum_all(h)
    assert [kind for kind, *_ in tape.records] == ["elementwise-multiply", "sum"]
    assert tape.params == (w,)


def test_tape_params_derived_in_first_use_order_without_repeats():
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(2, 2)) for _ in range(3)]
    c = Value(rng.normal(size=(2, 2)))

    a, b, d = (Value.param(x.copy()) for x in arrays)
    with Tape() as tape:
        h = tensor.multiply(tensor.tanh(matmul(b, c)), a)
        h = tensor.add(matmul(h, d), tensor.sigmoid(b))
        tensor.sum_all(h)
    assert tape.params == (b, a, d)


def test_backward_replayable_bit_identical():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4))
    w_arr = rng.normal(size=(4, 4))
    grads = []
    for _ in range(2):
        w = Value.param(w_arr.copy())
        with Tape():
            loss = tensor.sum_all(tensor.sigmoid(matmul(Value(x.copy()), w)))
        backward(loss)
        grads.append(w.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_backward_linearity():
    rng = np.random.default_rng(3)
    w_arr = rng.normal(size=(4,))
    a, b = 2.5, -1.25

    def grad_of(scale_f, scale_g):
        w = Value.param(w_arr.copy())
        with Tape():
            f = tensor.sum_all(tensor.multiply(w, w))
            g = tensor.sum_all(tensor.tanh(w))
            loss = tensor.add(tensor.scale(f, scale_f), tensor.scale(g, scale_g))
        backward(loss)
        return w.grad

    combined = grad_of(a, b)
    expected = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    np.testing.assert_allclose(combined, expected, rtol=1e-13)


def test_cross_entropy_matches_manual_nll():
    logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
    labels = np.array([0, 1])
    with Tape() as tape:
        loss = cross_entropy(Value.param(logits), labels)
    assert [len(inputs) for _, inputs, *_ in tape.records] == [1]  # labels are no input
    expected = -(np.log(0.7) + np.log(0.8)) / 2.0
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_unreached_parameter_gets_zero_gradient():
    w = Value.param([1.0, 2.0])
    o = Value.param([3.0])
    with Tape():
        dead = tensor.sum_all(o)  # registers o on the tape
        loss = tensor.sum_all(tensor.multiply(w, w))
    del dead
    backward(loss)
    np.testing.assert_array_equal(o.grad, [0.0])


def test_second_backward_on_consumed_tape_rejected():
    w = Value.param([1.0, 2.0])
    with Tape() as tape:
        loss = tensor.sum_all(tensor.multiply(w, w))
    backward(loss)
    assert tape.records == [] and tape.params == ()
    with pytest.raises(TapeError, match="consumed"):
        backward(loss)


def test_requires_grad_set_at_record_time():
    w = Value.param([1.0, 2.0])
    c = Value([3.0, 4.0])
    with Tape() as tape:
        const_only = tensor.multiply(c, c)
        mixed = tensor.multiply(const_only, w)
    assert w.requires_grad and not c.requires_grad
    assert not const_only.requires_grad and mixed.requires_grad
    assert [need for *_, need in tape.records] == [(False, False), (False, True)]


def rule_inputs():
    """Pre-activations with both signed zeros, both saturated ends and random values."""
    rng = np.random.default_rng(11)
    return np.concatenate([[0.0, -0.0, 40.0, -40.0], rng.normal(scale=3.0, size=20)]).reshape(4, 6)


@pytest.mark.parametrize("kind", list(tensor.ACTIVATION_RULES))
def test_activation_rule_writes_the_same_bits_into_a_strided_slab(kind):
    forward, derivative = tensor.ACTIVATION_RULES[kind]
    z = rule_inputs()
    y = forward(z)
    for fn, args, want in [(forward, (z,), y), (derivative, (z, y), derivative(z, y))]:
        big = np.full((3, 4, 2, 6), np.nan)
        slab = big[1, :, 0, :]
        assert fn(*args, out=slab) is slab
        assert slab.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
        assert np.isnan(big).sum() == big.size - slab.size


@pytest.mark.parametrize("kind, gradient", [
    ("tanh", lambda g, z, y: g * (1.0 - y * y)),
    ("relu", lambda g, z, y: g * (z > 0.0)),
])
def test_tanh_and_relu_primitives_keep_their_bits(kind, gradient):
    z = rule_inputs()
    g = np.random.default_rng(12).normal(size=z.shape)
    x = Value.param(z)
    with Tape():
        out = tensor.PRIMITIVES[kind](x)
        loss = tensor.sum_all(tensor.multiply(out, Value(g)))
    backward(loss)
    y = np.tanh(z) if kind == "tanh" else np.where(z > 0.0, z, 0.0)
    assert out.data.tobytes() == y.tobytes()
    assert x.grad.tobytes() == gradient(g, z, y).tobytes()


@pytest.mark.parametrize("kind", sorted(tensor.PRIMITIVES))
def test_single_parameter_gradient_bit_identical_to_all_parameter_gradient(kind):
    rng = np.random.default_rng(17)
    for _ in range(5):
        arrays, fn = _case_for(kind, rng)
        with Tape():
            params = [Value.param(a) for a in arrays]
            out = fn(params)
            coeffs = rng.normal(size=out.shape)
            loss = _scalarize(out, coeffs)
        backward(loss)
        for k, expected in enumerate(p.grad for p in params):
            with Tape():
                inputs = [Value.param(a) if i == k else Value(a) for i, a in enumerate(arrays)]
                loss = _scalarize(fn(inputs), coeffs)
            backward(loss)
            assert np.array_equal(inputs[k].grad, expected), (kind, k)


@pytest.mark.parametrize("kind", sorted(tensor.PRIMITIVES))
def test_gradcheck_every_primitive(kind):
    report = check_kind(kind, seed=100, cases=20)
    assert report.passed, f"{kind}: max relative error {report.max_error:.3e}"


def test_gradcheck_suite_runs_all_kinds():
    reports = check_all_primitives(seed=5, cases_per_kind=5)
    assert {r.name for r in reports} == set(tensor.PRIMITIVES)
    assert all(r.passed for r in reports)
