from pathlib import Path

import numpy as np
import pytest

from cellsearch.cli import build_problem, load_config
from cellsearch.optim import (
    ADAM_EPS,
    Adam,
    OptimizerError,
    SgdMomentum,
    clip_global_norm,
    flat_norm,
    pack,
    unpack,
)

DESK_CFG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


def vec(*values):
    return np.asarray(values, dtype=np.float64)


def test_sgd_plain_gradient_step():
    opt = SgdMomentum(lr=0.1, momentum=0.0, weight_decay=0.0)
    new = opt.step(vec(1.0), vec(2.0))
    np.testing.assert_allclose(new, [0.8])


def test_sgd_zero_gradient_fixed_point():
    opt = SgdMomentum(lr=0.1, momentum=0.9, weight_decay=0.0)
    p = vec(1.5, -2.0)
    new = opt.step(p, vec(0.0, 0.0))
    np.testing.assert_array_equal(new, p)
    new = opt.step(new, vec(0.0, 0.0))
    np.testing.assert_array_equal(new, p)


def test_sgd_momentum_two_step_hand_unroll():
    # v1 = 1, p1 = -0.1; v2 = 0.9 + 1 = 1.9, p2 = -0.1 - 0.19 = -0.29
    opt = SgdMomentum(lr=0.1, momentum=0.9, weight_decay=0.0)
    p = vec(0.0)
    p = opt.step(p, vec(1.0))
    p = opt.step(p, vec(1.0))
    assert p[0] == pytest.approx(-0.29, abs=1e-15)


def test_sgd_does_not_mutate_inputs():
    opt = SgdMomentum(lr=0.1, momentum=0.9, weight_decay=0.0)
    p = vec(1.0)
    g = vec(2.0)
    opt.step(p, g)
    np.testing.assert_array_equal(p, [1.0])
    np.testing.assert_array_equal(g, [2.0])


def test_sgd_weight_decay_enters_gradient():
    opt = SgdMomentum(lr=1.0, momentum=0.0, weight_decay=0.5)
    new = opt.step(vec(2.0), vec(0.0))
    np.testing.assert_allclose(new, [1.0])  # g_eff = 0.5 * 2


def test_sgd_lookahead_is_the_step_at_its_rate_and_keeps_the_velocity():
    opt = SgdMomentum(lr=0.01, momentum=0.9, weight_decay=0.5)
    p, g = vec(1.0, -2.0), vec(0.5, 3.0)
    for _ in range(2):  # with an empty velocity, then after one step
        before = None if opt.velocity is None else opt.velocity.copy()
        ahead = opt.lookahead(p, g, 0.3)
        if before is None:
            assert opt.velocity is None
        else:
            np.testing.assert_array_equal(opt.velocity, before)
        opt.lr = 0.3
        p = opt.step(p, g)
        np.testing.assert_array_equal(ahead, p)


def test_adam_zero_gradient_first_step_is_identity():
    opt = Adam(lr=0.01, betas=(0.9, 0.999), weight_decay=0.0)
    p = vec(1.0, -3.0)
    new = opt.step(p, vec(0.0, 0.0))
    np.testing.assert_array_equal(new, p)


def test_adam_first_step_magnitude_approaches_lr():
    assert ADAM_EPS == 1e-8
    opt = Adam(lr=3e-4, betas=(0.5, 0.999), weight_decay=0.0)
    p = vec(0.7, -0.2)
    g = vec(0.37, -5.1)
    new = opt.step(p, g)
    steps = np.abs(new - p)
    np.testing.assert_allclose(steps, 3e-4 * np.abs(g) / (np.abs(g) + 1e-8), rtol=1e-8)


def test_adam_first_step_sign_opposes_gradient():
    opt = Adam(lr=0.01, betas=(0.9, 0.999), weight_decay=0.0)
    p = vec(1.0, 1.0, 1.0)
    g = vec(0.3, -2.0, 1e-6)
    new = opt.step(p, g)
    assert np.all(np.sign(new - p) == -np.sign(g))


def test_adam_step_counter_increments():
    opt = Adam(lr=0.01, betas=(0.9, 0.999), weight_decay=0.0)
    p = vec(1.0)
    for expected in (1, 2, 3):
        p = opt.step(p, vec(0.5))
        assert opt.step_count == expected


def test_shape_mismatch_rejected():
    with pytest.raises(OptimizerError, match="shape mismatch"):
        SgdMomentum(lr=0.1, momentum=0.0, weight_decay=0.0).step(vec(1.0, 2.0), vec(1.0))
    with pytest.raises(OptimizerError, match="shape mismatch"):
        SgdMomentum(lr=0.1, momentum=0.0, weight_decay=0.0).lookahead(vec(1.0, 2.0),
                                                                      vec(1.0), 0.1)
    with pytest.raises(OptimizerError, match="shape mismatch"):
        Adam(lr=0.1, betas=(0.9, 0.999), weight_decay=0.0).step(vec(1.0), vec(1.0, 2.0))


def test_clip_global_norm():
    grads = vec(3.0, 4.0)
    clipped, norm = clip_global_norm(grads, 5.0)
    assert norm == pytest.approx(5.0)
    assert clipped is grads
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(clipped, [0.6, 0.8])


def test_pack_and_unpack_keep_the_name_order_and_share_memory():
    params = {"b": np.arange(6.0).reshape(2, 3), "a": np.asarray(7.0), "c": np.ones((1, 2))}
    flat = pack(params.values())
    np.testing.assert_array_equal(flat, [0, 1, 2, 3, 4, 5, 7, 1, 1])
    views = unpack(flat, params)
    assert list(views) == ["b", "a", "c"]
    for name, p in params.items():
        assert views[name].shape == p.shape and np.shares_memory(views[name], flat)
        np.testing.assert_array_equal(views[name], p)
    stacked = {k: np.stack([p, -p]) for k, p in params.items()}
    flat2 = pack(stacked.values(), (2,))
    np.testing.assert_array_equal(flat2, [flat, -flat])
    for name, v in unpack(flat2, stacked).items():
        np.testing.assert_array_equal(v, stacked[name])
    assert flat_norm(vec(3.0, 4.0)) == 5.0


def _sgd_reference(params, grads, velocity, lr, momentum, decay):
    """Momentum SGD name by name, by the formulas of the per-name optimizer."""
    new_velocity = {}
    for name, p in params.items():
        g = grads[name] + decay * p
        v = velocity.get(name)
        new_velocity[name] = g if v is None else momentum * v + g
    return {name: p - lr * new_velocity[name] for name, p in params.items()}, new_velocity


def _adam_reference(params, grads, m, v, t, lr, betas, decay):
    """Adam name by name, by the formulas of the per-name optimizer."""
    c1, c2 = 1.0 - betas[0] ** t, 1.0 - betas[1] ** t
    out = {}
    for name, p in params.items():
        g = grads[name] + decay * p
        m[name] = betas[0] * m.get(name, 0.0) + (1.0 - betas[0]) * g
        v[name] = betas[1] * v.get(name, 0.0) + (1.0 - betas[1]) * g * g
        out[name] = p - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)
    return out


def test_vector_rules_equal_per_name_rules_bit_for_bit():
    weights = build_problem(load_config(DESK_CFG)).init_weights(0)
    assert len(weights) > 3
    rng = np.random.default_rng(0)
    lr, momentum, decay, betas = 0.05, 0.9, 3e-4, (0.5, 0.999)
    sgd = SgdMomentum(lr, momentum=momentum, weight_decay=decay)
    adam = Adam(lr, betas=betas, weight_decay=decay)
    flat_sgd = flat_adam = pack(weights.values())
    ref_sgd = ref_adam = weights
    velocity, m, v = {}, {}, {}
    for t in range(1, 6):  # the first step starts from the empty velocity
        grads = {k: rng.normal(size=w.shape) for k, w in weights.items()}
        flat_grads = pack(grads.values())
        ahead_lr = 0.3 * t
        want_ahead, _ = _sgd_reference(ref_sgd, grads, velocity, ahead_lr, momentum, decay)
        ahead = unpack(sgd.lookahead(flat_sgd, flat_grads, ahead_lr), weights)
        ref_sgd, velocity = _sgd_reference(ref_sgd, grads, velocity, lr, momentum, decay)
        flat_sgd = sgd.step(flat_sgd, flat_grads)
        ref_adam = _adam_reference(ref_adam, grads, m, v, t, lr, betas, decay)
        flat_adam = adam.step(flat_adam, flat_grads)
        for got, want in ((ahead, want_ahead), (unpack(flat_sgd, weights), ref_sgd),
                          (unpack(sgd.velocity, weights), velocity),
                          (unpack(flat_adam, weights), ref_adam),
                          (unpack(adam.m, weights), m), (unpack(adam.v, weights), v)):
            for name in weights:
                assert np.array_equal(got[name], want[name]), (t, name)


def test_flat_norm_equals_the_per_array_norm_within_rounding():
    # one dot product sums in another order than a sum per array, so the two
    # agree to a few units of float64 rounding, not bit for bit
    weights = build_problem(load_config(DESK_CFG)).init_weights(0)
    per_array = np.sqrt(sum(float(np.sum(w * w)) for w in weights.values()))
    assert flat_norm(pack(weights.values())) == pytest.approx(per_array, rel=1e-14, abs=0.0)
