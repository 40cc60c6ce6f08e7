import numpy as np
import pytest

from cellsearch.optim import ADAM_EPS, Adam, OptimizerError, SgdMomentum, clip_global_norm


def params_of(**kwargs):
    return {k: np.asarray(v, dtype=np.float64) for k, v in kwargs.items()}


def test_sgd_plain_gradient_step():
    opt = SgdMomentum(lr=0.1, momentum=0.0, weight_decay=0.0)
    new = opt.step(params_of(p=[1.0]), params_of(p=[2.0]))
    np.testing.assert_allclose(new["p"], [0.8])


def test_sgd_zero_gradient_fixed_point():
    opt = SgdMomentum(lr=0.1, momentum=0.9, weight_decay=0.0)
    p = params_of(p=[1.5, -2.0])
    new = opt.step(p, params_of(p=[0.0, 0.0]))
    np.testing.assert_array_equal(new["p"], p["p"])
    new = opt.step(new, params_of(p=[0.0, 0.0]))
    np.testing.assert_array_equal(new["p"], p["p"])


def test_sgd_momentum_two_step_hand_unroll():
    # v1 = 1, p1 = -0.1; v2 = 0.9 + 1 = 1.9, p2 = -0.1 - 0.19 = -0.29
    opt = SgdMomentum(lr=0.1, momentum=0.9, weight_decay=0.0)
    p = params_of(p=0.0)
    p = opt.step(p, params_of(p=1.0))
    p = opt.step(p, params_of(p=1.0))
    assert p["p"] == pytest.approx(-0.29, abs=1e-15)


def test_sgd_does_not_mutate_inputs():
    opt = SgdMomentum(lr=0.1, momentum=0.9, weight_decay=0.0)
    p = params_of(p=[1.0])
    g = params_of(p=[2.0])
    opt.step(p, g)
    np.testing.assert_array_equal(p["p"], [1.0])
    np.testing.assert_array_equal(g["p"], [2.0])


def test_sgd_weight_decay_enters_gradient():
    opt = SgdMomentum(lr=1.0, momentum=0.0, weight_decay=0.5)
    new = opt.step(params_of(p=[2.0]), params_of(p=[0.0]))
    np.testing.assert_allclose(new["p"], [1.0])  # g_eff = 0.5 * 2


def test_sgd_lookahead_is_the_step_at_its_rate_and_keeps_the_velocity():
    opt = SgdMomentum(lr=0.01, momentum=0.9, weight_decay=0.5)
    p, g = params_of(p=[1.0, -2.0]), params_of(p=[0.5, 3.0])
    for _ in range(2):  # with an empty velocity, then after one step
        before = {k: v.copy() for k, v in opt.velocity.items()}
        ahead = opt.lookahead(p, g, 0.3)
        assert opt.velocity.keys() == before.keys()
        for k, v in before.items():
            np.testing.assert_array_equal(opt.velocity[k], v)
        opt.lr = 0.3
        p = opt.step(p, g)
        np.testing.assert_array_equal(ahead["p"], p["p"])


def test_adam_zero_gradient_first_step_is_identity():
    opt = Adam(lr=0.01, betas=(0.9, 0.999), weight_decay=0.0)
    p = params_of(p=[1.0, -3.0])
    new = opt.step(p, params_of(p=[0.0, 0.0]))
    np.testing.assert_array_equal(new["p"], p["p"])


def test_adam_first_step_magnitude_approaches_lr():
    assert ADAM_EPS == 1e-8
    opt = Adam(lr=3e-4, betas=(0.5, 0.999), weight_decay=0.0)
    p = params_of(p=[0.7, -0.2])
    g = np.array([0.37, -5.1])
    new = opt.step(p, params_of(p=g))
    steps = np.abs(new["p"] - p["p"])
    np.testing.assert_allclose(steps, 3e-4 * np.abs(g) / (np.abs(g) + 1e-8), rtol=1e-8)


def test_adam_first_step_sign_opposes_gradient():
    opt = Adam(lr=0.01, betas=(0.9, 0.999), weight_decay=0.0)
    p = params_of(p=[1.0, 1.0, 1.0])
    g = params_of(p=[0.3, -2.0, 1e-6])
    new = opt.step(p, g)
    assert np.all(np.sign(new["p"] - p["p"]) == -np.sign(g["p"]))


def test_adam_step_counter_increments():
    opt = Adam(lr=0.01, betas=(0.9, 0.999), weight_decay=0.0)
    p = params_of(p=[1.0])
    for expected in (1, 2, 3):
        p = opt.step(p, params_of(p=[0.5]))
        assert opt.step_count == expected


def test_shape_mismatch_rejected():
    with pytest.raises(OptimizerError, match="shape mismatch"):
        SgdMomentum(lr=0.1, momentum=0.0, weight_decay=0.0).step(params_of(p=[1.0, 2.0]),
                                                                 params_of(p=[1.0]))
    with pytest.raises(OptimizerError, match="keys differ"):
        Adam(lr=0.1, betas=(0.9, 0.999), weight_decay=0.0).step(params_of(p=[1.0]),
                                                                params_of(q=[1.0]))


def test_clip_global_norm():
    grads = params_of(a=[3.0], b=[4.0])
    clipped, norm = clip_global_norm(grads, 5.0)
    assert norm == pytest.approx(5.0)
    assert clipped is grads
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(clipped["a"], [0.6])
    np.testing.assert_allclose(clipped["b"], [0.8])
