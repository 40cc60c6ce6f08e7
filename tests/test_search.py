import dataclasses
import gc
import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from cellsearch.cell import CellSpec, Genotype, sample_genotype
from cellsearch.cli import (
    build_problem,
    cell_spec_from,
    data_config_from,
    load_config,
    search_config_from,
)
from cellsearch.fidelity import (
    QuadraticBilevelProblem,
    check_networks_eps_rule,
    check_quadratics_exact_hvp,
    fd_unrolled_gradient,
    flatten,
    make_tiny_cell_task,
    network_problems,
    unrolled_objective,
)
from cellsearch.optim import Adam, SgdMomentum
from cellsearch.search import (
    HVP_EPSILON_SCALE,
    CandidateResult,
    EvalCounters,
    NumericalError,
    Ranking,
    SearchConfig,
    _grads_from,
    _make_arch_optimizer,
    arch_gradient_first_order,
    arch_gradient_second_order,
    desk_search_config,
    hvp_finite_difference,
    loss_and_grads,
    loss_value,
    random_search,
    search,
    select_architecture,
    toy_search_config,
    train_genotype,
    unrolled_weights,
)
from cellsearch.tasks import DataConfig, SyntheticCellTask, ToyBilevelTask
from cellsearch.tensor import Tape, Value, backward, finite_difference, relative_error, scale
from test_tasks import toy_losses

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DESK_CFG = CONFIGS / "desk.cfg"


@pytest.fixture(scope="module")
def toy():
    return ToyBilevelTask()


def toy_state(alpha=2.0, w=-2.0):
    return {"w": np.asarray(w)}, {"alpha": np.asarray(alpha)}


@pytest.fixture(scope="module")
def small_task():
    cfg = DataConfig(n=240, dims=4, classes=2, noise=0.6, seed=13)
    return SyntheticCellTask(cfg.build(), CellSpec(nodes=5, input_arity=2, hidden=4, k=2))


@pytest.fixture(scope="module")
def desk():
    cfg = load_config(DESK_CFG)
    return build_problem(cfg), search_config_from({**cfg, "steps": 5, "eval_steps": 5})


# --- unrolled weights ---------------------------------------------------------


def test_unrolled_weights_toy_example(toy):
    weights, alpha = toy_state()
    stepped = unrolled_weights(toy, weights, alpha, 0.1, None)
    assert stepped["w"] == pytest.approx(-1.2)
    assert weights["w"] == pytest.approx(-2.0)  # untouched


def test_unrolled_weights_zero_step_is_identity(toy):
    weights, alpha = toy_state()
    stepped = unrolled_weights(toy, weights, alpha, 0.0, None)
    assert stepped["w"] == pytest.approx(-2.0)
    assert stepped["w"] is not weights["w"]


def test_unrolled_weights_fixed_point_at_inner_optimum(toy):
    weights, alpha = toy_state(alpha=1.7, w=1.7)
    stepped = unrolled_weights(toy, weights, alpha, 0.3, None)
    assert stepped["w"] == pytest.approx(1.7)


def test_unrolled_weights_momentum_composite(toy):
    weights, alpha = toy_state()
    optimizer = SgdMomentum(0.025, momentum=0.9, weight_decay=0.0)
    optimizer.velocity = {"w": np.asarray(3.0)}
    stepped = unrolled_weights(toy, weights, alpha, 0.1, None, optimizer=optimizer)
    # gradient is 2w - 2a = -8; composite step uses 0.9*3 + (-8) = -5.3
    assert stepped["w"] == pytest.approx(-2.0 - 0.1 * (-5.3))


def test_unrolled_weights_rejects_negative_step(toy):
    weights, alpha = toy_state()
    with pytest.raises(ValueError, match="non-negative"):
        unrolled_weights(toy, weights, alpha, -0.1, None)


# --- first-order gradient -----------------------------------------------------


def test_first_order_gradient_toy_example(toy):
    weights, alpha = toy_state()
    grads, val_loss = arch_gradient_first_order(toy, weights, alpha, None)
    assert grads["alpha"] == pytest.approx(-4.0)
    assert val_loss == pytest.approx(-7.0)


def test_first_order_gradient_vanishes_when_val_loss_alpha_independent(toy):
    weights, alpha = toy_state(alpha=0.3, w=2.0)  # d(val)/da = w - 2 = 0
    grads, _ = arch_gradient_first_order(toy, weights, alpha, None)
    assert grads["alpha"] == pytest.approx(0.0, abs=0.0)


def test_second_order_with_zero_unroll_equals_first_order_bitwise(small_task):
    rng = np.random.default_rng(4)
    weights = small_task.init_weights(4)
    alpha = {k: rng.normal(size=v.shape) for k, v in small_task.init_alpha().items()}
    val_batch = small_task.batch("val", 16, np.random.default_rng(1))
    train_batch = small_task.batch("train", 16, np.random.default_rng(2))
    first, _ = arch_gradient_first_order(small_task, weights, alpha, val_batch)
    second, info = arch_gradient_second_order(small_task, weights, alpha, 0.0,
                                              train_batch, val_batch)
    assert info.epsilon is None
    for k in first:
        assert np.array_equal(first[k], second[k])


def test_zero_step_gradient_is_the_pass_of_the_architecture_split(toy):
    weights, alpha = toy_state()
    grads, info = arch_gradient_second_order(toy, weights, alpha, 0.0, None, None,
                                             split="joint")
    loss, _, expected = loss_and_grads(toy, "joint", weights, alpha, None, wrt=("alpha",))
    assert info.epsilon is None and info.val_loss == loss
    assert np.array_equal(grads["alpha"], expected["alpha"])
    val_grads, _ = arch_gradient_second_order(toy, weights, alpha, 0.0, None, None)
    assert not np.array_equal(grads["alpha"], val_grads["alpha"])


# --- finite-difference correction product ------------------------------------


@pytest.mark.parametrize("epsilon", [1e-6, 1e-4, 1e-2, 1e-1])
def test_hvp_on_quadratic_toy_is_exact_for_any_epsilon(toy, epsilon):
    weights, alpha = toy_state(alpha=1.3, w=0.4)
    for v in (2.0, -0.7, 11.0):
        out = hvp_finite_difference(toy, weights, alpha, {"w": np.asarray(v)},
                                    None, epsilon)
        assert out["alpha"] == pytest.approx(-2.0 * v, rel=1e-9, abs=1e-9)


def test_hvp_zero_vector_gives_zero(toy):
    weights, alpha = toy_state()
    out = hvp_finite_difference(toy, weights, alpha, {"w": np.asarray(0.0)}, None, 0.01)
    assert out["alpha"] == pytest.approx(0.0, abs=0.0)


def test_hvp_rejects_a_step_below_the_rounding_spacing_of_the_weights(toy):
    # np.spacing(1e12) is 1.2e-4, so w +/- 1e-10 rounds back to w and the
    # difference would read 0 against a true -2
    with pytest.raises(NumericalError, match="below the weights' rounding spacing"):
        hvp_finite_difference(toy, {"w": 1e12}, {"alpha": 2.0}, {"w": 1.0}, None, 1e-10)


def test_hvp_rejects_nonpositive_epsilon(toy):
    weights, alpha = toy_state()
    with pytest.raises(ValueError, match="positive"):
        hvp_finite_difference(toy, weights, alpha, {"w": np.asarray(1.0)}, None, 0.0)


def test_hvp_leaves_weights_bit_identical(small_task):
    rng = np.random.default_rng(8)
    weights = small_task.init_weights(8)
    before = {k: v.tobytes() for k, v in weights.items()}
    alpha = small_task.init_alpha()
    vector = {k: rng.normal(size=v.shape) for k, v in weights.items()}
    batch = small_task.batch("train", 16, rng)
    hvp_finite_difference(small_task, weights, alpha, vector, batch, 0.01)
    assert {k: v.tobytes() for k, v in weights.items()} == before


def hvp_nested_fd(problem, weights, alpha, vector, train_batch, step=1e-6):
    """Loss-only oracle for the mixed second-derivative product.

    The inner alpha-gradient is itself a central difference of the training
    loss, its probes run as one stacked forward pass, so no reverse-mode code
    is exercised anywhere.
    """
    keys = list(alpha)

    def alpha_grad_fd(at_weights):
        def train_loss(probes):
            stacked = {k: np.broadcast_to(w, (len(probes[0]), *w.shape))
                       for k, w in at_weights.items()}
            return loss_value(problem, "train", stacked, dict(zip(keys, probes)), train_batch)

        return dict(zip(keys, finite_difference(train_loss, [alpha[k] for k in keys],
                                                step=step)))

    plus = {k: w + step * vector[k] for k, w in weights.items()}
    minus = {k: w - step * vector[k] for k, w in weights.items()}
    g_plus = alpha_grad_fd(plus)
    g_minus = alpha_grad_fd(minus)
    return {k: (g_plus[k] - g_minus[k]) / (2.0 * step) for k in alpha}


def test_hvp_matches_nested_loss_only_oracle(small_task):
    rng = np.random.default_rng(21)
    weights = small_task.init_weights(21)
    alpha = {k: rng.normal(scale=0.5, size=v.shape)
             for k, v in small_task.init_alpha().items()}
    batch = small_task.batch("train", 24, rng)
    _, val_grads, _ = loss_and_grads(small_task, "val", weights, alpha,
                                     small_task.batch("val", 24, rng), wrt=("weights", "alpha"))
    # the product is linear in the vector; a unit direction scaled up keeps the
    # loss-only oracle's rounding noise small relative to the result
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in val_grads.values()))
    vector = {k: g * (10.0 / norm) for k, g in val_grads.items()}
    fast = hvp_finite_difference(small_task, weights, alpha, vector, batch, 1e-4)
    oracle = hvp_nested_fd(small_task, weights, alpha, vector, batch, step=1e-6)
    assert relative_error(flatten(fast), flatten(oracle)) < 1e-3


# --- second-order gradient ----------------------------------------------------


def test_second_order_gradient_toy_example(toy):
    weights, alpha = toy_state()
    grads, info = arch_gradient_second_order(toy, weights, alpha, 0.1, None, None)
    assert grads["alpha"] == pytest.approx(-2.8, rel=1e-9)
    assert info.val_loss == pytest.approx(toy_losses(2.0, -1.2)[1])


@pytest.mark.parametrize("alpha0,w0", [(2.0, -2.0), (0.4, 1.9), (-1.0, 3.0)])
def test_second_order_with_curvature_matched_step_is_exact_hypergradient(toy, alpha0, w0):
    # one lookahead step with lr 0.5 lands on the inner optimum w = a, where
    # the outer objective is (a - 1)^2 with gradient 2 (a - 1)
    weights, alpha = toy_state(alpha=alpha0, w=w0)
    grads, _ = arch_gradient_second_order(toy, weights, alpha, 0.5, None, None)
    assert grads["alpha"] == pytest.approx(2.0 * (alpha0 - 1.0), rel=1e-9)


def test_second_order_epsilon_rule(toy):
    weights, alpha = toy_state(alpha=0.5, w=0.1)  # val gradient over w' is a = 0.5
    _, info = arch_gradient_second_order(toy, weights, alpha, 0.1, None, None)
    assert info.epsilon == pytest.approx(HVP_EPSILON_SCALE / 0.5)


def test_second_order_epsilon_scale_defaults_to_the_search_configs(toy):
    # no config field sets the scale: every search steps at the one constant
    assert not any("epsilon" in f.name for f in dataclasses.fields(SearchConfig))
    for config in (SearchConfig(steps=1), toy_search_config(steps=1),
                   dataclasses.replace(desk_search_config(), steps=1)):
        traj = search(config, toy)
        # the first step's val gradient over w' is the starting logit a = 2
        assert traj.records[0].hvp_epsilon == pytest.approx(HVP_EPSILON_SCALE / 2.0)


def test_second_order_skips_correction_for_vanishing_val_gradient(toy):
    weights, alpha = toy_state(alpha=0.0, w=1.0)  # val gradient over w' is a = 0
    grads, info = arch_gradient_second_order(toy, weights, alpha, 0.1, None, None)
    assert info.correction_skipped
    assert info.epsilon is None
    # falls back to the lookahead validation gradient: w' - 2
    stepped = unrolled_weights(toy, weights, alpha, 0.1, None)
    assert grads["alpha"] == pytest.approx(float(stepped["w"]) - 2.0)


def test_arch_gradients_leave_weights_bit_identical(small_task):
    weights = small_task.init_weights(3)
    before = {k: v.tobytes() for k, v in weights.items()}
    alpha = small_task.init_alpha()
    rng = np.random.default_rng(0)
    arch_gradient_second_order(small_task, weights, alpha, 0.05,
                               small_task.batch("train", 8, rng),
                               small_task.batch("val", 8, rng))
    arch_gradient_first_order(small_task, weights, alpha,
                              small_task.batch("val", 8, rng))
    assert {k: v.tobytes() for k, v in weights.items()} == before


def test_second_order_costs_exactly_two_extra_alpha_gradients(small_task):
    weights = small_task.init_weights(5)
    alpha = small_task.init_alpha()
    rng = np.random.default_rng(5)
    train_batch = small_task.batch("train", 8, rng)
    val_batch = small_task.batch("val", 8, rng)

    c_first = EvalCounters()
    arch_gradient_first_order(small_task, weights, alpha, val_batch, counters=c_first)
    c_second = EvalCounters()
    arch_gradient_second_order(small_task, weights, alpha, 0.05, train_batch,
                               val_batch, counters=c_second)

    assert c_first.alpha_grad_evals == 1
    assert c_second.alpha_grad_evals == 3
    assert c_second.alpha_grad_evals - c_first.alpha_grad_evals == 2
    assert c_second.backward_passes == 4


# --- the search loop ----------------------------------------------------------


def test_search_records_the_cosine_annealed_weight_rate(toy):
    config = dataclasses.replace(toy_search_config(steps=7), anneal=True)
    rates = [r.weight_lr for r in search(config, toy).records]
    assert rates == [0.5 * 0.5 * (1 + math.cos(math.pi * t / 7)) for t in range(7)]
    assert rates[0] == config.weight_lr
    assert all(a > b > 0 for a, b in zip(rates, rates[1:]))
    constant = search(dataclasses.replace(config, anneal=False), toy).records
    assert [r.weight_lr for r in constant] == [config.weight_lr] * 7


def test_default_unroll_step_follows_the_annealed_rate(toy, monkeypatch):
    search_module = importlib.import_module("cellsearch.search")  # the package rebinds .search
    original, unroll_rates = search_module.arch_gradient_second_order, []

    def spied(problem, weights, alpha, unroll_lr, *args, **kwargs):
        unroll_rates.append(unroll_lr)
        return original(problem, weights, alpha, unroll_lr, *args, **kwargs)

    monkeypatch.setattr(search_module, "arch_gradient_second_order", spied)
    traj = search(dataclasses.replace(toy_search_config(steps=6), anneal=True), toy)
    assert unroll_rates == [r.weight_lr for r in traj.records]
    assert unroll_rates[0] > unroll_rates[-1] > 0


def test_architecture_adam_takes_the_papers_betas():
    opt = _make_arch_optimizer(desk_search_config())
    assert isinstance(opt, Adam)
    assert (opt.beta1, opt.beta2) == (0.5, 0.999)
    for name, kind in (("adam", Adam), ("sgd", SgdMomentum)):
        config = dataclasses.replace(desk_search_config(), arch_optimizer=name,
                                     weight_decay_alpha=0.25)
        opt = _make_arch_optimizer(config)
        assert isinstance(opt, kind) and opt.weight_decay == 0.25


class ZeroAlphaToy(ToyBilevelTask):
    """The toy problem started at alpha = 0, where d(val loss)/dw = alpha vanishes."""

    def init_alpha(self):
        return {"alpha": np.asarray(0.0)}


def test_vanishing_val_gradient_skips_correction_and_records_event():
    traj = search(toy_search_config(steps=2), ZeroAlphaToy())
    assert traj.events == ["iter 0: correction skipped, vanishing val gradient"]
    assert traj.records[0].hvp_epsilon is None
    assert traj.records[1].hvp_epsilon is not None


def test_search_is_deterministic(small_task):
    config = SearchConfig(mode="second-order", steps=8, batch_size=12, seed=3,
                          weight_lr=0.05, arch_lr=1e-3, eval_steps=0)
    t1 = search(config, small_task)
    t2 = search(config, small_task)
    assert len(t1.records) == len(t2.records)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.train_loss == r2.train_loss
        assert r1.val_loss == r2.val_loss
        assert r1.hvp_epsilon == r2.hvp_epsilon
    for k in t1.final_alpha:
        assert np.array_equal(t1.final_alpha[k], t2.final_alpha[k])
    assert t1.genotype == t2.genotype


def test_search_trajectory_invariants(small_task):
    config = SearchConfig(mode="second-order", steps=6, batch_size=8, seed=0,
                          weight_lr=0.05)
    traj = search(config, small_task)
    iters = [r.iteration for r in traj.records]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    for r in traj.records:
        assert np.isfinite(r.train_loss) and np.isfinite(r.val_loss)
    assert traj.genotype is not None


def test_search_keeps_a_snapshot_every_n_iterations(small_task):
    config = SearchConfig(mode="first-order", steps=3, batch_size=8, seed=0, snapshot_every=2)
    traj = search(config, small_task)
    assert sorted(traj.snapshots) == [0, 2]
    # the logits after iteration 0 do not depend on the budget
    after_first = search(dataclasses.replace(config, steps=1), small_task).final_alpha
    for t, expected in ((0, after_first), (2, traj.final_alpha)):
        assert traj.snapshots[t].keys() == expected.keys()
        for k in expected:
            assert np.array_equal(traj.snapshots[t][k], expected[k])
            assert traj.snapshots[t][k] is not expected[k]
    assert search(dataclasses.replace(config, snapshot_every=0), small_task).snapshots == {}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_search_divergence_aborts_with_partial_trajectory(small_task):
    config = SearchConfig(mode="first-order", steps=50, batch_size=8, seed=0,
                          weight_lr=1e9, clip_norm=None, anneal=False)
    traj = search(config, small_task)
    assert traj.diverged
    assert len(traj.records) < 50
    assert traj.genotype is None
    assert any("diverged" in e for e in traj.events)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("mode", ["first-order", "joint"])
def test_overflowing_weight_gradient_norm_stops_the_search(small_task, mode):
    # finite gradients whose norm overflows would be clipped to a zero step
    config = SearchConfig(mode=mode, steps=50, batch_size=8, seed=0,
                          weight_lr=1e9, anneal=False)
    traj = search(config, small_task)
    assert traj.diverged and len(traj.records) == 10
    assert traj.events[-1] == "iter 10: diverged: weight gradient norm overflowed"


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflowing_weight_gradient_norm_stops_retraining(small_task):
    geno = sample_genotype(small_task.spec, np.random.default_rng(0))
    config = eval_config(weight_lr=1e9, anneal=False, eval_steps=50)
    with pytest.raises(NumericalError, match="^weight gradient norm overflowed$"):
        train_genotype(small_task, geno, config)


class BatchLogToy(ToyBilevelTask):
    """The toy problem that records the split of every batch drawn."""

    def __init__(self):
        super().__init__()
        self.splits = []

    def batch(self, split, size, rng):
        self.splits.append(split)
        return super().batch(split, size, rng)


@pytest.mark.parametrize("mode, per_iteration", [
    ("second-order", ["val", "train", "train"]),  # architecture, lookahead, weights
    ("first-order", ["val", "train"]),
    ("joint", ["joint", "joint"]),
])
def test_each_mode_draws_its_batches_in_a_fixed_order(mode, per_iteration):
    problem = BatchLogToy()
    search(toy_search_config(mode, steps=2), problem)
    assert problem.splits == per_iteration * 2


class WeightStepNanToy(ToyBilevelTask):
    """The toy problem whose fourth loss on ``split`` is NaN."""

    def __init__(self, split):
        super().__init__()
        self.split, self.calls = split, 0

    def loss(self, split, weights, alpha, batch):
        out = super().loss(split, weights, alpha, batch)
        if split == self.split:
            self.calls += 1
            if self.calls == 4:
                return scale(out, float("nan"))
        return out


@pytest.mark.parametrize("mode, split, completed", [
    ("first-order", "train", 3),  # one training-split pass per iteration
    ("joint", "joint", 1),  # two pooled passes per iteration
])
def test_divergence_in_weight_step_keeps_that_iterations_arch_step(mode, split, completed):
    def run(steps, problem):
        base = toy_search_config("first-order", steps=steps)
        return search(SearchConfig(**{**base.__dict__, "mode": mode}), problem)

    traj = run(4, WeightStepNanToy(split))
    assert traj.diverged and len(traj.records) == completed
    before, after = run(completed, ToyBilevelTask()), run(completed + 1, ToyBilevelTask())
    assert traj.final_weights["w"] == before.final_weights["w"]
    assert traj.final_alpha["alpha"] == after.final_alpha["alpha"]
    assert after.final_alpha["alpha"] != before.final_alpha["alpha"]


def test_preset_config_files_hold_the_library_presets():
    """Each preset lives twice, as a config file and as a library function; the
    copies differ only where noted."""
    toy = search_config_from(load_config(CONFIGS / "toy.cfg"))
    assert dataclasses.replace(toy, batch_size=1) == toy_search_config()  # the toy ignores it
    desk = load_config(DESK_CFG)
    assert dataclasses.replace(search_config_from(desk), snapshot_every=0) == desk_search_config()
    assert data_config_from(desk) == DataConfig()
    assert cell_spec_from(desk) == CellSpec()


# --- joint optimization -------------------------------------------------------


def test_joint_reaches_stationary_point_of_summed_objective(toy):
    config = toy_search_config("second-order", steps=800, weight_lr=0.2, arch_lr=0.2)
    traj = search(SearchConfig(**{**config.__dict__, "mode": "joint"}), toy)
    a = float(traj.final_alpha["alpha"])
    w = float(traj.final_weights["w"])
    # summed objective gradients: d/dw = 2w - a, d/da = 2a - w - 2
    grad_norm = np.hypot(2 * w - a, 2 * a - w - 2.0)
    assert grad_norm < 1e-6
    assert a == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert w == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_joint_mode_is_deterministic(small_task):
    config = SearchConfig(mode="joint", steps=5, batch_size=8, seed=9, weight_lr=0.05)
    t1 = search(config, small_task)
    t2 = search(config, small_task)
    for k in t1.final_alpha:
        assert np.array_equal(t1.final_alpha[k], t2.final_alpha[k])
    assert [r.train_loss for r in t1.records] == [r.train_loss for r in t2.records]


# --- evaluation, random search, selection --------------------------------------


def eval_config(**kwargs):
    defaults = dict(mode="second-order", steps=0, seed=0, weight_lr=0.1,
                    momentum=0.9, eval_steps=40, eval_batch_size=32, eval_seed=7)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


def test_train_genotype_deterministic_and_learns(small_task):
    geno = sample_genotype(small_task.spec, np.random.default_rng(1))
    config = eval_config()
    acc1, w1 = train_genotype(small_task, geno, config)
    acc2, w2 = train_genotype(small_task, geno, config)
    assert acc1 == acc2
    for k in w1:
        assert np.array_equal(w1[k], w2[k])
    assert acc1 > 0.6  # well above chance on the easy dataset


def test_retraining_draws_its_batches_from_the_eval_seed(small_task):
    geno = sample_genotype(small_task.spec, np.random.default_rng(1))
    acc1, w1 = train_genotype(small_task, geno, eval_config(seed=0, eval_steps=10))
    acc2, w2 = train_genotype(small_task, geno, eval_config(seed=1, eval_steps=10))
    assert acc1 == acc2
    for k in w1:
        assert np.array_equal(w1[k], w2[k]), k


def test_random_search_singleton_returns_the_sample(small_task):
    config = eval_config(seed=5)
    result = random_search(config, small_task, 1)
    assert result.best.genotype == result.candidates[0].genotype
    assert result.best_score == result.candidates[0].retrain_accuracy


def test_random_search_samples_valid_and_deterministic(small_task):
    config = eval_config(seed=11, eval_steps=10)
    r1 = random_search(config, small_task, 4)
    r2 = random_search(config, small_task, 4)
    scores = [c.retrain_accuracy for c in r1.candidates]
    assert scores == [c.retrain_accuracy for c in r2.candidates]
    assert [c.genotype for c in r1.candidates] == [c.genotype for c in r2.candidates]
    assert r1.best.genotype == r2.best.genotype
    assert r1.best_score == max(scores)


def test_ranking_picks_the_best_retrain_metric_wherever_it_is_listed():
    worse = CandidateResult(genotype=None, retrain_accuracy=0.70)
    better = CandidateResult(genotype=None, retrain_accuracy=0.95)
    ranking = Ranking([worse, better])
    assert ranking.best is better
    assert ranking.best_score == 0.95


def test_ranking_tie_goes_to_the_candidate_listed_first():
    first = CandidateResult(genotype=None, retrain_accuracy=0.9)
    second = CandidateResult(genotype=None, retrain_accuracy=0.9)
    assert Ranking([first, second]).best is first
    with pytest.raises(ValueError):
        Ranking([]).best


def test_both_baselines_rank_and_give_a_tie_to_the_candidate_listed_first(small_task,
                                                                          monkeypatch):
    def tied(problem, genotype, config):
        return 0.5, {}

    # the package's ``search`` attribute is the function, so fetch the module by name
    monkeypatch.setattr(importlib.import_module("cellsearch.search"), "train_genotype", tied)
    sampled = random_search(eval_config(seed=5), small_task, 3)
    # seeds in descending order: the first listed is not the lowest seed
    configs = [eval_config(steps=2, batch_size=8, seed=seed) for seed in (3, 1)]
    searched = select_architecture(configs, small_task)
    assert (len(sampled.candidates), len(searched.candidates)) == (3, 2)
    for ranking in (sampled, searched):
        assert isinstance(ranking, Ranking)
        assert ranking.best is ranking.candidates[0]
    assert searched.best.genotype == search(configs[0], small_task).genotype


def test_select_architecture_single_run_returns_its_genotype(small_task):
    config = eval_config(steps=4, batch_size=8, eval_steps=10)
    result = select_architecture([config], small_task)
    assert len(result.candidates) == 1
    assert result.best.genotype == result.candidates[0].genotype
    traj = search(config, small_task)
    assert result.best.genotype == traj.genotype


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_select_architecture_raises_numerical_error_before_retraining(small_task, monkeypatch):
    def retrain(*args, **kwargs):
        raise AssertionError("retrained after a search diverged")

    # the package's ``search`` attribute is the function, so fetch the module by name
    monkeypatch.setattr(importlib.import_module("cellsearch.search"), "train_genotype", retrain)
    good = eval_config(steps=3, batch_size=8, eval_steps=5, seed=0)
    bad = [eval_config(steps=30, batch_size=8, eval_steps=5, seed=seed,
                       weight_lr=1e9, clip_norm=None, anneal=False) for seed in (1, 2)]
    with pytest.raises(NumericalError) as info:
        select_architecture([bad[0], good, bad[1]], small_task)
    # every search runs before the failure is raised
    assert str(info.value) == "seed 1: search diverged; seed 2: search diverged"


# --- fidelity oracles -----------------------------------------------------------


def test_quadratic_problem_exact_correction_is_exact():
    report = check_quadratics_exact_hvp(seed=3, n_problems=5)
    assert report.passed
    assert report.max_error < 1e-8  # quadratic everywhere: differencing is exact


@pytest.mark.parametrize("reduction", ["mean", "concat"])
def test_network_second_order_gradient_close_to_differenced_objective(reduction):
    if reduction == "mean":
        task = make_tiny_cell_task(400)
    else:
        task = SyntheticCellTask(
            DataConfig(n=60, dims=3, classes=2, noise=0.8, seed=400).build(),
            CellSpec(nodes=5, input_arity=2, hidden=3, k=2, reduction="concat"))
    rng = np.random.default_rng(2)
    weights = task.init_weights(2)
    assert sum(w.size for w in weights.values()) <= 200
    alpha = {k: rng.normal(scale=0.5, size=v.shape) for k, v in task.init_alpha().items()}
    train_batch = task.batch("train", 16, rng)
    val_batch = task.batch("val", 16, rng)
    grads, _ = arch_gradient_second_order(task, weights, alpha, 0.1,
                                          train_batch, val_batch)
    oracle = fd_unrolled_gradient(task, weights, alpha, 0.1, train_batch, val_batch)
    assert relative_error(flatten(grads), flatten(oracle)) < 1e-2


def per_probe_unrolled_gradient(problem, weights, alpha, unroll_lr, train_batch, val_batch,
                                optimizer):
    """Reference only: the differenced unrolled objective, one unstacked
    lookahead and validation pass per probe point."""
    keys = list(alpha)

    def objective(point):
        return unrolled_objective(problem, weights, dict(zip(keys, point)), unroll_lr,
                                  train_batch, val_batch, optimizer)

    grads = finite_difference(lambda probes: [objective(point) for point in zip(*probes)],
                              [alpha[k] for k in keys])
    return dict(zip(keys, grads))


def assert_stacked_oracle_matches_per_probe(problem, weights, alpha, train_batch, val_batch,
                                            optimizer=None):
    stacked = fd_unrolled_gradient(problem, weights, alpha, 0.1, train_batch, val_batch, optimizer)
    ref = per_probe_unrolled_gradient(problem, weights, alpha, 0.1, train_batch, val_batch,
                                      optimizer)
    assert list(stacked) == list(ref)
    for k in ref:
        assert np.array_equal(stacked[k], ref[k]), k


def test_stacked_oracle_bit_identical_to_per_probe_passes_on_toy_and_quadratics(toy):
    assert_stacked_oracle_matches_per_probe(toy, *toy_state(alpha=1.3, w=0.4), None, None)
    for seed in range(3):
        problem = QuadraticBilevelProblem(seed=seed)
        assert_stacked_oracle_matches_per_probe(problem, problem.init_weights(),
                                                problem.init_alpha(), None, None)


def test_stacked_oracle_bit_identical_to_per_probe_passes_on_tiny_cells():
    # the 20 problems of check_networks_eps_rule(seed=0): odd ones unroll the momentum step
    problems = list(network_problems(0, 20))
    assert [p[-1] is not None for p in problems] == [k % 2 == 1 for k in range(20)]
    assert next(network_problems(1, 1))[-1] is not None  # problem 1 keeps its rule at seed 1
    for problem in problems:
        assert_stacked_oracle_matches_per_probe(*problem)


def test_eps_rule_passes_at_the_default_scale_on_every_grad_check_problem():
    # grad-check --seed s checks problems s..s+19, so seeds 0..31 cover problems 0..50
    report = check_networks_eps_rule(seed=0, n_problems=51)
    assert report.passed, f"max relative error {report.max_error:.3e}"


@pytest.mark.parametrize("momentum_unroll", [False, True])
@pytest.mark.parametrize("reduction", ["mean", "concat"])
def test_lookahead_gradient_matches_the_oracle_at_desk_search_iterates(monkeypatch, reduction,
                                                                        momentum_unroll):
    # the loop's own rate, batches and live weight optimizer, before the loop steps it
    search_module = importlib.import_module("cellsearch.search")  # the package rebinds .search
    original = search_module.arch_gradient_second_order
    iterations, errors = itertools.count(), {}

    def checked(problem, weights, alpha, unroll_lr, train_batch, val_batch, **kwargs):
        t = next(iterations)
        grads, info = original(problem, weights, alpha, unroll_lr, train_batch, val_batch,
                               **kwargs)
        if t in (0, 50, 99):
            oracle = fd_unrolled_gradient(problem, weights, alpha, unroll_lr, train_batch,
                                          val_batch, kwargs["optimizer"])
            errors[t] = relative_error(flatten(grads), flatten(oracle))
        return grads, info

    monkeypatch.setattr(search_module, "arch_gradient_second_order", checked)
    config = dataclasses.replace(desk_search_config(), steps=100, momentum_unroll=momentum_unroll)
    traj = search(config, SyntheticCellTask(DataConfig().build(), CellSpec(reduction=reduction)))
    assert not traj.diverged
    assert len(errors) == 3
    assert max(errors.values()) < 1e-2, errors


def test_quadratic_exact_hvp_matches_finite_difference_hvp():
    problem = QuadraticBilevelProblem(seed=9)
    weights, alpha = problem.init_weights(), problem.init_alpha()
    vector = {"w": np.random.default_rng(1).normal(size=weights["w"].shape)}
    exact = problem.exact_hvp(vector)
    fd = hvp_finite_difference(problem, weights, alpha, vector, None, 1e-3)
    assert relative_error(exact["alpha"], fd["alpha"]) < 1e-9


def test_quadratic_problem_is_the_four_term_bilevel_quadratic():
    # each split written out term by term, from the same draws taken in the same order
    for seed in range(5):
        rng = np.random.default_rng(seed)

        def psd(n):
            m = rng.normal(size=(n, n))
            return m @ m.T / n + 0.5 * np.eye(n)

        a_t, b_t, c_t, d_t = psd(6), rng.normal(size=(6, 4)), rng.normal(size=(1, 6)), psd(4)
        a_v, b_v, c_v = psd(6), rng.normal(size=(6, 4)), rng.normal(size=(1, 6))
        e_v = rng.normal(size=(1, 4))
        problem = QuadraticBilevelProblem(seed=seed)
        assert np.array_equal(problem.init_weights()["w"], rng.normal(size=(1, 6)))
        assert np.array_equal(problem.init_alpha()["alpha"], rng.normal(size=(1, 4)))
        w, a = rng.normal(size=(1, 6)), rng.normal(size=(1, 4))
        np.testing.assert_allclose(problem.exact_hvp({"w": w})["alpha"], w @ b_t, rtol=1e-14)
        written_out = {
            "train": 0.5 * w @ a_t @ w.T + w @ b_t @ a.T + c_t @ w.T + 0.5 * a @ d_t @ a.T,
            "val": 0.5 * w @ a_v @ w.T + w @ b_v @ a.T + c_v @ w.T + e_v @ a.T,
        }
        for split, ref in written_out.items():
            value = loss_value(problem, split, {"w": w}, {"alpha": a}, None)
            assert value == pytest.approx(ref.item(), rel=1e-12, abs=1e-12)
            with Tape() as tape:
                problem.loss(split, {"w": Value.param(w)}, {"alpha": Value.param(a)}, None)
            assert len(tape.records) == 6  # concatenate, matmul, scale, add, multiply, sum


# --- gradient plumbing ---------------------------------------------------------


def test_single_group_gradients_bit_identical_to_both_groups(desk):
    problem, _ = desk
    weights, alpha = problem.init_weights(3), problem.init_alpha()
    rng = np.random.default_rng(3)
    alpha = {k: rng.normal(size=v.shape) for k, v in alpha.items()}
    batch = problem.batch("val", 48, rng)
    loss, wgrads, agrads = loss_and_grads(problem, "val", weights, alpha, batch,
                                          wrt=("weights", "alpha"))
    loss_w, wgrads_only, none_a = loss_and_grads(problem, "val", weights, alpha, batch,
                                                 wrt=("weights",))
    loss_a, none_w, agrads_only = loss_and_grads(problem, "val", weights, alpha, batch,
                                                 wrt=("alpha",))
    assert loss == loss_w == loss_a and none_a is None and none_w is None
    assert wgrads_only.keys() == wgrads.keys() and agrads_only.keys() == agrads.keys()
    for k in wgrads:
        assert np.array_equal(wgrads_only[k], wgrads[k]), k
    for k in agrads:
        assert np.array_equal(agrads_only[k], agrads[k]), k


@pytest.mark.parametrize("reduction", ["mean", "concat"])
def test_stacked_cell_pass_slices_bit_identical(reduction):
    data = DataConfig(n=60, dims=3, classes=3, noise=0.8, seed=5).build()
    task = SyntheticCellTask(data, CellSpec(nodes=5, input_arity=2, hidden=3, k=2,
                                            reduction=reduction))
    rng = np.random.default_rng(5)
    slices = 4
    weights = {k: rng.normal(size=(slices, *v.shape)) for k, v in task.init_weights(5).items()}
    alpha = {k: rng.normal(size=(slices, *v.shape)) for k, v in task.init_alpha().items()}
    batch = task.batch("train", 16, rng)
    loss, wgrads, agrads = loss_and_grads(task, "train", weights, alpha, batch,
                                          wrt=("weights", "alpha"))
    assert loss.shape == (slices,)
    assert np.array_equal(loss_value(task, "train", weights, alpha, batch), loss)
    for s in range(slices):
        alone = loss_and_grads(task, "train", {k: w[s] for k, w in weights.items()},
                               {k: a[s] for k, a in alpha.items()}, batch,
                               wrt=("weights", "alpha"))
        assert alone[0] == loss[s]
        for got, want in ((wgrads, alone[1]), (agrads, alone[2])):
            assert got.keys() == want.keys()
            for k in want:
                assert np.array_equal(got[k][s], want[k]), (s, k)


@pytest.mark.parametrize("reduction", ["mean", "concat"])
def test_stacked_discrete_pass_slices_bit_identical(reduction):
    data = DataConfig(n=60, dims=3, classes=3, noise=0.8, seed=5).build()
    spec = CellSpec(nodes=5, input_arity=2, hidden=3, k=2, reduction=reduction)
    task = SyntheticCellTask(data, spec)
    genotype = Genotype(spec, (((0, "linear_tanh"), (1, "identity")),
                               ((1, "linear_relu"), (2, "linear_sigmoid"))))
    rng = np.random.default_rng(5)
    slices = 4
    weights = {k: rng.normal(size=(slices, *v.shape))
               for k, v in task.model.init_genotype_weights(genotype, 5).items()}
    batch = task.batch("train", 16, rng)

    def discrete_pass(arrays):
        with Tape():
            values = {k: Value.param(v) for k, v in arrays.items()}
            loss = task.discrete_loss(values, genotype, batch)
        backward(loss)
        return loss.data, {k: v.grad for k, v in values.items()}

    loss, grads = discrete_pass(weights)
    assert loss.shape == (slices,)
    for s in range(slices):
        alone_loss, alone_grads = discrete_pass({k: w[s] for k, w in weights.items()})
        assert alone_loss == loss[s]
        assert grads.keys() == alone_grads.keys()
        for k in alone_grads:
            assert np.array_equal(grads[k][s], alone_grads[k]), (s, k)


def test_taped_passes_leave_no_cyclic_garbage(desk):
    problem, config = desk
    gc.collect()
    gc.disable()
    try:
        traj = search(config, problem)
        assert gc.collect() == 0
        train_genotype(problem, traj.genotype, config)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _with_grads(**grads):
    values = {}
    for name, g in grads.items():
        values[name] = Value.param(np.zeros_like(g))
        values[name].grad = g
    return values


def test_grads_from_names_the_non_finite_parameter():
    values = _with_grads(a=np.ones(3), b=np.array([1.0, np.inf]), c=np.ones(2))
    with pytest.raises(NumericalError, match="val loss: non-finite gradient for 'b'"):
        _grads_from(values, "val loss")


def test_grads_from_accepts_finite_gradients_whose_sum_overflows():
    values = _with_grads(a=np.array([1e308]), b=np.array([1e308]))
    grads = _grads_from(values, "val loss")
    assert grads["a"] is values["a"].grad and grads["b"] is values["b"].grad
