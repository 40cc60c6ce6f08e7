"""Independent oracles for the lookahead architecture gradient.

The quantity under test is the gradient of the scalar map

    alpha -> val_loss(w - xi * d(train loss)/dw(w, alpha), alpha)

produced by ``arch_gradient_second_order`` (or through the momentum step). Two oracles check it:

* central finite differences of the map itself, coordinate by coordinate,
  recomputing the lookahead at every probe (works on any problem); the probes
  run stacked, as one lookahead pass and one validation pass;
* random quadratic bilevel problems, each loss one quadratic form over the
  weights and logits together, whose mixed second derivative is a constant
  block of that form, so the correction term has an exact closed form and the
  whole gradient is exact.
"""

from __future__ import annotations

import numpy as np

from . import tensor
from .cell import CellSpec
from .gradcheck import CheckReport
from .optim import SgdMomentum
from .search import (
    Params,
    arch_gradient_second_order,
    loss_value,
    unrolled_weights,
)
from .tasks import DataConfig, SyntheticCellTask
from .tensor import Value

# The virtual training step of every oracle problem.
UNROLL_LR = 0.1


def unrolled_objective(problem, weights: Params, alpha: Params, unroll_lr: float,
                       train_batch, val_batch, optimizer: SgdMomentum | None = None) -> float:
    """Validation loss after ``unrolled_weights``'s virtual step at the given logits."""
    stepped = unrolled_weights(problem, weights, alpha, unroll_lr, train_batch, optimizer=optimizer)
    return loss_value(problem, "val", stepped, alpha, val_batch)


def fd_unrolled_gradient(problem, weights: Params, alpha: Params, unroll_lr: float,
                         train_batch, val_batch, optimizer: SgdMomentum | None = None) -> Params:
    """Central differences of the unrolled objective over every logit, at either unroll rule.

    All probes run as one stacked pass: the logits carry the probe axis, and the weights,
    and with them any velocity, broadcast along it, so each probe takes its own lookahead.
    """
    keys = list(alpha)

    def objective(probes: list[np.ndarray]) -> np.ndarray:
        stacked = {k: np.broadcast_to(w, (len(probes[0]), *w.shape))
                   for k, w in weights.items()}
        return unrolled_objective(problem, stacked, dict(zip(keys, probes)), unroll_lr,
                                  train_batch, val_batch, optimizer)

    grads = tensor.finite_difference(objective, [alpha[k] for k in keys])
    return dict(zip(keys, grads))


def flatten(params: Params) -> np.ndarray:
    return np.concatenate([params[k].reshape(-1) for k in sorted(params)])


class QuadraticBilevelProblem:
    """Random quadratic losses with a closed-form mixed second derivative.

    Over the row z = [w, a] of 6 weights and 4 logits, each split's loss is
    0.5 z H z' + c z' for its own symmetric H and row c. The training H has
    positive definite diagonal blocks, so the loss is strictly convex in the
    weights; validation's logit block is zero, and only validation has a linear
    logit term. The weight-logit block of the training H is the constant mixed
    second derivative, so the exact correction product is available for any
    vector.
    """

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        dim_w, dim_alpha = 6, 4

        def psd(n):
            m = rng.normal(size=(n, n))
            return m @ m.T / n + 0.5 * np.eye(n)

        # split: (H, c); each draw is taken where it is written, in this order
        self.forms = {}
        a, cross, lin = psd(dim_w), rng.normal(size=(dim_w, dim_alpha)), rng.normal(size=(1, dim_w))
        self.forms["train"] = (np.block([[a, cross], [cross.T, psd(dim_alpha)]]),
                               np.hstack([lin, np.zeros((1, dim_alpha))]))
        a, cross, lin = psd(dim_w), rng.normal(size=(dim_w, dim_alpha)), rng.normal(size=(1, dim_w))
        self.forms["val"] = (np.block([[a, cross], [cross.T, np.zeros((dim_alpha, dim_alpha))]]),
                             np.hstack([lin, rng.normal(size=(1, dim_alpha))]))
        self.w0 = {"w": rng.normal(size=(1, dim_w))}
        self.alpha0 = {"alpha": rng.normal(size=(1, dim_alpha))}

    def init_weights(self) -> Params:
        return {k: v.copy() for k, v in self.w0.items()}

    def init_alpha(self) -> Params:
        return {k: v.copy() for k, v in self.alpha0.items()}

    def loss(self, split: str, weights, alpha, batch) -> Value:
        """z (0.5 z H + c)', summed over the row, so a stacked pass gives one value per slice."""
        h, c = self.forms[split]
        z = tensor.concatenate([weights["w"], alpha["alpha"]])
        inner = tensor.add(tensor.scale(tensor.matmul(z, Value(h)), 0.5),
                           Value(np.broadcast_to(c, z.shape)))
        return tensor.sum_all(tensor.multiply(z, inner), axis=(-2, -1))

    def exact_hvp(self, vector: Params) -> Params:
        """The constant mixed second derivative applied to a weight vector."""
        v = vector["w"]
        return {"alpha": v @ self.forms["train"][0][:v.shape[-1], v.shape[-1]:]}


def make_tiny_cell_task(seed: int) -> SyntheticCellTask:
    """A cell classifier small enough for coordinate-wise differencing: 159
    inner parameters (stems, edges, head)."""
    spec = CellSpec(nodes=5, input_arity=2, hidden=3, k=2)
    data = DataConfig(n=60, dims=3, classes=2, noise=0.8, seed=seed)
    return SyntheticCellTask(data.build(), spec)


def network_problems(seed: int, n_problems: int):
    """Problems k = seed .. seed + n_problems - 1: (task, weights, alpha, train batch, val
    batch, weight optimizer). An odd k unrolls the momentum step from a N(0, 1) velocity
    drawn after the batches, an even k the plain step (None), whatever the seed."""
    for k in range(seed, seed + n_problems):
        task = make_tiny_cell_task(k + 1000)
        rng = np.random.default_rng(k)
        weights = task.init_weights(k)
        alpha = {name: rng.normal(scale=0.5, size=v.shape) for name, v in task.init_alpha().items()}
        train_batch, val_batch = task.batch("train", 16, rng), task.batch("val", 16, rng)
        optimizer = None
        if k % 2:
            # the desk search's momentum and decay; the lookahead takes UNROLL_LR, not lr
            optimizer = SgdMomentum(UNROLL_LR, momentum=0.9, weight_decay=3e-4)
            optimizer.velocity = {name: rng.normal(size=w.shape) for name, w in weights.items()}
        yield task, weights, alpha, train_batch, val_batch, optimizer


def check_networks_eps_rule(seed: int = 0, n_problems: int = 20,
                            tolerance: float = 1e-2) -> CheckReport:
    """Second-order gradient, at the search's ε rule (``HVP_EPSILON_SCALE``), vs differenced
    unrolled objective on the real cells of ``network_problems``, under both unroll rules."""
    worst = 0.0
    for task, weights, alpha, *batches, optimizer in network_problems(seed, n_problems):
        grads, _ = arch_gradient_second_order(task, weights, alpha, UNROLL_LR, *batches,
                                              optimizer=optimizer)
        oracle = fd_unrolled_gradient(task, weights, alpha, UNROLL_LR, *batches, optimizer)
        worst = max(worst, tensor.relative_error(flatten(grads), flatten(oracle)))
    return CheckReport("cell networks, differenced correction", n_problems, worst, tolerance)


def check_quadratics_exact_hvp(seed: int = 0, n_problems: int = 20,
                               tolerance: float = 1e-4) -> CheckReport:
    """Second-order gradient with the exact correction vs differenced objective."""
    worst = 0.0
    for p in range(n_problems):
        problem = QuadraticBilevelProblem(seed=seed + p)
        weights = problem.init_weights()
        alpha = problem.init_alpha()
        grads, _ = arch_gradient_second_order(
            problem, weights, alpha, UNROLL_LR, None, None,
            hvp_fn=problem.exact_hvp,
        )
        oracle = fd_unrolled_gradient(problem, weights, alpha, UNROLL_LR, None, None)
        worst = max(worst, tensor.relative_error(flatten(grads), flatten(oracle)))
    return CheckReport("quadratic problems, exact correction", n_problems, worst, tolerance)


def run_fidelity_suite(seed: int = 0) -> list[CheckReport]:
    return [check_networks_eps_rule(seed), check_quadratics_exact_hvp(seed)]
