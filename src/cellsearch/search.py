"""Alternating bilevel optimization of architecture logits and weights.

Each iteration takes exactly one architecture step followed by one weight
step. The architecture gradient is evaluated through a one-step lookahead of
the weights: with lookahead weights w' = w - xi * d(train loss)/dw, the
gradient is

    d(val loss at w')/d(alpha)  -  xi * M v,

where v is the validation gradient at w' and M v, the mixed second-derivative
term, is approximated by a symmetric finite difference of the alpha-gradient
of the training loss at w +/- eps*v with eps = scale / ||v||. With xi = 0 the
correction vanishes and the step reduces to the plain validation gradient at
the current weights (first-order mode).

Baselines live here too: joint optimization of both groups by coordinate
descent on pooled train+val data (the first-order iteration with both steps
on the pooled split), uniform random architecture sampling scored by
from-scratch retraining, and multi-seed selection that ranks searched
genotypes by their from-scratch validation metric.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .cell import Genotype, sample_genotype
from .optim import Adam, CosineSchedule, SgdMomentum, clip_global_norm
from .tensor import Tape, Value, backward, flat_norm

Params = dict[str, np.ndarray]

WRT_BOTH = ("weights", "alpha")


class ConfigError(ValueError):
    """Unparseable, unknown, or inconsistent configuration input."""


class NumericalError(RuntimeError):
    """A loss or gradient became non-finite."""


class SelectionError(RuntimeError):
    """A selection run failed; partial results ride on the exception."""

    def __init__(self, message: str, candidates: list):
        super().__init__(message)
        self.candidates = candidates


@dataclass
class EvalCounters:
    """Instrumentation for cost accounting and complexity assertions."""

    forward_passes: int = 0
    backward_passes: int = 0
    alpha_grad_evals: int = 0
    weight_grad_evals: int = 0


MODES = ("second-order", "first-order", "joint")
ARCH_OPTIMIZERS = ("adam", "sgd")
# The range of hvp_epsilon_scale. Far below it the difference is rounding error,
# and exactly 0 once the perturbed weights round back to the weights; above it
# the difference is no longer local.
MIN_EPSILON_SCALE, MAX_EPSILON_SCALE = 1e-10, 1.0


@dataclass
class SearchConfig:
    """Everything a search run depends on, seeds and budgets included."""

    mode: str = "second-order"
    steps: int = 300
    batch_size: int = 32
    seed: int = 0
    weight_lr: float = 0.025
    arch_lr: float = 3e-4
    momentum: float = 0.9
    weight_decay_weights: float = 3e-4
    weight_decay_alpha: float = 1e-3
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    arch_optimizer: str = "adam"  # sgd: plain descent
    unroll_lr: float | None = None  # None: follow the current weight lr
    hvp_epsilon_scale: float = 1e-4  # the paper's 0.01 crosses ReLU kinks on small cells
    anneal: bool = True
    clip_norm: float | None = 5.0
    momentum_unroll: bool = False
    eval_steps: int = 150
    eval_batch_size: int = 64
    eval_seed: int = 1234
    snapshot_every: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.arch_optimizer not in ARCH_OPTIMIZERS:
            raise ConfigError(f"unknown arch optimizer {self.arch_optimizer!r}")
        if not (self.weight_lr >= 0 and self.arch_lr >= 0):
            raise ConfigError("learning rates must be non-negative")
        if self.unroll_lr is not None and self.unroll_lr < 0:
            raise ConfigError("unroll step must be non-negative")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError("clip norm must be positive (or none)")
        if (self.steps < 0 or self.eval_steps < 0
                or self.batch_size < 1 or self.eval_batch_size < 1):
            raise ConfigError("budgets must be non-negative, batch sizes positive")
        if self.seed < 0 or self.eval_seed < 0:
            raise ConfigError("seeds must be non-negative")
        if not MIN_EPSILON_SCALE <= self.hvp_epsilon_scale <= MAX_EPSILON_SCALE:
            raise ConfigError(f"hvp_epsilon_scale must be in [{MIN_EPSILON_SCALE}, "
                              f"{MAX_EPSILON_SCALE}], got {self.hvp_epsilon_scale}")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ConfigError("Adam betas must be in [0, 1)")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if self.weight_decay_weights < 0 or self.weight_decay_alpha < 0:
            raise ConfigError("weight decays must be non-negative")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot interval must be non-negative")


def toy_search_config(mode: str = "second-order", steps: int = 500,
                      unroll_lr: float | None = None, weight_lr: float = 0.5,
                      arch_lr: float = 0.1, seed: int = 0) -> SearchConfig:
    """Plain-descent settings that keep the analytic problem's fixed points exact."""
    return SearchConfig(
        mode=mode, steps=steps, seed=seed, batch_size=1,
        weight_lr=weight_lr, arch_lr=arch_lr,
        momentum=0.0, weight_decay_weights=0.0, weight_decay_alpha=0.0,
        arch_optimizer="sgd", unroll_lr=unroll_lr, anneal=False, clip_norm=None,
    )


def desk_search_config(seed: int = 0, mode: str = "second-order") -> SearchConfig:
    """Calibrated budgets for the default synthetic task (minute-scale runs)."""
    return SearchConfig(
        mode=mode, steps=400, batch_size=48, seed=seed,
        weight_lr=0.05, arch_lr=0.01,
        eval_steps=150, eval_batch_size=64, eval_seed=1234,
    )


@dataclass
class IterationRecord:
    iteration: int
    train_loss: float
    val_loss: float
    weight_lr: float
    hvp_epsilon: float | None
    snapshot: str
    wall_clock: float


@dataclass
class Trajectory:
    records: list[IterationRecord] = field(default_factory=list)
    final_alpha: Params = field(default_factory=dict)
    final_weights: Params = field(default_factory=dict)
    genotype: Genotype | None = None
    diverged: bool = False
    events: list[str] = field(default_factory=list)
    counters: EvalCounters = field(default_factory=EvalCounters)


@dataclass
class SecondOrderInfo:
    epsilon: float | None
    val_loss: float
    correction_skipped: bool = False


@dataclass
class CandidateResult:
    seed: int
    genotype: Genotype
    search_val_loss: float
    retrain_accuracy: float


@dataclass
class SelectionResult:
    best: CandidateResult
    candidates: list[CandidateResult]


@dataclass
class RandomSearchResult:
    best: Genotype
    best_score: float
    scores: list[float]
    genotypes: list[Genotype]


# ---------------------------------------------------------------------------
# Gradient plumbing
# ---------------------------------------------------------------------------


def _wrap(arrays: Mapping[str, np.ndarray], as_params: bool = True) -> dict[str, Value]:
    return {k: Value(v, requires_grad=as_params) for k, v in arrays.items()}


def _require_finite(what: str, loss: Value):
    """The loss as a float, or stacked, as one float per slice; checked finite."""
    if loss.ndim:
        value = loss.data
        finite = np.isfinite(value).all()
    else:
        value = loss.item()
        finite = math.isfinite(value)
    if not finite:
        raise NumericalError(f"{what} is not finite: {value}")
    return value


def _grads_from(values: Mapping[str, Value], what: str) -> Params:
    """The gradients of a group, checked finite by one sum; only a
    non-finite sum is scanned name by name."""
    out = {name: v.grad for name, v in values.items()}
    if not np.isfinite(sum(float(g.sum()) for g in out.values())):
        for name, g in out.items():
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"{what}: non-finite gradient for {name!r}")
    return out


def loss_and_grads(problem, split: str, weights: Params, alpha: Params, batch,
                   wrt: Sequence[str] = WRT_BOTH,
                   counters: EvalCounters | None = None):
    """One forward/backward pass; returns (loss, weight grads, alpha grads).

    Gradients are computed only for the groups named in ``wrt``; the other
    group is wrapped as constants and its slot comes back ``None``. Counters
    record which groups were requested. Arrays with a leading slice axis make
    a stacked pass: one loss and one gradient per slice.
    """
    with Tape():
        wv = _wrap(weights, "weights" in wrt)
        av = _wrap(alpha, "alpha" in wrt)
        loss = problem.loss(split, wv, av, batch)
    loss_val = _require_finite(f"{split} loss", loss)
    if counters is not None:
        counters.forward_passes += 1
        counters.backward_passes += 1
        counters.alpha_grad_evals += 1 if "alpha" in wrt else 0
        counters.weight_grad_evals += 1 if "weights" in wrt else 0
    want: list[Value] = []
    if "weights" in wrt:
        want.extend(wv.values())
    if "alpha" in wrt:
        want.extend(av.values())
    backward(loss, wrt=want)
    wgrads = _grads_from(wv, f"{split} loss") if "weights" in wrt else None
    agrads = _grads_from(av, f"{split} loss") if "alpha" in wrt else None
    return loss_val, wgrads, agrads


def loss_value(problem, split: str, weights: Params, alpha: Params,
               batch) -> float | np.ndarray:
    """Forward-only loss evaluation (no tape, no gradients); one loss per
    slice when the arrays are stacked."""
    loss = problem.loss(split, {k: Value(v) for k, v in weights.items()},
                        {k: Value(v) for k, v in alpha.items()}, batch)
    return _require_finite(f"{split} loss", loss)


# ---------------------------------------------------------------------------
# Architecture gradients
# ---------------------------------------------------------------------------


def unrolled_weights(problem, weights: Params, alpha: Params, unroll_lr: float,
                     train_batch, counters: EvalCounters | None = None,
                     optimizer: SgdMomentum | None = None) -> Params:
    """One virtual training step: w - unroll_lr * d(train loss)/dw.

    The incoming weights are never mutated. By default the step is the plain
    gradient; passing the weight ``optimizer`` makes the lookahead its own
    step at rate ``unroll_lr`` (momentum and decay included), leaving its
    state untouched. Stacked weights and logits take one step per slice.
    """
    if unroll_lr < 0:
        raise ValueError("unroll step must be non-negative")
    if unroll_lr == 0.0:
        return {k: v.copy() for k, v in weights.items()}
    _, wgrads, _ = loss_and_grads(problem, "train", weights, alpha, train_batch,
                                  wrt=("weights",), counters=counters)
    if optimizer is not None:
        return optimizer.lookahead(weights, wgrads, unroll_lr)
    return {name: w - unroll_lr * wgrads[name] for name, w in weights.items()}


def arch_gradient_first_order(problem, weights: Params, alpha: Params, val_batch,
                              counters: EvalCounters | None = None):
    """Validation gradient over alpha at the current weights."""
    val_loss, _, agrads = loss_and_grads(problem, "val", weights, alpha, val_batch,
                                         wrt=("alpha",), counters=counters)
    return agrads, val_loss


def hvp_finite_difference(problem, weights: Params, alpha: Params, vector: Params,
                          train_batch, epsilon: float,
                          counters: EvalCounters | None = None) -> Params:
    """Mixed second-derivative product by symmetric differencing over weights.

    Returns [g_alpha(w + eps*v) - g_alpha(w - eps*v)] / (2*eps) where g_alpha
    is the alpha-gradient of the training loss. The incoming weights are left
    bit-identical: the perturbed points are fresh arrays.
    """
    if epsilon <= 0:
        raise ValueError(f"finite-difference step must be positive, got {epsilon}")
    plus = {k: w + epsilon * vector[k] for k, w in weights.items()}
    minus = {k: w - epsilon * vector[k] for k, w in weights.items()}
    _, _, g_plus = loss_and_grads(problem, "train", plus, alpha, train_batch,
                                  wrt=("alpha",), counters=counters)
    _, _, g_minus = loss_and_grads(problem, "train", minus, alpha, train_batch,
                                   wrt=("alpha",), counters=counters)
    return {k: (g_plus[k] - g_minus[k]) / (2.0 * epsilon) for k in alpha}


def arch_gradient_second_order(problem, weights: Params, alpha: Params,
                               unroll_lr: float, train_batch, val_batch,
                               counters: EvalCounters | None = None,
                               epsilon_scale: float = SearchConfig.hvp_epsilon_scale,
                               hvp_fn: Callable[..., Params] | None = None,
                               optimizer: SgdMomentum | None = None):
    """Lookahead validation gradient with the finite-difference correction.

    ``hvp_fn(vector) -> alpha-shaped dict`` may replace the built-in finite
    difference (e.g. with an analytic product on problems that have one).
    Returns (alpha gradient, SecondOrderInfo). With a zero unroll step the
    correction vanishes and this reduces, bit for bit, to the plain
    validation gradient at the current weights.
    """
    if unroll_lr == 0.0:
        grads, val_loss = arch_gradient_first_order(problem, weights, alpha,
                                                    val_batch, counters=counters)
        return grads, SecondOrderInfo(None, val_loss)
    lookahead = unrolled_weights(problem, weights, alpha, unroll_lr, train_batch,
                                 counters=counters, optimizer=optimizer)
    val_loss, val_wgrads, outer = loss_and_grads(
        problem, "val", lookahead, alpha, val_batch, wrt=WRT_BOTH, counters=counters
    )
    vec_norm = flat_norm(val_wgrads.values())
    if not np.isfinite(vec_norm):
        raise NumericalError("validation gradient norm overflowed")
    if vec_norm < 1e-12:
        # correction term is the product with a vanishing vector; define it as zero
        return dict(outer), SecondOrderInfo(None, val_loss, correction_skipped=True)
    epsilon = epsilon_scale / vec_norm
    if hvp_fn is None:
        correction = hvp_finite_difference(problem, weights, alpha, val_wgrads,
                                           train_batch, epsilon, counters=counters)
    else:
        correction = hvp_fn(val_wgrads)
    grads = {k: outer[k] - unroll_lr * correction[k] for k in alpha}
    return grads, SecondOrderInfo(epsilon, val_loss)


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------


def _make_arch_optimizer(config: SearchConfig):
    if config.arch_optimizer == "adam":
        return Adam(config.arch_lr, betas=(config.adam_beta1, config.adam_beta2),
                    weight_decay=config.weight_decay_alpha)
    return SgdMomentum(config.arch_lr, momentum=0.0,
                       weight_decay=config.weight_decay_alpha)


def _weight_training(config: SearchConfig, steps: int):
    """The weight optimizer and its rate at each of ``steps`` steps: cosine
    annealed to 0 when ``config.anneal`` is set, constant otherwise."""
    opt = SgdMomentum(config.weight_lr, momentum=config.momentum,
                      weight_decay=config.weight_decay_weights)
    if config.anneal and steps:
        return opt, map(CosineSchedule(config.weight_lr, steps).rate, range(steps))
    return opt, itertools.repeat(config.weight_lr, steps)


def _clipped(config: SearchConfig, wgrads: Params) -> Params:
    """The weight gradients clipped to ``config.clip_norm``, unchanged if it is None.

    Finite gradients whose norm overflows would be scaled to zero; that
    stops the run instead.
    """
    if config.clip_norm is None:
        return wgrads
    clipped, norm = clip_global_norm(wgrads, config.clip_norm)
    if not math.isfinite(norm):
        raise NumericalError("weight gradient norm overflowed")
    return clipped


def _weight_step(problem, config, weights, alpha, rng, counters, split):
    batch = problem.batch(split, config.batch_size, rng)
    loss, wgrads, _ = loss_and_grads(problem, split, weights, alpha, batch,
                                     wrt=("weights",), counters=counters)
    return loss, _clipped(config, wgrads)


def search(config: SearchConfig, problem,
           snapshot_hook: Callable[[int, Params], str] | None = None) -> Trajectory:
    """Alternating search: one architecture step, then one weight step.

    Every mode runs the same iteration body. The architecture step takes a
    fresh batch of its split (``val``, or ``joint`` in joint mode) and, in
    second-order mode, a fresh training batch for the lookahead; the weight
    step then takes a fresh batch of its split (``train``, or ``joint``). In
    joint mode the architecture loss stands in for the validation loss.
    Divergence stops the loop and returns the trajectory collected so far,
    flagged; an architecture step taken before it is kept.
    """
    arch_split, weight_split = ("joint", "joint") if config.mode == "joint" else ("val", "train")
    rng = np.random.default_rng(config.seed)
    traj = Trajectory()
    weights, alpha = problem.init_weights(config.seed), problem.init_alpha()
    w_opt, rates = _weight_training(config, config.steps)
    a_opt = _make_arch_optimizer(config)
    start = time.perf_counter()

    for t, rate in enumerate(rates):
        w_opt.lr = rate
        epsilon = None
        try:
            arch_batch = problem.batch(arch_split, config.batch_size, rng)
            if config.mode == "second-order":
                unroll_batch = problem.batch("train", config.batch_size, rng)
                unroll_lr = w_opt.lr if config.unroll_lr is None else config.unroll_lr
                agrads, info = arch_gradient_second_order(
                    problem, weights, alpha, unroll_lr, unroll_batch, arch_batch,
                    counters=traj.counters, epsilon_scale=config.hvp_epsilon_scale,
                    optimizer=w_opt if config.momentum_unroll else None,
                )
                arch_loss, epsilon = info.val_loss, info.epsilon
                if info.correction_skipped:
                    traj.events.append(f"iter {t}: correction skipped, vanishing val gradient")
            else:
                arch_loss, _, agrads = loss_and_grads(problem, arch_split, weights, alpha,
                                                      arch_batch, wrt=("alpha",),
                                                      counters=traj.counters)
            alpha = a_opt.step(alpha, agrads)
            train_loss, wgrads = _weight_step(problem, config, weights, alpha, rng,
                                              traj.counters, weight_split)
            weights = w_opt.step(weights, wgrads)
        except NumericalError as exc:
            traj.events.append(f"iter {t}: diverged: {exc}")
            traj.diverged = True
            break
        snapshot = snapshot_hook(t, alpha) if snapshot_hook is not None else ""
        traj.records.append(IterationRecord(
            iteration=t, train_loss=train_loss, val_loss=arch_loss,
            weight_lr=w_opt.lr, hvp_epsilon=epsilon, snapshot=snapshot,
            wall_clock=time.perf_counter() - start,
        ))

    traj.final_alpha = {k: v.copy() for k, v in alpha.items()}
    traj.final_weights = {k: v.copy() for k, v in weights.items()}
    if not traj.diverged:
        traj.genotype = problem.derive(traj.final_alpha)
    return traj


# ---------------------------------------------------------------------------
# From-scratch evaluation, random search, multi-seed selection
# ---------------------------------------------------------------------------


def train_genotype(problem, genotype: Genotype, config: SearchConfig) -> tuple[float, Params]:
    """Train a derived architecture from fresh weights on the training split.

    Returns (validation accuracy, trained weights). Search-time weights are
    never reused; every evaluation starts from its own init, seeded by
    ``config.eval_seed``.
    """
    rng = np.random.default_rng(config.eval_seed)
    weights = problem.model.init_genotype_weights(genotype, config.eval_seed)
    opt, rates = _weight_training(config, config.eval_steps)

    for rate in rates:
        opt.lr = rate
        features, labels = problem.batch("train", config.eval_batch_size, rng)
        with Tape():
            wv = _wrap(weights)
            loss = problem.discrete_loss(wv, genotype, (features, labels))
        _require_finite("retraining loss", loss)
        backward(loss, wrt=wv.values())
        weights = opt.step(weights, _clipped(config, _grads_from(wv, "retraining loss")))

    return problem.split_accuracy(weights, genotype, "val"), weights


def random_search(config: SearchConfig, problem, n_samples: int) -> RandomSearchResult:
    """Best of n uniformly sampled genotypes, each retrained from scratch."""
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    rng = np.random.default_rng(config.seed)
    genotypes, scores = [], []
    for _ in range(n_samples):
        geno = sample_genotype(problem.spec, rng)
        accuracy, _ = train_genotype(problem, geno, config)
        genotypes.append(geno)
        scores.append(accuracy)
    best_idx = int(np.argmax(scores))  # ties fall to the earliest sample
    return RandomSearchResult(genotypes[best_idx], scores[best_idx], scores, genotypes)


def pick_best_candidate(candidates: Sequence[CandidateResult]) -> CandidateResult:
    """Highest from-scratch validation metric; ties go to the lowest seed.

    Search-time losses play no part in the ranking.
    """
    if not candidates:
        raise ValueError("no candidates to pick from")
    return min(candidates, key=lambda c: (-c.retrain_accuracy, c.seed))


def select_architecture(configs: Sequence[SearchConfig], problem) -> SelectionResult:
    """Run one search per config, retrain each result, keep the best.

    Diverged runs are reported via SelectionError carrying the candidates
    that did complete.
    """
    candidates: list[CandidateResult] = []
    failures: list[str] = []
    for config in configs:
        traj = search(config, problem)
        if traj.diverged or traj.genotype is None:
            failures.append(f"seed {config.seed}: search diverged")
            continue
        accuracy, _ = train_genotype(problem, traj.genotype, config)
        candidates.append(CandidateResult(
            seed=config.seed,
            genotype=traj.genotype,
            search_val_loss=traj.records[-1].val_loss if traj.records else float("nan"),
            retrain_accuracy=accuracy,
        ))
    if failures:
        raise SelectionError("; ".join(failures), candidates)
    return SelectionResult(pick_best_candidate(candidates), candidates)
