"""Alternating bilevel optimization of architecture logits and weights.

Each iteration takes exactly one architecture step followed by one weight
step. The architecture gradient is evaluated through a one-step lookahead of
the weights: with lookahead weights w' = w - xi * d(train loss)/dw, the
gradient is

    d(val loss at w')/d(alpha)  -  xi * M v,

where v is the validation gradient at w' and M v, the mixed second-derivative
term, is approximated by a symmetric finite difference of the alpha-gradient
of the training loss at w +/- eps*v with eps = HVP_EPSILON_SCALE / ||v||. Every mode
steps by this one gradient; at xi = 0 (first-order mode) the correction
vanishes and it is the plain validation gradient at the current weights.

Baselines live here too: joint optimization of both groups by coordinate
descent on pooled train+val data (xi = 0, both steps on the pooled split),
uniform random architecture sampling, and multi-seed selection. Both of the
last two retrain each genotype from scratch and return one ``Ranking``,
whose best is the highest validation accuracy.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .cell import Genotype, sample_genotype
from .optim import Adam, SgdMomentum, clip_global_norm, flat_norm, pack, unpack
from .tensor import Tape, Value, backward

Params = dict[str, np.ndarray]


class ConfigError(ValueError):
    """Unparseable, unknown, or inconsistent configuration input."""


class NumericalError(RuntimeError):
    """A loss or gradient became non-finite."""


@dataclass
class EvalCounters:
    """Instrumentation for cost accounting and complexity assertions."""

    forward_passes: int = 0
    backward_passes: int = 0
    alpha_grad_evals: int = 0
    weight_grad_evals: int = 0


MODES = ("second-order", "first-order", "joint")
ARCH_OPTIMIZERS = ("adam", "sgd")
# The paper's architecture-Adam betas (arXiv 1806.09055, section 3).
ARCH_ADAM_BETAS = (0.5, 0.999)
# eps * ||v||, the difference step's length; the paper's 0.01 moves ReLU pre-activations
# of small cells across zero.
HVP_EPSILON_SCALE = 1e-4


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
    arch_optimizer: str = "adam"  # adam with ARCH_ADAM_BETAS; sgd: plain descent
    unroll_lr: float | None = None  # None: follow the current weight lr
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
    wall_clock: float  # seconds since the loop began; the benchmark's per-iteration latency


@dataclass
class Trajectory:
    """One record per completed iteration, and by t the logits after each
    completed iteration t with ``t % snapshot_every == 0`` (none if it is 0)."""

    records: list[IterationRecord] = field(default_factory=list)
    snapshots: dict[int, Params] = field(default_factory=dict)
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
    genotype: Genotype
    retrain_accuracy: float


@dataclass
class Ranking:
    """Retrained candidates, in the order they were sampled or searched."""

    candidates: list[CandidateResult]

    @property
    def best(self) -> CandidateResult:
        """The first candidate with the highest retrain accuracy."""
        return max(self.candidates, key=lambda c: c.retrain_accuracy)

    @property
    def best_score(self) -> float:
        return self.best.retrain_accuracy


# ---------------------------------------------------------------------------
# Gradient plumbing
# ---------------------------------------------------------------------------


def _wrap(arrays: Mapping[str, np.ndarray], as_params: bool = True) -> dict[str, Value]:
    return {k: Value(v, requires_grad=as_params) for k, v in arrays.items()}


def _require_finite(what: str, loss: Value):
    """The loss as a float, or stacked, as one float per slice; checked finite."""
    value = loss.data if loss.ndim else loss.item()
    if not np.isfinite(value).all():
        raise NumericalError(f"{what} is not finite: {value}")
    return value


def _grads_from(values: Mapping[str, Value], what: str, lead: tuple[int, ...] = ()):
    """The gradients of a group packed into one vector (one per slice of
    ``lead``), checked finite by one reduction; only on a failure is each
    name scanned, to name the non-finite parameter."""
    grads = pack([v.grad for v in values.values()], lead)
    if not np.isfinite(grads).all():
        for name, v in values.items():
            if not np.all(np.isfinite(v.grad)):
                raise NumericalError(f"{what}: non-finite gradient for {name!r}")
    return grads


def loss_and_grads(problem, split: str, weights: Params, alpha: Params, batch,
                   wrt: Sequence[str], counters: EvalCounters | None = None):
    """One forward/backward pass; returns (loss, weight grads, alpha grads).

    Gradients are computed only for the groups named in ``wrt``, each packed
    into one vector in its group's name order (``optim.unpack`` names them);
    the other group is wrapped as constants and its slot comes back ``None``.
    Counters record which groups were requested. Arrays with a leading slice
    axis make a stacked pass: one loss and one gradient vector per slice.
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
    backward(loss)
    lead = np.shape(loss_val)
    wgrads = _grads_from(wv, f"{split} loss", lead) if "weights" in wrt else None
    agrads = _grads_from(av, f"{split} loss", lead) if "alpha" in wrt else None
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

    The incoming weights are never mutated (a zero step returns equal copies).
    By default the step is the plain gradient; the weight ``optimizer`` makes
    it that optimizer's own step at rate ``unroll_lr`` (momentum and decay
    included), leaving its state untouched. Stacked arrays step per slice.
    """
    if unroll_lr < 0:
        raise ValueError("unroll step must be non-negative")
    _, wgrads, _ = loss_and_grads(problem, "train", weights, alpha, train_batch,
                                  wrt=("weights",), counters=counters)
    w = pack(weights.values(), wgrads.shape[:-1])
    if optimizer is not None:
        return unpack(optimizer.lookahead(w, wgrads, unroll_lr), weights)
    return unpack(w - unroll_lr * wgrads, weights)


def arch_gradient_first_order(problem, weights: Params, alpha: Params, val_batch,
                              counters: EvalCounters | None = None, split: str = "val"):
    """Gradient over alpha of ``split``'s loss at the current weights (the
    lookahead gradient at a zero step); returns (gradient, loss)."""
    val_loss, _, agrads = loss_and_grads(problem, split, weights, alpha, val_batch,
                                         wrt=("alpha",), counters=counters)
    return unpack(agrads, alpha), val_loss


def hvp_finite_difference(problem, weights: Params, alpha: Params, vector: Params,
                          train_batch, epsilon: float,
                          counters: EvalCounters | None = None) -> Params:
    """Mixed second-derivative product by symmetric differencing over weights.

    Returns [g_alpha(w + eps*v) - g_alpha(w - eps*v)] / (2*eps) where g_alpha
    is the alpha-gradient of the training loss. The incoming weights are left
    bit-identical: the perturbed points are fresh arrays. A non-zero step
    ``eps*||v||`` below the rounding spacing of ``||w||`` would round the
    perturbed points back to the weights and return 0, so it raises
    ``NumericalError``; a zero vector's product is exactly 0.
    """
    if epsilon <= 0:
        raise ValueError(f"finite-difference step must be positive, got {epsilon}")
    w, v = pack(weights.values()), pack(vector.values())
    step, spacing = epsilon * flat_norm(v), np.spacing(flat_norm(w))
    if 0 < step < spacing:
        raise NumericalError(f"difference step {step:.3g} is below the weights' "
                             f"rounding spacing {spacing:.3g}")
    _, _, g_plus = loss_and_grads(problem, "train", unpack(w + epsilon * v, weights), alpha,
                                  train_batch, wrt=("alpha",), counters=counters)
    _, _, g_minus = loss_and_grads(problem, "train", unpack(w - epsilon * v, weights), alpha,
                                   train_batch, wrt=("alpha",), counters=counters)
    return unpack((g_plus - g_minus) / (2.0 * epsilon), alpha)


def arch_gradient_second_order(problem, weights: Params, alpha: Params,
                               unroll_lr: float, train_batch, val_batch,
                               counters: EvalCounters | None = None,
                               hvp_fn: Callable[..., Params] | None = None,
                               optimizer: SgdMomentum | None = None, split: str = "val"):
    """Lookahead gradient of ``split`` (``val``, or ``joint``) with the
    finite-difference correction: the architecture gradient of every mode.

    ``hvp_fn(vector) -> alpha-shaped dict`` may replace the built-in finite
    difference (e.g. with an analytic product on problems that have one).
    Returns (alpha gradient, SecondOrderInfo). A zero unroll step takes no
    lookahead: it is ``arch_gradient_first_order``, bit for bit, with no epsilon.
    """
    if unroll_lr == 0.0:
        grads, val_loss = arch_gradient_first_order(problem, weights, alpha, val_batch,
                                                    counters=counters, split=split)
        return grads, SecondOrderInfo(None, val_loss)
    lookahead = unrolled_weights(problem, weights, alpha, unroll_lr, train_batch,
                                 counters=counters, optimizer=optimizer)
    val_loss, val_wgrads, outer = loss_and_grads(
        problem, split, lookahead, alpha, val_batch, wrt=("weights", "alpha"), counters=counters
    )
    outer, vec_norm = unpack(outer, alpha), flat_norm(val_wgrads)
    if not np.isfinite(vec_norm):
        raise NumericalError("validation gradient norm overflowed")
    if vec_norm < 1e-12:
        # correction term is the product with a vanishing vector; define it as zero
        return outer, SecondOrderInfo(None, val_loss, correction_skipped=True)
    epsilon = HVP_EPSILON_SCALE / vec_norm
    val_wgrads = unpack(val_wgrads, lookahead)
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
        return Adam(config.arch_lr, betas=ARCH_ADAM_BETAS,
                    weight_decay=config.weight_decay_alpha)
    return SgdMomentum(config.arch_lr, momentum=0.0,
                       weight_decay=config.weight_decay_alpha)


def _weight_training(config: SearchConfig, steps: int):
    """The weight optimizer and its rate at each of ``steps`` steps: cosine
    annealed from ``weight_lr`` at step 0 towards 0 at step ``steps`` when
    ``config.anneal`` is set, constant otherwise."""
    opt = SgdMomentum(config.weight_lr, momentum=config.momentum,
                      weight_decay=config.weight_decay_weights)
    lr = float(config.weight_lr)
    if config.anneal:
        return opt, (0.5 * lr * (1.0 + math.cos(math.pi * t / steps)) for t in range(steps))
    return opt, itertools.repeat(lr, steps)


def _clipped(config: SearchConfig, wgrads: np.ndarray) -> np.ndarray:
    """The weight gradient vector clipped to ``config.clip_norm``, unchanged if it is None.

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


def search(config: SearchConfig, problem) -> Trajectory:
    """Alternating search: one architecture step, then one weight step.

    Every mode runs the same iteration body. Its architecture step is one
    ``arch_gradient_second_order`` call on a fresh batch of its split (``val``,
    or ``joint``, whose loss stands in for the validation loss), at the
    resolved ``unroll_lr`` with a fresh training batch in second-order mode and
    at 0 otherwise; the weight step then takes a fresh batch of its split
    (``train``, or ``joint``).
    After each completed iteration t with ``t % config.snapshot_every == 0``
    the search keeps a copy of the logits in ``Trajectory.snapshots[t]``.
    Divergence stops the loop and returns the trajectory collected so far,
    flagged, snapshots included; an architecture step taken before it is kept.
    """
    arch_split, weight_split = ("joint", "joint") if config.mode == "joint" else ("val", "train")
    rng = np.random.default_rng(config.seed)
    traj = Trajectory()
    weights, alpha = problem.init_weights(config.seed), problem.init_alpha()
    # one vector per group; the names are views into it, and each step writes it in place
    w, a = pack(weights.values()), pack(alpha.values())
    weights, alpha = unpack(w, weights), unpack(a, alpha)
    w_opt, rates = _weight_training(config, config.steps)
    a_opt = _make_arch_optimizer(config)
    start = time.perf_counter()

    for t, rate in enumerate(rates):
        w_opt.lr = rate
        try:
            arch_batch = problem.batch(arch_split, config.batch_size, rng)
            unroll_lr, unroll_batch = 0.0, None
            if config.mode == "second-order":
                unroll_batch = problem.batch("train", config.batch_size, rng)
                unroll_lr = w_opt.lr if config.unroll_lr is None else config.unroll_lr
            agrads, info = arch_gradient_second_order(
                problem, weights, alpha, unroll_lr, unroll_batch, arch_batch,
                counters=traj.counters,
                optimizer=w_opt if config.momentum_unroll else None, split=arch_split,
            )
            if info.correction_skipped:
                traj.events.append(f"iter {t}: correction skipped, vanishing val gradient")
            a[:] = a_opt.step(a, pack(agrads.values()))
            train_loss, wgrads = _weight_step(problem, config, weights, alpha, rng,
                                              traj.counters, weight_split)
            w[:] = w_opt.step(w, wgrads)
        except NumericalError as exc:
            traj.events.append(f"iter {t}: diverged: {exc}")
            traj.diverged = True
            break
        if config.snapshot_every and t % config.snapshot_every == 0:
            traj.snapshots[t] = {k: v.copy() for k, v in alpha.items()}
        traj.records.append(IterationRecord(
            iteration=t, train_loss=train_loss, val_loss=info.val_loss,
            weight_lr=w_opt.lr, hvp_epsilon=info.epsilon,
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
    w = pack(weights.values())
    weights = unpack(w, weights)
    opt, rates = _weight_training(config, config.eval_steps)

    for rate in rates:
        opt.lr = rate
        features, labels = problem.batch("train", config.eval_batch_size, rng)
        with Tape():
            wv = _wrap(weights)
            loss = problem.discrete_loss(wv, genotype, (features, labels))
        _require_finite("retraining loss", loss)
        backward(loss)
        w[:] = opt.step(w, _clipped(config, _grads_from(wv, "retraining loss")))

    return problem.split_accuracy(weights, genotype, "val"), weights


def _retrained(problem, runs) -> list[CandidateResult]:
    """One candidate per (genotype, config) pair, retrained by ``train_genotype``."""
    return [CandidateResult(genotype, train_genotype(problem, genotype, config)[0])
            for genotype, config in runs]


def random_search(config: SearchConfig, problem, n_samples: int) -> Ranking:
    """n genotypes drawn uniformly from ``config.seed``, each retrained from
    scratch, in draw order; a tie for the best goes to the earliest sample."""
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    rng = np.random.default_rng(config.seed)
    runs = ((sample_genotype(problem.spec, rng), config) for _ in range(n_samples))
    return Ranking(_retrained(problem, runs))


def select_architecture(configs: Sequence[SearchConfig], problem) -> Ranking:
    """One search per config, each genotype retrained from scratch, in config
    order; a tie for the best goes to the earliest config. If any search
    diverged, every search still runs, then ``NumericalError`` names each
    diverged seed and nothing is retrained."""
    runs = [(search(config, problem).genotype, config) for config in configs]
    failures = [f"seed {config.seed}: search diverged" for g, config in runs if g is None]
    if failures:
        raise NumericalError("; ".join(failures))
    return Ranking(_retrained(problem, runs))
