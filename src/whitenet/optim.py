"""Training algorithms.

The whitened trainer follows one amortized loop: every ``reparam_period``
updates (including update 0, which makes the first reparametrization act as
an initialization scheme) one pass over the layers estimates each layer's
input statistics from ``stat_samples`` points, rebuilds its whitening
coefficients from the centered covariance eigendecomposition with
``eigen_epsilon`` damping, and re-projects its parameters so that the
canonical ones, and the network function, are unchanged. Plain
momentum-SGD runs on the whitened parameters in between; momentum buffers
are reset at each reparametrization by default (disable for ablation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg, net
from .data import BatchPlan, Dataset, next_batch
from .errors import (
    ConfigError,
    DivergenceError,
    NumericError,
    SingularMatrixError,
)

OPTIMIZERS = ("sgd", "momentum", "rmsprop", "bn", "prong")


@dataclass
class AnnealPolicy:
    """Waterfall learning-rate schedule: divide when the recent best
    validation metric stops improving on the prior best."""

    eval_interval: int
    patience: int = 4
    min_relative_improvement: float = 0.01
    divisor: float = 10.0

    def __post_init__(self):
        if self.divisor <= 1.0:
            raise ConfigError(f"anneal divisor must exceed 1, got {self.divisor}")
        if self.patience < 1 or self.eval_interval < 1:
            raise ConfigError("anneal patience and eval_interval must be >= 1")


@dataclass
class TrainConfig:
    learning_rate: float
    momentum: float = 0.0
    batch_size: int = 64
    reparam_period: int = 1000
    stat_samples: int = 100
    eigen_epsilon: float = 1e-2
    rmsprop_decay: float = 0.99
    rmsprop_damping: float = 0.01
    anneal: AnnealPolicy | None = None
    seed: int = 0
    max_updates: int = 1000
    eval_interval: int = 100
    reset_momentum_on_reparam: bool = True
    freeze_whitening: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.reparam_period < 1:
            raise ConfigError(f"reparam_period must be >= 1, got {self.reparam_period}")
        if self.stat_samples < 2:
            raise ConfigError(f"stat_samples must be >= 2, got {self.stat_samples}")
        if self.eigen_epsilon < 0:
            raise ConfigError(f"eigen_epsilon must be >= 0, got {self.eigen_epsilon}")
        if not 0.0 < self.rmsprop_decay < 1.0:
            raise ConfigError(f"rmsprop_decay must be in (0, 1), got {self.rmsprop_decay}")
        if self.rmsprop_damping <= 0:
            raise ConfigError(f"rmsprop_damping must be > 0, got {self.rmsprop_damping}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_updates < 0:
            raise ConfigError(f"max_updates must be >= 0, got {self.max_updates}")
        if self.eval_interval < 1:
            raise ConfigError(f"eval_interval must be >= 1, got {self.eval_interval}")


@dataclass
class OptimizerState:
    """Step count, learning rate and the optimizer's buffers. ``velocity``
    and ``mean_square`` are flat vectors laid out as ``Model.params.vector``."""

    alpha: float
    velocity: np.ndarray
    step: int = 0
    mean_square: np.ndarray | None = None

    @classmethod
    def init(cls, vector, config: TrainConfig, *, rmsprop=False):
        state = cls(alpha=config.learning_rate, velocity=np.zeros_like(vector))
        if rmsprop:
            state.mean_square = np.zeros_like(vector)
        return state

    def reset_momentum(self):
        self.velocity.fill(0.0)


def sgd_step(vector, grad, state: OptimizerState, config: TrainConfig):
    """Classical momentum: v <- m v + g; p <- p - alpha v (plain SGD at m=0).

    ``vector`` and ``grad`` are flat; the step is refused, with nothing
    changed, when ``grad`` holds a non-finite entry."""
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient; step refused")
    m = config.momentum
    if m != 0.0:
        v = state.velocity
        v *= m
        v += grad
        vector -= state.alpha * v
    else:
        vector -= state.alpha * grad
    state.step += 1


def rmsprop_step(vector, grad, state: OptimizerState, config: TrainConfig):
    """s <- rho s + (1-rho) g^2; p <- p - alpha g / (sqrt(s) + damping).

    The damping bounds the per-coordinate multiplier at alpha/damping.
    Flat vectors and the finiteness check as for ``sgd_step``."""
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient; step refused")
    rho = config.rmsprop_decay
    s = state.mean_square
    s *= rho
    s += (1.0 - rho) * grad * grad
    vector -= state.alpha * grad / (np.sqrt(s) + config.rmsprop_damping)
    state.step += 1


@dataclass
class ReparamInfo:
    eigenvalues: list  # per input slot, the centered covariance's, descending
    outputs: np.ndarray  # network outputs on the statistics sample
    seconds: float = 0.0


def prong_reparametrize(
    omega: net.Params,
    phi: net.WhiteningCoeffs,
    spec: net.NetSpec,
    stats_inputs,
    epsilon: float,
) -> ReparamInfo:
    """Re-estimate whitening coefficients and re-project the parameters.

    One pass over the layers: layer i's input statistics (the sample mean
    and the eigendecomposition of the centered covariance, damped by
    ``epsilon``) give its new centering vector and whitening matrix; the
    layer is forwarded under its old coefficients, which yields the next
    layer's input; then its weights and bias are re-projected so that the
    canonical parameters, and thus the network function, are unchanged.
    The last layer's outputs are returned with each slot's eigenvalues;
    no covariance or eigenvector matrix outlives its layer. Updates
    ``omega`` and ``phi`` in place; no layer but the current one is copied.
    """
    t0 = time.perf_counter()
    h = net.as_batch(stats_inputs, spec.input_dim)
    eigenvalues = []
    for i in range(spec.depth):
        mom = linalg.estimate_moments(h)
        eig = linalg.sym_eig(mom.covariance)
        try:
            u = linalg.pca_from_eig(eig, epsilon)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"layer {i} activation covariance is singular with epsilon=0; "
                "set eigen_epsilon > 0"
            ) from exc
        h = net.layer_forward(omega, phi, spec, i, h)[2]
        v, d = net.project_layer(omega.weights[i], omega.biases[i],
                                 old=(phi.transforms[i], phi.centers[i]), new=(u, mom.mean))
        # written into the existing arrays: they are views of the model's
        # flat vector
        omega.weights[i][:] = v
        omega.biases[i][:] = d
        phi.transforms[i] = u
        phi.centers[i] = mom.mean.copy()
        eigenvalues.append(eig.eigenvalues)
    return ReparamInfo(eigenvalues, h, seconds=time.perf_counter() - t0)


def waterfall_anneal(history, policy: AnnealPolicy, alpha: float) -> float:
    """Divide alpha when the best metric over the last ``patience``
    evaluations fails to improve on the best of all earlier evaluations by
    at least ``min_relative_improvement`` (strict; at most one division per
    call). ``history`` is ordered, most recent last, lower is better; it
    needs an evaluation before the window."""
    if len(history) <= policy.patience:
        return alpha
    window_best = min(history[-policy.patience :])
    prior_best = min(history[: -policy.patience])
    denom = max(abs(prior_best), np.finfo(float).tiny)
    improvement = (prior_best - window_best) / denom
    if improvement < policy.min_relative_improvement:
        return alpha / policy.divisor
    return alpha


@dataclass
class TrainResult:
    rows: list
    model: net.Model
    state: OptimizerState
    diverged: bool = False
    divergence: dict | None = None
    timing: dict = field(default_factory=dict)
    probe_deltas: list = field(default_factory=list)
    reparam_steps: list = field(default_factory=list)


def _eval_loss(model, dataset, loss_kind):
    value, _ = net.loss(loss_kind, model.predict(dataset.inputs), dataset.targets)
    return value


def train(
    model: net.Model,
    train_data: Dataset,
    config: TrainConfig,
    *,
    optimizer: str,
    loss_kind: str,
    val_data: Dataset | None = None,
    probe_inputs=None,
    row_callback=None,
) -> TrainResult:
    """Run ``config.max_updates`` updates of the requested optimizer.

    Emits one MetricsRow per ``eval_interval`` updates plus one row at every
    reparametrization step (flagged). ``probe_inputs``, when given, is
    evaluated before and after every function-preserving event and the
    max-abs output changes are recorded. ``row_callback(model, step)`` may
    return a dict with extra row fields (e.g. a conditioning ratio).
    Non-finite training loss aborts with DivergenceError carrying a
    diagnostic record.
    """
    from .metrics import MetricsRow

    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    if optimizer == "sgd" and config.momentum != 0.0:
        raise ConfigError("optimizer 'sgd' requires momentum 0; use 'momentum'")
    whitened = optimizer == "prong"
    if whitened and model.phi is None:
        raise ConfigError(f"optimizer {optimizer!r} needs a whitened model")
    if optimizer == "bn" and not model.params.gains:
        raise ConfigError("optimizer 'bn' needs a batch-norm model")
    for data in (train_data, val_data):
        if data is None:
            continue
        if data.inputs.shape[1] != model.spec.input_dim:
            raise ConfigError(f"dataset input width {data.inputs.shape[1]} does not match "
                              f"the model's input width {model.spec.input_dim}")
        if data.targets.shape[1] != model.spec.output_dim:
            raise ConfigError(f"dataset target width {data.targets.shape[1]} does not match "
                              f"the model's output width {model.spec.output_dim}")
    if optimizer == "bn" and (config.batch_size == 1 or train_data.n % config.batch_size == 1):
        # BatchPlan's last batch of an epoch holds n % batch_size rows, and
        # batch statistics need two
        raise ConfigError(
            f"optimizer 'bn' needs batches of at least 2 rows; n={train_data.n} training rows "
            f"with batch_size={config.batch_size} leave a one-row batch"
        )
    if whitened and not config.freeze_whitening and train_data.n < 2:
        # the reparametrization estimates moments from min(stat_samples, n) rows
        raise ConfigError(
            f"optimizer 'prong' needs at least 2 training rows, got n={train_data.n}")

    state = OptimizerState.init(model.params.vector, config, rmsprop=optimizer == "rmsprop")
    step_fn = rmsprop_step if optimizer == "rmsprop" else sgd_step
    gradient = model.layout()  # every step's backward writes here
    plan = BatchPlan(seed=config.seed, batch_size=config.batch_size)
    stats_rng = np.random.default_rng([config.seed, 104729])

    rows: list = []
    result = TrainResult(rows, model, state)
    start = time.perf_counter()
    reparam_seconds = 0.0
    loss_sum, loss_count = 0.0, 0
    eval_cache: dict[int, float] = {}
    anneal_history: list[float] = []
    eval_set = val_data if val_data is not None else train_data

    def evaluate(step):
        if step not in eval_cache:
            eval_cache[step] = _eval_loss(model, eval_set, loss_kind)
        return eval_cache[step]

    def emit(step, train_loss, reparam_event):
        if reparam_event and rows and rows[-1].step == step:
            # an interval row for this step already exists; reparametrization
            # preserves the function, so just flag it
            rows[-1].reparam_event = True
            return
        extra = row_callback(model, step) if row_callback else {}
        rows.append(
            MetricsRow(
                step=step,
                wallclock_seconds=time.perf_counter() - start,
                train_loss=train_loss,
                eval_loss=evaluate(step),
                learning_rate=state.alpha,
                cond_ratio=extra.get("cond_ratio") if extra else None,
                reparam_event=reparam_event,
            )
        )

    for t in range(config.max_updates):
        if whitened and not config.freeze_whitening and t % config.reparam_period == 0:
            before = model.predict(probe_inputs) if probe_inputs is not None else None
            take = min(config.stat_samples, train_data.n)
            idx = stats_rng.choice(train_data.n, size=take, replace=False)
            info = prong_reparametrize(
                model.params, model.phi, model.spec, train_data.inputs[idx], config.eigen_epsilon
            )
            reparam_seconds += info.seconds
            if config.reset_momentum_on_reparam:
                state.reset_momentum()
            if before is not None:
                after = model.predict(probe_inputs)
                result.probe_deltas.append(float(np.abs(after - before).max()))
            result.reparam_steps.append(t)
            stats_loss, _ = net.loss(loss_kind, info.outputs, train_data.targets[idx])
            del info  # not kept alive through the next reparametrization
            emit(t, stats_loss, reparam_event=True)

        batch = next_batch(train_data, plan)
        try:
            trace = model.forward(batch.inputs, training=True)
            value, grad = net.loss(loss_kind, trace.outputs, batch.targets)
        except NumericError as exc:
            value = float("nan")
            numeric_reason = str(exc)
        else:
            numeric_reason = None
        if not np.isfinite(value):
            result.diverged = True
            result.divergence = {
                "step": t,
                "train_loss": value,
                "learning_rate": state.alpha,
                "optimizer": optimizer,
            }
            if numeric_reason:
                result.divergence["reason"] = numeric_reason
            result.timing = _timing(start, reparam_seconds)
            error = DivergenceError(
                f"training loss became non-finite at step {t}", result.divergence
            )
            error.result = result
            raise error
        loss_sum += value
        loss_count += 1
        model.backward(trace, grad, out=gradient)
        step_fn(model.params.vector, gradient.vector, state, config)

        done = t + 1
        if config.anneal is not None and done % config.anneal.eval_interval == 0:
            anneal_history.append(evaluate(done))
            alpha = waterfall_anneal(anneal_history, config.anneal, state.alpha)
            if alpha != state.alpha:  # the next division waits a full window at the new rate
                anneal_history[:] = [min(anneal_history)]
                state.alpha = alpha
        if done % config.eval_interval == 0:
            emit(done, loss_sum / max(loss_count, 1), reparam_event=False)
            loss_sum, loss_count = 0.0, 0

    result.timing = _timing(start, reparam_seconds)
    return result


def _timing(start, reparam_seconds):
    total = time.perf_counter() - start
    return {
        "total_seconds": total,
        "reparam_seconds": reparam_seconds,
        "reparam_fraction": reparam_seconds / total if total > 0 else 0.0,
    }
