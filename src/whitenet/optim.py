"""Training algorithms.

The whitened trainer follows one amortized loop: every ``reparam_period``
updates (including update 0, which makes the first reparametrization act as
an initialization scheme) the canonical parameters are recovered, fresh
per-layer activation statistics are estimated from ``stat_samples`` points,
the whitening coefficients are rebuilt from the centered covariance
eigendecomposition with ``eigen_epsilon`` damping, and the model is
projected back - all without changing the network function. Plain
momentum-SGD runs on the whitened parameters in between; momentum buffers
are reset at each reparametrization by default (disable for ablation).

The "plus" variant additionally rescales each whitening matrix row by the
running standard deviation of the corresponding whitened activation after
every update, compensating the consuming weight columns so the forward
computation is preserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg, net
from .data import BatchPlan, Dataset, next_batch
from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    NumericError,
    SingularMatrixError,
)

OPTIMIZERS = ("sgd", "momentum", "rmsprop", "bn", "prong", "prong_plus")


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
    rescale_decay: float = 0.9
    rescale_floor: float = 1e-6

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
        if self.batch_size < 1 or self.max_updates < 0 or self.eval_interval < 1:
            raise ConfigError("batch_size/max_updates/eval_interval out of range")


@dataclass
class OptimizerState:
    alpha: float
    step: int = 0
    velocities: list | None = None
    mean_squares: list | None = None
    unit_std: list | None = None  # running std of whitened activations (plus variant)

    @classmethod
    def init(cls, arrays, config: TrainConfig, *, rmsprop=False, spec=None):
        state = cls(alpha=config.learning_rate)
        state.velocities = [np.zeros_like(a) for a in arrays]
        if rmsprop:
            state.mean_squares = [np.zeros_like(a) for a in arrays]
        if spec is not None:
            state.unit_std = [np.ones(layer.in_dim) for layer in spec.layers]
        return state

    def reset_momentum(self):
        for v in self.velocities:
            v[:] = 0.0


def _check_finite_grads(grads):
    for g in grads:
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient; step refused")


def sgd_step(arrays, grads, state: OptimizerState, config: TrainConfig):
    """Classical momentum: v <- m v + g; p <- p - alpha v (plain SGD at m=0)."""
    _check_finite_grads(grads)
    m = config.momentum
    for p, g, v in zip(arrays, grads, state.velocities):
        if m != 0.0:
            v *= m
            v += g
            p -= state.alpha * v
        else:
            p -= state.alpha * g
    state.step += 1


def rmsprop_step(arrays, grads, state: OptimizerState, config: TrainConfig):
    """s <- rho s + (1-rho) g^2; p <- p - alpha g / (sqrt(s) + damping).

    The damping bounds the per-coordinate multiplier at alpha/damping."""
    _check_finite_grads(grads)
    rho = config.rmsprop_decay
    for p, g, s in zip(arrays, grads, state.mean_squares):
        s *= rho
        s += (1.0 - rho) * g * g
        p -= state.alpha * g / (np.sqrt(s) + config.rmsprop_damping)
    state.step += 1


@dataclass
class ReparamInfo:
    spectra: list  # per input slot EigenDecomposition of the centered covariance
    moments: list  # per input slot MomentEstimate
    outputs: np.ndarray  # network outputs on the statistics sample
    seconds: float = 0.0


def prong_reparametrize(
    omega: net.WhitenedParams,
    phi: net.WhiteningCoeffs,
    spec: net.NetSpec,
    stats_inputs,
    epsilon: float,
) -> ReparamInfo:
    """Re-estimate whitening coefficients and re-project the parameters.

    One forward sweep of ``stats_inputs`` under the old parametrization
    supplies every layer's activation statistics. The centering vectors
    become the sample means; the whitening matrices come from the
    eigendecomposition of the centered covariances with ``epsilon`` damping.
    The canonical parameters are held fixed across the swap, so the network
    function is unchanged; the sweep's outputs are returned with the spectra.
    Updates ``omega`` and ``phi`` in place.
    """
    t0 = time.perf_counter()
    theta = net.project_to_canonical(omega, phi)
    trace = net.forward_whitened(omega, phi, spec, stats_inputs)
    spectra, moments = [], []
    for i in range(spec.depth):
        h = trace.layer_input(i)
        mom = linalg.estimate_moments(h)
        eig = linalg.sym_eig(mom.covariance)
        try:
            u = linalg.pca_from_eig(eig, epsilon)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"layer {i} activation covariance is singular with epsilon=0; "
                "set eigen_epsilon > 0"
            ) from exc
        phi.transforms[i] = u
        phi.centers[i] = mom.mean.copy()
        spectra.append(eig)
        moments.append(mom)
    fresh = net.project_to_whitened(theta, phi)
    # copy into the existing arrays: optimizer buffers and parameter lists
    # alias them, and shapes are unchanged by a reparametrization
    for i in range(spec.depth):
        omega.weights[i][:] = fresh.weights[i]
        omega.biases[i][:] = fresh.biases[i]
    return ReparamInfo(spectra, moments, trace.outputs, seconds=time.perf_counter() - t0)


def prong_plus_rescale(
    omega: net.WhitenedParams,
    phi: net.WhiteningCoeffs,
    trace: net.ForwardTrace,
    state: OptimizerState,
    config: TrainConfig,
):
    """Diagonal rescale of each whitening matrix by the running std of its
    whitened activations, with the consuming weight columns (and their
    velocity buffers) rescaled to preserve the feed-forward computation."""
    if trace.whitened_inputs is None:
        raise ConsistencyError("rescale needs a whitened-mode forward trace")
    decay = config.rescale_decay
    for i in range(len(phi.transforms)):
        batch_std = trace.whitened_inputs[i].std(axis=0)
        ema = state.unit_std[i]
        ema *= decay
        ema += (1.0 - decay) * batch_std
        d = np.maximum(ema, config.rescale_floor)
        phi.transforms[i] /= d[:, None]
        omega.weights[i] *= d[None, :]
        if state.velocities is not None:
            state.velocities[2 * i] *= d[None, :]
        state.unit_std[i] = ema / d


def waterfall_anneal(history, policy: AnnealPolicy, alpha: float) -> float:
    """Divide alpha when the best metric over the last ``patience``
    evaluations fails to improve on the best of all earlier evaluations by
    at least ``min_relative_improvement`` (strict; at most one division per
    call). ``history`` is ordered, most recent last, lower is better."""
    if len(history) < policy.patience or len(history) < 2:
        return alpha
    window_best = min(history[-policy.patience :])
    prior_best = min(history[:-1])
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
    trace = model.forward(dataset.inputs, training=False)
    value, _ = net.loss(loss_kind, trace.outputs, dataset.targets)
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
    whitened = optimizer in ("prong", "prong_plus")
    if whitened and model.kind != "whitened":
        raise ConfigError(f"optimizer {optimizer!r} needs a whitened model")
    if optimizer == "bn" and model.kind != "bn":
        raise ConfigError("optimizer 'bn' needs a batch-norm model")

    arrays = model.parameter_arrays()
    state = OptimizerState.init(
        arrays,
        config,
        rmsprop=optimizer == "rmsprop",
        spec=model.spec if whitened else None,
    )
    step_fn = rmsprop_step if optimizer == "rmsprop" else sgd_step
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

    def probe_delta(before):
        after = model.forward(probe_inputs).outputs
        return float(np.abs(after - before).max())

    for t in range(config.max_updates):
        if whitened and not config.freeze_whitening and t % config.reparam_period == 0:
            before = model.forward(probe_inputs).outputs if probe_inputs is not None else None
            take = min(config.stat_samples, train_data.n)
            idx = stats_rng.choice(train_data.n, size=take, replace=False)
            info = prong_reparametrize(
                model.params, model.phi, model.spec, train_data.inputs[idx], config.eigen_epsilon
            )
            reparam_seconds += info.seconds
            if config.reset_momentum_on_reparam:
                state.reset_momentum()
            if state.unit_std is not None:
                state.unit_std = [np.ones_like(s) for s in state.unit_std]
            if before is not None:
                result.probe_deltas.append(probe_delta(before))
            result.reparam_steps.append(t)
            stats_loss, _ = net.loss(loss_kind, info.outputs, train_data.targets[idx])
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
        bt = model.backward(trace, grad)
        step_fn(arrays, model.gradient_arrays(bt), state, config)

        if optimizer == "prong_plus":
            before = model.forward(probe_inputs).outputs if probe_inputs is not None else None
            prong_plus_rescale(model.params, model.phi, trace, state, config)
            if before is not None:
                result.probe_deltas.append(probe_delta(before))

        done = t + 1
        if config.anneal is not None and done % config.anneal.eval_interval == 0:
            anneal_history.append(evaluate(done))
            state.alpha = waterfall_anneal(anneal_history, config.anneal, state.alpha)
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
