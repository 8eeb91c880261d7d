"""Training algorithms.

The whitened trainer follows one amortized loop: every ``reparam_period``
updates (including update 0, which makes the first reparametrization act as
an initialization scheme) one pass over the layers estimates each layer's
input statistics from ``stat_samples`` points and rebuilds its slot's
center and preconditioner P = (Sigma + eps I)^-1, rank-aware from the range
of the centered covariance with ``eigen_epsilon`` damping (``linalg``). The
parameters are not touched, so the network function is unchanged by
construction. In between, plain momentum-SGD steps the canonical
parameters along the whitened gradient mapped to them, (h - c) P in place
of h (``net.backward_whitened``): the whitened parametrization's updates,
in one parameter space. The velocity is zeroed at each
reparametrization. Evaluation losses come from ``Model.predict``, a row
block at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg, net
from .data import BatchPlan, Dataset, next_batch
from .errors import ConfigError, NumericError, SingularMatrixError

OPTIMIZERS = ("sgd", "momentum", "rmsprop", "bn", "prong")


@dataclass
class TrainConfig:
    """The ``train`` section: one key per field, required where the field
    has no default; a value that breaks its rule is refused by name."""

    learning_rate: float
    momentum: float = 0.0
    batch_size: int = 64
    reparam_period: int = 1000
    stat_samples: int = 100
    eigen_epsilon: float = 1e-2
    rmsprop_decay: float = 0.99
    rmsprop_damping: float = 0.01
    seed: int = 0
    max_updates: int = 1000
    eval_interval: int = 100

    def __post_init__(self):
        ConfigError.check("train", {
            "learning_rate": (self.learning_rate > 0, "> 0"),
            "momentum": (0.0 <= self.momentum < 1.0, "in [0, 1)"),
            "batch_size": (self.batch_size >= 1, "an integer >= 1"),
            "reparam_period": (self.reparam_period >= 1, "an integer >= 1"),
            "stat_samples": (self.stat_samples >= 2, "an integer >= 2"),
            "eigen_epsilon": (self.eigen_epsilon >= 0, ">= 0"),
            "rmsprop_decay": (0.0 < self.rmsprop_decay < 1.0, "in (0, 1)"),
            "rmsprop_damping": (self.rmsprop_damping > 0, "> 0"),
            "seed": (self.seed >= 0, "an integer >= 0"),
            "max_updates": (self.max_updates >= 0, "an integer >= 0"),
            "eval_interval": (self.eval_interval >= 1, "an integer >= 1"),
        })


@dataclass
class OptimizerState:
    """Step count and the optimizer's buffers. ``velocity`` and
    ``mean_square`` are flat vectors laid out as ``Model.params.vector``."""

    velocity: np.ndarray
    step: int = 0
    mean_square: np.ndarray | None = None

    @classmethod
    def init(cls, vector, *, rmsprop=False):
        state = cls(velocity=np.zeros_like(vector))
        if rmsprop:
            state.mean_square = np.zeros_like(vector)
        return state


def sgd_step(vector, grad, state: OptimizerState, config: TrainConfig):
    """Classical momentum: v <- m v + g; p <- p - alpha v (plain SGD at m=0),
    with alpha the config's ``learning_rate``.

    ``vector`` and ``grad`` are flat; the step is refused, with nothing
    changed, when ``grad`` holds a non-finite entry. The step consumes
    ``grad``: alpha v (alpha g) is written into it and subtracted from
    there, so no temporary the size of ``vector`` is made."""
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient; step refused")
    m = config.momentum
    if m != 0.0:
        state.velocity *= m
        state.velocity += grad
    np.multiply(state.velocity if m != 0.0 else grad, config.learning_rate, out=grad)
    vector -= grad
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
    vector -= config.learning_rate * grad / (np.sqrt(s) + config.rmsprop_damping)
    state.step += 1


@dataclass
class ReparamInfo:
    # per input slot, the d eigenvalues of the centered covariance: its
    # range, descending, then zeros
    eigenvalues: list
    outputs: np.ndarray  # network outputs on the statistics sample
    seconds: float = 0.0


def prong_reparametrize(
    omega: net.Params,
    phi: net.WhiteningCoeffs,
    spec: net.NetSpec,
    stats_inputs,
    epsilon: float,
) -> ReparamInfo:
    """Re-estimate the whitening coefficients ``phi`` of the canonical
    parameters ``omega``, which it does not change.

    One pass over the layers: layer i's input statistics (the sample mean
    and the range of the centered covariance, from the smaller of the
    covariance and the Gram matrix) give its new center and its
    preconditioner, damped by ``epsilon``; the layer's forward yields the
    next layer's input. The last layer's outputs are returned with each
    slot's eigenvalues; no second-moment or eigenvector matrix outlives its
    layer. Updates ``phi`` in place.
    """
    t0 = time.perf_counter()
    h = net.as_batch(stats_inputs, spec.input_dim)
    eigenvalues = []
    for i in range(spec.depth):
        mom = linalg.estimate_moments(h)
        lam, e = linalg.covariance_range(mom, *linalg.sym_eig(
            mom.covariance if mom.gram is None else mom.gram))
        try:
            phi.preconditioners[i] = linalg.preconditioner(lam, e, epsilon)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"layer {i} activation covariance is singular with epsilon=0; "
                "set eigen_epsilon > 0"
            ) from exc
        phi.centers[i] = mom.mean
        h = net.layer_forward(omega, spec, i, h)[0]
        eigenvalues.append(lam)
    return ReparamInfo(eigenvalues, h, seconds=time.perf_counter() - t0)


def check_run(model: net.Model, train_data: Dataset, val_data: Dataset | None,
              config: TrainConfig, optimizer: str):
    """Refuse, with a ConfigError, a run that cannot start: the rules that
    need the model, the data or the optimizer. ``train`` checks them first;
    the commands check them before they write anything."""
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    if optimizer == "sgd" and config.momentum != 0.0:
        raise ConfigError("optimizer 'sgd' requires momentum 0; use 'momentum'")
    whitened = optimizer == "prong"
    if whitened and model.phi is None:
        raise ConfigError(f"optimizer {optimizer!r} needs a whitened model")
    if optimizer == "bn" and not model.params.gains:
        raise ConfigError("optimizer 'bn' needs a batch-norm model")
    for data in (d for d in (train_data, val_data) if d is not None):
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
    if whitened and train_data.n < 2:
        # the reparametrization estimates moments from min(stat_samples, n) rows
        raise ConfigError(
            f"optimizer 'prong' needs at least 2 training rows, got n={train_data.n}")


@dataclass
class TrainResult:
    rows: list
    model: net.Model
    state: OptimizerState
    divergence: dict | None = None  # None for a run of all max_updates updates
    timing: dict = field(default_factory=dict)
    reparam_steps: list = field(default_factory=list)


def _eval_loss(model, dataset, loss_kind):
    return net.loss(loss_kind, model.predict(dataset.inputs), dataset.targets,
                    gradient=False)[0]


def train(
    model: net.Model,
    train_data: Dataset,
    config: TrainConfig,
    *,
    optimizer: str,
    loss_kind: str,
    val_data: Dataset | None = None,
    row_callback=None,
) -> TrainResult:
    """Run ``config.max_updates`` updates of the requested optimizer, once
    ``check_run`` has passed the run (a ConfigError when it does not).

    Emits one MetricsRow per ``eval_interval`` updates plus one row at every
    reparametrization step (flagged); every update uses the one
    ``learning_rate``, which each row logs.
    ``row_callback(model, step)``, when given, returns the row's
    ``cond_ratio`` or None.

    A run ends early, and still returns, on a non-finite training loss or
    on a ``NumericError`` from the forward, loss, step, reparametrization
    or evaluation: ``divergence`` then records the updates applied
    (``step``), the batch's training loss (NaN where none was computed),
    the learning rate, the optimizer and the reason.
    """
    from .metrics import MetricsRow

    check_run(model, train_data, val_data, config, optimizer)
    whitened = optimizer == "prong"
    state = OptimizerState.init(model.params.vector, rmsprop=optimizer == "rmsprop")
    step_fn = rmsprop_step if optimizer == "rmsprop" else sgd_step
    gradient = model.layout()  # every backward writes here; the step consumes it
    plan = BatchPlan(seed=config.seed, batch_size=config.batch_size)
    stats_rng = np.random.default_rng([config.seed, 104729])

    rows: list = []
    result = TrainResult(rows, model, state)
    start = time.perf_counter()
    reparam_seconds = 0.0
    loss_sum, loss_count = 0.0, 0
    eval_set = val_data if val_data is not None else train_data

    def emit(step, train_loss, reparam_event):
        if reparam_event and rows and rows[-1].step == step:
            # an interval row for this step already exists; reparametrization
            # preserves the function, so just flag it
            rows[-1].reparam_event = True
            return
        eval_loss = _eval_loss(model, eval_set, loss_kind)
        cond_ratio = row_callback(model, step) if row_callback else None
        rows.append(
            MetricsRow(
                step=step,
                wallclock_seconds=time.perf_counter() - start,
                train_loss=train_loss,
                eval_loss=eval_loss,
                learning_rate=config.learning_rate,
                cond_ratio=cond_ratio,
                reparam_event=reparam_event,
            )
        )

    for t in range(config.max_updates):
        value = float("nan")
        try:
            if whitened and t % config.reparam_period == 0:
                take = min(config.stat_samples, train_data.n)
                idx = stats_rng.choice(train_data.n, size=take, replace=False)
                info = prong_reparametrize(
                    model.params, model.phi, model.spec, train_data.inputs[idx],
                    config.eigen_epsilon
                )
                reparam_seconds += info.seconds
                state.velocity.fill(0.0)
                result.reparam_steps.append(t)
                stats_loss, _ = net.loss(loss_kind, info.outputs, train_data.targets[idx])
                del info  # not kept alive through the next reparametrization
                emit(t, stats_loss, reparam_event=True)

            batch = next_batch(train_data, plan)
            trace = model.forward(batch.inputs, training=True)
            value, grad = net.loss(loss_kind, trace.outputs, batch.targets)
            if not np.isfinite(value):
                raise NumericError("non-finite training loss")
            loss_sum += value
            loss_count += 1
            model.backward(trace, grad, out=gradient)
            del trace, grad  # no old trace is alive through the next forward
            step_fn(model.params.vector, gradient.vector, state, config)
            if state.step % config.eval_interval == 0:
                emit(state.step, loss_sum / loss_count, reparam_event=False)
                loss_sum, loss_count = 0.0, 0
        except NumericError as exc:
            result.divergence = {
                "step": state.step,
                "train_loss": value,
                "learning_rate": config.learning_rate,
                "optimizer": optimizer,
                "reason": str(exc),
            }
            break

    total = time.perf_counter() - start
    result.timing = {
        "total_seconds": total,
        "reparam_seconds": reparam_seconds,
        "reparam_fraction": reparam_seconds / total if total > 0 else 0.0,
    }
    return result
