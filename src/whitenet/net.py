"""Feedforward network engine.

Supports two parametrizations of the same function family:

* canonical:  h_i = f_i(W_i h_{i-1} + b_i)
* whitened:   h_i = f_i(V_i a_{i-1} + d_i),  a_{i-1} = U_{i-1}(h_{i-1} - c_{i-1})

The whitening coefficients (U, c) are indexed by the *input slot* they
transform: slot i holds the pair applied to the input of layer i (slot 0
acts on the network input). They are constants from the optimizer's point
of view. The two parametrizations are linked by exact linear projections
that preserve the network function:

    W_i = V_i U_{i-1},  b_i = d_i - W_i c_{i-1}        (to canonical)
    V_i = W_i U_{i-1}^{-1},  d_i = b_i + W_i c_{i-1}   (to whitened)

Evaluation is batched: inputs are stacked as rows, per-example semantics
are identical to the single-vector case, and gradients are averaged over
the batch (the 1/B factor enters through the loss gradient).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    ConsistencyError,
    DimensionError,
    InsufficientBatchError,
    NumericError,
)

NONLINEARITIES = ("sigmoid", "tanh", "relu", "softmax", "identity")
LOSS_KINDS = ("squared_error", "binary_cross_entropy", "categorical_cross_entropy")

PROB_CLAMP = 1e-12
BN_STD_FLOOR = 1e-6


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    nonlinearity: str

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError(f"layer dims must be positive, got {self}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")


@dataclass(frozen=True)
class NetSpec:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionError(f"layer chain mismatch: {a} -> {b}")
        for layer in self.layers[:-1]:
            if layer.nonlinearity == "softmax":
                raise ValueError("softmax is only allowed as the final layer")

    @classmethod
    def mlp(cls, sizes, hidden="tanh", head="sigmoid"):
        """Chain spec from a size list [in, h1, ..., out]."""
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        kinds = [hidden] * (len(sizes) - 2) + [head]
        return cls(
            tuple(
                LayerSpec(int(a), int(b), k)
                for a, b, k in zip(sizes, sizes[1:], kinds)
            )
        )

    @property
    def depth(self):
        return len(self.layers)

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    @property
    def output_dim(self):
        return self.layers[-1].out_dim

    @property
    def sizes(self):
        return [self.layers[0].in_dim] + [l.out_dim for l in self.layers]


@dataclass
class CanonicalParams:
    weights: list  # W_i, (out_dim, in_dim)
    biases: list  # b_i, (out_dim,)

    def copy(self):
        return CanonicalParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class WhitenedParams:
    weights: list  # V_i, (out_dim, in_dim)
    biases: list  # d_i, (out_dim,)

    def copy(self):
        return WhitenedParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class WhiteningCoeffs:
    """Per input slot i: whitening matrix U_i and centering vector c_i."""

    transforms: list  # U_i, square (in_dim of layer i)
    centers: list  # c_i

    @classmethod
    def identity(cls, spec: NetSpec):
        return cls(
            [np.eye(layer.in_dim) for layer in spec.layers],
            [np.zeros(layer.in_dim) for layer in spec.layers],
        )

    def copy(self):
        return WhiteningCoeffs(
            [u.copy() for u in self.transforms], [c.copy() for c in self.centers]
        )


@dataclass
class BatchNormParams:
    """Learned per-unit gain and shift applied to standardized pre-activations."""

    gains: list
    shifts: list

    @classmethod
    def init(cls, spec: NetSpec):
        return cls(
            [np.ones(layer.out_dim) for layer in spec.layers],
            [np.zeros(layer.out_dim) for layer in spec.layers],
        )

    def copy(self):
        return BatchNormParams([g.copy() for g in self.gains], [s.copy() for s in self.shifts])


@dataclass
class BatchNormState:
    """Running mean/variance used at inference time."""

    running_mean: list
    running_var: list

    @classmethod
    def init(cls, spec: NetSpec):
        return cls(
            [np.zeros(layer.out_dim) for layer in spec.layers],
            [np.ones(layer.out_dim) for layer in spec.layers],
        )

    def copy(self):
        return BatchNormState(
            [m.copy() for m in self.running_mean], [v.copy() for v in self.running_var]
        )


@dataclass
class ForwardTrace:
    mode: str  # "canonical" | "whitened"
    inputs: np.ndarray  # (B, N_0)
    pre_activations: list  # z_i, (B, N_i)
    activations: list  # h_i, (B, N_i)
    whitened_inputs: list | None = None  # a_i per input slot (whitened mode)
    bn: list | None = None  # per-layer BN stash dicts (BN mode)
    squeeze: bool = False  # original input was a single vector

    @property
    def outputs(self):
        return self.activations[-1]

    def layer_input(self, i):
        return self.inputs if i == 0 else self.activations[i - 1]


@dataclass
class BackwardTrace:
    deltas: list  # dLoss/dz_i, (B, N_i)
    weight_grads: list
    bias_grads: list
    gain_grads: list | None = None  # BN mode only
    shift_grads: list | None = None


def _activate(kind, z):
    """h = f(z). Finite z gives finite h for every kind, so the forwards
    check z and not h."""
    if kind == "sigmoid":
        # Per element this is 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) for z < 0:
        # the overflow-free masked form, evaluated without boolean masks, and
        # bitwise equal to it.
        return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "identity":
        return z.copy()
    if kind == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown nonlinearity {kind!r}")


def _activation_vjp(kind, z, h, upstream):
    """dLoss/dz from dLoss/dh for an elementwise or softmax nonlinearity."""
    # sigmoid and tanh keep the product order (u*h)*(1-h) and u*(1-h*h), so
    # the in-place forms round exactly as the plain expressions do
    if kind == "sigmoid":
        out = upstream * h
        out *= 1.0 - h
        return out
    if kind == "tanh":
        out = h * h
        np.subtract(1.0, out, out=out)
        out *= upstream
        return out
    if kind == "relu":
        return upstream * (z > 0.0)
    if kind == "identity":
        return upstream.copy()
    if kind == "softmax":
        inner = (upstream * h).sum(axis=1, keepdims=True)
        return h * (upstream - inner)
    raise ValueError(f"unknown nonlinearity {kind!r}")


def _as_batch(x, dim, what="input"):
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionError(f"{what} must have {dim} features, got shape {np.shape(x)}")
    return arr, squeeze


def _check_finite(z, i, what):
    if not np.isfinite(z).all():
        raise NumericError(f"non-finite {what} at layer {i}")


def forward_canonical(params: CanonicalParams, spec: NetSpec, x) -> ForwardTrace:
    h, squeeze = _as_batch(x, spec.input_dim)
    inputs = h
    zs, hs = [], []
    for i, layer in enumerate(spec.layers):
        z = h @ params.weights[i].T + params.biases[i]
        _check_finite(z, i, "pre-activation")
        h = _activate(layer.nonlinearity, z)
        zs.append(z)
        hs.append(h)
    return ForwardTrace("canonical", inputs, zs, hs, squeeze=squeeze)


def forward_whitened(
    omega: WhitenedParams, phi: WhiteningCoeffs, spec: NetSpec, x
) -> ForwardTrace:
    h, squeeze = _as_batch(x, spec.input_dim)
    inputs = h
    zs, hs, whitened = [], [], []
    for i, layer in enumerate(spec.layers):
        a = (h - phi.centers[i]) @ phi.transforms[i].T
        z = a @ omega.weights[i].T + omega.biases[i]
        _check_finite(z, i, "pre-activation")
        h = _activate(layer.nonlinearity, z)
        whitened.append(a)
        zs.append(z)
        hs.append(h)
    return ForwardTrace("whitened", inputs, zs, hs, whitened_inputs=whitened, squeeze=squeeze)


def forward_bn(
    params: CanonicalParams,
    bn_params: BatchNormParams,
    spec: NetSpec,
    x,
    state: BatchNormState | None = None,
    *,
    training: bool = True,
    decay: float = 0.9,
) -> ForwardTrace:
    """Canonical forward with each pre-activation batch-standardized, then
    affinely transformed by the learned gain/shift before the nonlinearity.

    In training mode the batch mean/std are used (and ``state`` running
    averages updated in place when given); at inference the running
    averages are used instead.
    """
    h, squeeze = _as_batch(x, spec.input_dim)
    if training and h.shape[0] < 2:
        raise InsufficientBatchError("batch normalization needs batch_size >= 2")
    inputs = h
    zs, hs, stash = [], [], []
    for i, layer in enumerate(spec.layers):
        z = h @ params.weights[i].T + params.biases[i]
        _check_finite(z, i, "pre-activation")
        if training:
            mean = z.mean(axis=0)
            var = z.var(axis=0)
            if state is not None:
                state.running_mean[i] = decay * state.running_mean[i] + (1 - decay) * mean
                state.running_var[i] = decay * state.running_var[i] + (1 - decay) * var
        else:
            if state is None:
                raise ConsistencyError("inference-mode BN forward needs running state")
            mean = state.running_mean[i]
            var = state.running_var[i]
        std = np.sqrt(var)
        floored = std < BN_STD_FLOOR
        std = np.maximum(std, BN_STD_FLOOR)
        zhat = (z - mean) / std
        y = bn_params.gains[i] * zhat + bn_params.shifts[i]
        h = _activate(layer.nonlinearity, y)
        _check_finite(h, i, "activation")  # gain * zhat + shift can overflow
        zs.append(z)
        hs.append(h)
        stash.append(
            {"zhat": zhat, "std": std, "floored": floored, "y": y, "training": training}
        )
    return ForwardTrace("canonical", inputs, zs, hs, bn=stash, squeeze=squeeze)


def loss(kind: str, output, target):
    """Batch-mean loss value and its gradient with respect to the output.

    The gradient carries the 1/B batch averaging, so downstream backward
    passes sum over the batch without rescaling. Cross-entropy outputs are
    clamped away from 0/1 at 1e-12.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    o = np.atleast_2d(np.asarray(output, dtype=np.float64))
    t = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if o.shape != t.shape:
        raise DimensionError(f"output shape {o.shape} != target shape {t.shape}")
    b = o.shape[0]
    if kind == "squared_error":
        r = o - t
        with np.errstate(over="ignore"):
            value = 0.5 * float((r * r).sum()) / b
        grad = r / b
    elif kind == "binary_cross_entropy":
        p = np.clip(o, PROB_CLAMP, 1.0 - PROB_CLAMP)
        value = -float((t * np.log(p) + (1.0 - t) * np.log1p(-p)).sum()) / b
        grad = (-t / p + (1.0 - t) / (1.0 - p)) / b
    else:  # categorical_cross_entropy
        p = np.clip(o, PROB_CLAMP, 1.0)
        value = -float((t * np.log(p)).sum()) / b
        grad = -(t / p) / b
    if np.asarray(output).ndim == 1:
        grad = grad[0]
    return value, grad


def _propagate_deltas(trace, weights, spec, delta_last, phi=None):
    """Backpropagate dLoss/dz from the last layer to all layers.

    ``weights`` is the list of layer weight matrices (W or V); for the
    whitened parametrization ``phi`` supplies the U factor crossed when
    stepping from a layer's whitened input back to the previous activation.
    """
    deltas = [None] * spec.depth
    deltas[-1] = delta_last
    for i in range(spec.depth - 1, 0, -1):
        upstream = deltas[i] @ weights[i]
        if phi is not None:
            upstream = upstream @ phi.transforms[i]
        layer = spec.layers[i - 1]
        deltas[i - 1] = _activation_vjp(
            layer.nonlinearity, trace.pre_activations[i - 1], trace.activations[i - 1], upstream
        )
    return deltas


def output_delta(trace, spec, loss_grad):
    """dLoss/dz at the final layer from dLoss/dh_L."""
    g, _ = _as_batch(loss_grad, spec.output_dim, "loss gradient")
    if g.shape[0] != trace.outputs.shape[0]:
        raise ConsistencyError("loss gradient batch size does not match trace")
    last = spec.layers[-1]
    return _activation_vjp(last.nonlinearity, trace.pre_activations[-1], trace.outputs, g)


def backpropagate_deltas(trace, params, spec, delta_last, phi=None):
    """Deltas for every layer given dLoss/dz at the output layer.

    Exposed for Fisher computations, which enumerate output distributions
    and therefore construct the final delta analytically.
    """
    if trace.mode == "whitened" and phi is None:
        raise ConsistencyError("whitened trace needs whitening coefficients")
    return _propagate_deltas(trace, params.weights, spec, delta_last, phi=phi)


def backward_canonical(
    trace: ForwardTrace, params: CanonicalParams, spec: NetSpec, loss_grad
) -> BackwardTrace:
    if trace.mode != "canonical" or trace.bn is not None:
        raise ConsistencyError("trace was not produced by forward_canonical")
    deltas = _propagate_deltas(trace, params.weights, spec, output_delta(trace, spec, loss_grad))
    wg = [deltas[i].T @ trace.layer_input(i) for i in range(spec.depth)]
    bg = [deltas[i].sum(axis=0) for i in range(spec.depth)]
    return BackwardTrace(deltas, wg, bg)


def backward_whitened(
    trace: ForwardTrace,
    omega: WhitenedParams,
    phi: WhiteningCoeffs,
    spec: NetSpec,
    loss_grad,
) -> BackwardTrace:
    if trace.mode != "whitened" or trace.whitened_inputs is None:
        raise ConsistencyError("trace was not produced by forward_whitened")
    deltas = _propagate_deltas(
        trace, omega.weights, spec, output_delta(trace, spec, loss_grad), phi=phi
    )
    wg = [deltas[i].T @ trace.whitened_inputs[i] for i in range(spec.depth)]
    bg = [deltas[i].sum(axis=0) for i in range(spec.depth)]
    return BackwardTrace(deltas, wg, bg)


def backward_bn(
    trace: ForwardTrace,
    params: CanonicalParams,
    bn_params: BatchNormParams,
    spec: NetSpec,
    loss_grad,
) -> BackwardTrace:
    """Backward pass through batch normalization.

    Gradients flow through the batch statistics: for a standardized column
    zhat with gradient u = dL/dzhat, the raw pre-activation gradient is
    (u - mean(u) - zhat * mean(u * zhat)) / std; columns whose std hit the
    floor treat the floor as a constant.
    """
    if trace.bn is None:
        raise ConsistencyError("trace was not produced by forward_bn")
    g, _ = _as_batch(loss_grad, spec.output_dim, "loss gradient")
    deltas_z = [None] * spec.depth
    wg = [None] * spec.depth
    bg = [None] * spec.depth
    gg = [None] * spec.depth
    sg = [None] * spec.depth
    upstream = g
    for i in range(spec.depth - 1, -1, -1):
        stash = trace.bn[i]
        layer = spec.layers[i]
        dy = _activation_vjp(layer.nonlinearity, stash["y"], trace.activations[i], upstream)
        gg[i] = (dy * stash["zhat"]).sum(axis=0)
        sg[i] = dy.sum(axis=0)
        u = dy * bn_params.gains[i]
        if stash["training"]:
            coupled = (
                u - u.mean(axis=0) - stash["zhat"] * (u * stash["zhat"]).mean(axis=0)
            ) / stash["std"]
            flat = (u - u.mean(axis=0)) / stash["std"]
            dz = np.where(stash["floored"], flat, coupled)
        else:
            dz = u / stash["std"]
        deltas_z[i] = dz
        wg[i] = dz.T @ trace.layer_input(i)
        bg[i] = dz.sum(axis=0)
        if i > 0:
            upstream = dz @ params.weights[i]
    return BackwardTrace(deltas_z, wg, bg, gain_grads=gg, shift_grads=sg)


def project_to_canonical(omega: WhitenedParams, phi: WhiteningCoeffs) -> CanonicalParams:
    """Fold the whitening coefficients into canonical weights.

    Function-preserving: W = V U and b = d - W c, so that
    W h + b = V U (h - c) + d for every input.
    """
    weights, biases = [], []
    for v, d, u, c in zip(omega.weights, omega.biases, phi.transforms, phi.centers):
        w = v @ u
        weights.append(w)
        biases.append(d - w @ c)
    return CanonicalParams(weights, biases)


def project_to_whitened(theta: CanonicalParams, phi: WhiteningCoeffs) -> WhitenedParams:
    """Exact inverse of project_to_canonical for the same coefficients."""
    weights, biases = [], []
    for w, b, u, c in zip(theta.weights, theta.biases, phi.transforms, phi.centers):
        v = w @ linalg.invert_whitening(u)
        weights.append(v)
        biases.append(b + w @ c)
    return WhitenedParams(weights, biases)


def init_fan_in(spec: NetSpec, seed: int) -> CanonicalParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for layer in spec.layers:
        bound = 1.0 / np.sqrt(layer.in_dim)
        weights.append(rng.uniform(-bound, bound, size=(layer.out_dim, layer.in_dim)))
        biases.append(np.zeros(layer.out_dim))
    return CanonicalParams(weights, biases)


@dataclass
class Model:
    """A network snapshot: spec plus one concrete parametrization.

    ``kind`` is one of "canonical", "whitened", "bn". Whitened models carry
    their coefficients; BN models carry gain/shift parameters and running
    statistics. Forward/backward dispatch to the matching routines and the
    parameter/gradient lists line up index for index, which is what the
    optimizers operate on.
    """

    spec: NetSpec
    kind: str
    params: CanonicalParams | WhitenedParams
    phi: WhiteningCoeffs | None = None
    bn_params: BatchNormParams | None = None
    bn_state: BatchNormState | None = None
    bn_decay: float = 0.9

    @classmethod
    def canonical(cls, spec, params):
        return cls(spec, "canonical", params)

    @classmethod
    def whitened(cls, spec, omega, phi):
        return cls(spec, "whitened", omega, phi=phi)

    @classmethod
    def batch_norm(cls, spec, params, bn_params=None, bn_state=None, decay=0.9):
        return cls(
            spec,
            "bn",
            params,
            bn_params=bn_params or BatchNormParams.init(spec),
            bn_state=bn_state or BatchNormState.init(spec),
            bn_decay=decay,
        )

    def forward(self, x, training=False) -> ForwardTrace:
        if self.kind == "canonical":
            return forward_canonical(self.params, self.spec, x)
        if self.kind == "whitened":
            return forward_whitened(self.params, self.phi, self.spec, x)
        if self.kind == "bn":
            return forward_bn(
                self.params,
                self.bn_params,
                self.spec,
                x,
                state=self.bn_state,
                training=training,
                decay=self.bn_decay,
            )
        raise ConsistencyError(f"unknown model kind {self.kind!r}")

    def backward(self, trace, loss_grad) -> BackwardTrace:
        if self.kind == "canonical":
            return backward_canonical(trace, self.params, self.spec, loss_grad)
        if self.kind == "whitened":
            return backward_whitened(trace, self.params, self.phi, self.spec, loss_grad)
        if self.kind == "bn":
            return backward_bn(trace, self.params, self.bn_params, self.spec, loss_grad)
        raise ConsistencyError(f"unknown model kind {self.kind!r}")

    def outputs(self, x, training=False):
        out = self.forward(x, training=training).outputs
        return out[0] if np.asarray(x).ndim == 1 else out

    def parameter_arrays(self) -> list:
        arrays = []
        for w, b in zip(self.params.weights, self.params.biases):
            arrays.extend((w, b))
        if self.kind == "bn":
            for g, s in zip(self.bn_params.gains, self.bn_params.shifts):
                arrays.extend((g, s))
        return arrays

    def gradient_arrays(self, bt: BackwardTrace) -> list:
        arrays = []
        for w, b in zip(bt.weight_grads, bt.bias_grads):
            arrays.extend((w, b))
        if self.kind == "bn":
            for g, s in zip(bt.gain_grads, bt.shift_grads):
                arrays.extend((g, s))
        return arrays

    def copy(self):
        return Model(
            self.spec,
            self.kind,
            self.params.copy(),
            phi=self.phi.copy() if self.phi else None,
            bn_params=self.bn_params.copy() if self.bn_params else None,
            bn_state=self.bn_state.copy() if self.bn_state else None,
            bn_decay=self.bn_decay,
        )
