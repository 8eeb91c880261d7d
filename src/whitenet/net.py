"""Feedforward network engine.

Every model holds the canonical parameters and runs one forward,
h_i = f_i(W_i h_{i-1} + b_i). Batch normalization is one more step of the
same run: with gains in the parameters, each pre-activation z_i is
standardized and scaled, y_i = g_i zhat_i + s_i, and h_i = f_i(y_i).

A whitened model adds coefficients (c, P) per *input slot*: slot i holds
the center c_i and the preconditioner P_i = U_i^T U_i of the whitening
matrix U_i applied to the input of layer i (slot 0 acts on the network
input). They are constants between reparametrizations, and they enter only
the gradient. Momentum-SGD on the whitened parameters (V, d) of
V a + d, a = U (h - c), is momentum-SGD on (W, b) = (V U, d - W c) whose
gradient reads

    gW_i = delta_i^T (h_{i-1} - c_i) P_i,  gb_i = sum(delta_i) - gW_i c_i,

so the backward writes that, the network function never depends on (c, P),
and no parameter is projected.

Evaluation is batched: inputs are stacked as rows, per-example semantics
are identical to the single-vector case, and gradients are averaged over
the batch (the 1/B factor enters through the loss gradient).
``Model.predict`` evaluates ``PREDICT_ROWS`` rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    ConsistencyError,
    DimensionError,
    InsufficientBatchError,
    NumericError,
)

NONLINEARITIES = ("sigmoid", "tanh", "relu", "softmax", "identity")
LOSS_KINDS = ("squared_error", "binary_cross_entropy", "categorical_cross_entropy")

PROB_CLAMP = 1e-12
BN_STD_FLOOR = 1e-6
BN_DECAY = 0.9  # running-average decay of the batch-norm statistics
PREDICT_ROWS = 128  # rows per block of Model.predict


class LayerSpec(NamedTuple):
    in_dim: int
    out_dim: int
    nonlinearity: str


@dataclass(frozen=True)
class NetSpec:
    """The ``model`` section and the network it describes: the layer widths
    [in, h1, ..., out], the hidden layers' and the head's nonlinearity, and
    the loss. A value that breaks its rule is refused by name. ``layers``
    holds each layer's (in_dim, out_dim, nonlinearity), built once here."""

    sizes: list
    hidden: str = "tanh"
    head: str = "sigmoid"
    loss: str = "squared_error"

    def __post_init__(self):
        hidden = [k for k in NONLINEARITIES if k != "softmax"]
        ConfigError.check("model", {
            "sizes": (isinstance(self.sizes, list) and len(self.sizes) >= 2
                      and all(type(n) is int and n >= 1 for n in self.sizes),
                      "a list of at least two integers >= 1"),
            "hidden": (self.hidden in hidden, f"one of {', '.join(hidden)}: softmax is only a head"),
            "head": (self.head in NONLINEARITIES, f"one of {', '.join(NONLINEARITIES)}"),
            "loss": (self.loss in LOSS_KINDS, f"one of {', '.join(LOSS_KINDS)}"),
        })
        kinds = [self.hidden] * (len(self.sizes) - 2) + [self.head]
        object.__setattr__(self, "layers", tuple(map(LayerSpec, self.sizes, self.sizes[1:], kinds)))

    @property
    def depth(self):
        return len(self.layers)

    @property
    def input_dim(self):
        return self.sizes[0]

    @property
    def output_dim(self):
        return self.sizes[-1]


@dataclass
class Params:
    """Layer parameters in one flat float64 ``vector``: per-layer views
    ``weights`` (out_dim, in_dim) and ``biases`` (out_dim,), the canonical
    (W, b), and with batch norm the per-unit ``gains`` and
    ``shifts`` (empty lists otherwise). The layout is w0, b0, w1, b1, ...
    and then g0, s0, g1, s1, ...; weights are row-major. Code that changes
    a parameter writes into its view in place and never rebinds it."""

    vector: np.ndarray
    weights: list
    biases: list
    gains: list
    shifts: list

    @classmethod
    def of(cls, weights, biases, gains=(), shifts=()):
        """A new vector holding copies of the given per-layer arrays."""
        arrays = [a for pair in zip(weights, biases) for a in pair]
        arrays += [a for pair in zip(gains, shifts) for a in pair]
        vector = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        return _cut(vector, [np.shape(a) for a in arrays], len(weights))

    def copy(self):
        return Params.of(self.weights, self.biases, self.gains, self.shifts)


@dataclass
class WhiteningCoeffs:
    """Per input slot i: centering vector c_i and preconditioner P_i."""

    centers: list  # c_i
    preconditioners: list  # P_i = U_i^T U_i, square (in_dim of layer i)

    @classmethod
    def identity(cls, spec: NetSpec):
        return cls(
            [np.zeros(layer.in_dim) for layer in spec.layers],
            [np.eye(layer.in_dim) for layer in spec.layers],
        )

    def copy(self):
        return WhiteningCoeffs(
            [c.copy() for c in self.centers], [p.copy() for p in self.preconditioners]
        )


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
    """What a backward reads of its forward; every vjp reads h_i = f_i(y_i)
    (y_i = z_i without batch norm)."""

    inputs: np.ndarray  # (B, N_0)
    activations: list  # h_i, (B, N_i)
    phi: WhiteningCoeffs | None = None  # the model's coefficients, for the backward
    bn: list | None = None  # per-layer BN stash dicts (BN mode)

    @property
    def outputs(self):
        return self.activations[-1]

    def signal(self, i):
        """h_{i-1}, what layer i multiplies: the inputs for layer 0."""
        return self.inputs if i == 0 else self.activations[i - 1]


def _cut(vector, shapes, depth) -> Params:
    """``Params`` of views of ``vector``, cut in ``shapes`` order: the
    ``depth`` (weight, bias) pairs, then the (gain, shift) pairs."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[start : start + size].reshape(shape))
        start += size
    d = 2 * depth
    return Params(vector, views[0:d:2], views[1:d:2], views[d::2], views[d + 1 :: 2])


def flat_layout(spec: NetSpec, vector=None, *, bn=False) -> Params:
    """The network's ``Params`` over ``vector``, a new one when None; with
    ``bn`` the layout carries gains and shifts."""
    shapes = [s for l in spec.layers for s in ((l.out_dim, l.in_dim), (l.out_dim,))]
    if bn:
        shapes += [(l.out_dim,) for l in spec.layers for _ in "gs"]
    size = sum(math.prod(s) for s in shapes)
    if vector is None:
        vector = np.empty(size)
    elif vector.shape != (size,) or vector.dtype != np.float64:
        raise DimensionError(f"flat vector must be float64 ({size},), got "
                             f"{vector.dtype} {vector.shape}")
    return _cut(vector, shapes, spec.depth)


def _activate(kind, z):
    """h = f(z), written over ``z``, a fresh pre-activation no caller keeps.
    Finite z gives finite h for every kind, so the forwards check z and not
    h."""
    if kind == "sigmoid":
        # Per element this is 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) for z < 0:
        # the overflow-free masked form, evaluated without boolean masks, and
        # bitwise equal to it. exp(min(z, 0)) / (1 + exp(-|z|)), with one
        # temporary: the denominator is formed in z
        num = np.minimum(z, 0.0)
        np.exp(num, out=num)
        np.abs(z, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(num, z, out=z)
        return z
    if kind == "tanh":
        return np.tanh(z, out=z)
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "identity":
        return z
    # softmax, the one kind left: NetSpec refuses any other
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _activation_vjp(kind, h, upstream):
    """dLoss/dz from dLoss/dh for an elementwise or softmax nonlinearity,
    read from h = f(z) alone."""
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
        return upstream * (h > 0.0)  # h = max(z, 0) > 0 exactly where z > 0
    if kind == "identity":
        return upstream.copy()
    inner = (upstream * h).sum(axis=1, keepdims=True)  # softmax
    return h * (upstream - inner)


def as_batch(x, dim, what="input"):
    """``x``, one row or a stack of rows, as a float64 (B, dim) batch."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionError(f"{what} must have {dim} features, got shape {np.shape(x)}")
    return arr


def _check_finite(z, i, what):
    if not np.isfinite(z).all():
        raise NumericError(f"non-finite {what} at layer {i}")


def _batch_norm(params: Params, i, z, state, training):
    """Layer i's y = gain * zhat + shift, and the stash its backward reads.
    zhat is z standardized by the batch mean/std in training mode (which
    moves ``state``'s running averages when given), by ``state``'s running
    averages at inference."""
    if training:
        if z.shape[0] < 2:
            raise InsufficientBatchError("batch normalization needs batch_size >= 2")
        mean = z.mean(axis=0)
        var = z.var(axis=0)
        if state is not None:
            state.running_mean[i] = BN_DECAY * state.running_mean[i] + (1 - BN_DECAY) * mean
            state.running_var[i] = BN_DECAY * state.running_var[i] + (1 - BN_DECAY) * var
    else:
        if state is None:
            raise ConsistencyError("inference-mode BN forward needs running state")
        mean = state.running_mean[i]
        var = state.running_var[i]
    std = np.sqrt(var)
    floored = std < BN_STD_FLOOR
    std = np.maximum(std, BN_STD_FLOOR)
    zhat = (z - mean) / std
    y = params.gains[i] * zhat + params.shifts[i]
    return y, {"zhat": zhat, "std": std, "floored": floored, "training": training}


def layer_forward(omega: Params, spec: NetSpec, i, h, state=None, training=False):
    """Layer i of the forward: (h_i, BN stash or None) from h_{i-1}, a
    float64 batch. The one place its arithmetic lives, for
    ``forward_whitened``, ``Model.predict`` and the layer-by-layer
    reparametrization."""
    z = h @ omega.weights[i].T + omega.biases[i]
    _check_finite(z, i, "pre-activation")
    kind = spec.layers[i].nonlinearity
    if not omega.gains:
        return _activate(kind, z), None
    y, stash = _batch_norm(omega, i, z, state, training)
    h = _activate(kind, y)
    _check_finite(h, i, "activation")  # gain * zhat + shift can overflow
    return h, stash


def forward_whitened(omega: Params, phi: WhiteningCoeffs | None, spec: NetSpec, x,
                     state: BatchNormState | None = None, *, training=False) -> ForwardTrace:
    """Forward pass of the canonical parameters ``omega``; ``phi``, a
    whitened model's coefficients or None, is only recorded in the trace
    for the backward. With batch norm (``omega.gains`` non-empty)
    ``training`` selects the batch statistics over ``state``'s running
    averages, and ``trace.bn`` holds each layer's stash."""
    h = as_batch(x, spec.input_dim)
    trace = ForwardTrace(h, [], phi, [] if omega.gains else None)
    for i in range(spec.depth):
        h, stash = layer_forward(omega, spec, i, h, state, training)
        trace.activations.append(h)
        if stash is not None:
            trace.bn.append(stash)
    return trace


def loss(kind: str, output, target, *, gradient=True):
    """Batch-mean loss value and its gradient with respect to the output.

    The gradient carries the 1/B batch averaging, so downstream backward
    passes sum over the batch without rescaling. Cross-entropy outputs are
    clamped away from 0/1 at 1e-12. With ``gradient`` False no gradient is
    formed, (value, None) is returned, and the squared error squares its
    residual in place: the same value bit for bit, with one output-sized
    array alive instead of two.
    """
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}")
    o = np.atleast_2d(np.asarray(output, dtype=np.float64))
    t = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if o.shape != t.shape:
        raise DimensionError(f"output shape {o.shape} != target shape {t.shape}")
    b = o.shape[0]
    if kind == "squared_error":
        r = o - t
        with np.errstate(over="ignore"):
            value = 0.5 * float(np.multiply(r, r, out=None if gradient else r).sum()) / b
        grad = r / b if gradient else None
    elif kind == "binary_cross_entropy":
        # minimum(maximum()) is np.clip bit for bit, NaN included, at less
        # call overhead
        p = np.minimum(np.maximum(o, PROB_CLAMP), 1.0 - PROB_CLAMP)
        q = 1.0 - t
        value = -float((t * np.log(p) + q * np.log1p(-p)).sum()) / b
        grad = (-t / p + q / (1.0 - p)) / b if gradient else None
    else:  # categorical_cross_entropy
        p = np.minimum(np.maximum(o, PROB_CLAMP), 1.0)
        value = -float((t * np.log(p)).sum()) / b
        grad = -(t / p) / b if gradient else None
    if gradient and np.asarray(output).ndim == 1:
        grad = grad[0]
    return value, grad


def _batch_norm_vjp(dy, gain, stash):
    """dLoss/dz from dLoss/dy through y = gain * zhat + shift. With batch
    statistics, for u = gain * dy, a column's dz is
    (u - mean(u) - zhat * mean(u * zhat)) / std, and a column whose std hit
    the floor treats it as a constant: (u - mean(u)) / std. Written in place
    on u, in the operand order of those expressions."""
    u = dy * gain
    std = stash["std"]
    if stash["training"]:
        zhat, floored = stash["zhat"], stash["floored"]
        mean_u = u.mean(axis=0)
        mean_uz = (u * zhat).mean(axis=0)
        u -= mean_u
        flat = u[:, floored] / std[floored]
        u -= zhat * mean_uz
        u /= std
        u[:, floored] = flat
    else:
        u /= std
    return u


def _deltas(trace, params, spec, dy):
    """Yield (i, dLoss/dy_i, dLoss/dz_i) from the last layer down, ``dy``
    being the last layer's; y_i is what f_i reads, z_i = h_{i-1} W_i^T + b_i,
    and the two are one array without batch norm. The next layer's pair is
    formed only when the consumer asks for it, after it has used this one,
    so no list of deltas is built."""
    if (trace.bn is None) == bool(params.gains):
        raise ConsistencyError("trace and parameters disagree on batch normalization")
    for i in range(spec.depth - 1, -1, -1):
        dz = _batch_norm_vjp(dy, params.gains[i], trace.bn[i]) if params.gains else dy
        yield i, dy, dz
        if i == 0:
            return
        dy = _activation_vjp(spec.layers[i - 1].nonlinearity, trace.activations[i - 1],
                             dz @ params.weights[i])


def output_delta(trace, spec, loss_grad):
    """dLoss/dy at the final layer from dLoss/dh_L."""
    g = as_batch(loss_grad, spec.output_dim, "loss gradient")
    if g.shape[0] != trace.outputs.shape[0]:
        raise ConsistencyError("loss gradient batch size does not match trace")
    return _activation_vjp(spec.layers[-1].nonlinearity, trace.outputs, g)


def backpropagate_deltas(trace, params, spec, delta_last):
    """dLoss/dz for every layer, as a list in layer order, given dLoss/dy at
    the output layer.

    Exposed for Fisher computations, which enumerate output distributions
    and therefore construct the final delta analytically.
    """
    return [dz for _, _, dz in _deltas(trace, params, spec, delta_last)][::-1]


def backward_whitened(
    trace: ForwardTrace, omega: Params, spec: NetSpec, loss_grad, out=None
) -> Params:
    """Gradients of a ``forward_whitened`` trace, canonical or
    batch-normalized, written into ``out``, a ``flat_layout`` of ``omega``'s
    kind (a new one when None), and returned. Each layer's gradient is
    written as its deltas arrive. A whitened trace gets the whitened
    gradient mapped to (W, b): delta^T (h - c) P and sum(delta) - gW c,
    with no branch for an identity slot, whose c = 0 and P = I change no
    bit of a finite gradient."""
    out = flat_layout(spec, bn=bool(omega.gains)) if out is None else out
    phi = trace.phi
    # at most this layer's dy and dz, their upstream product and the next
    # layer's dy are alive at once
    for i, dy, dz in _deltas(trace, omega, spec, output_delta(trace, spec, loss_grad)):
        # (h - c) P is not bound to a name, so it is freed before the next delta
        s = trace.signal(i)
        np.matmul(dz.T, s if phi is None else (s - phi.centers[i]) @ phi.preconditioners[i],
                  out=out.weights[i])
        np.add.reduce(dz, axis=0, out=out.biases[i])
        if phi is not None:
            out.biases[i] -= out.weights[i] @ phi.centers[i]
        if omega.gains:
            np.add.reduce(dy * trace.bn[i]["zhat"], axis=0, out=out.gains[i])
            np.add.reduce(dy, axis=0, out=out.shifts[i])
    return out


def init_fan_in(spec: NetSpec, seed: int) -> Params:
    """Uniform +-1/sqrt(fan_in) weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = flat_layout(spec)
    for layer, w, b in zip(spec.layers, params.weights, params.biases):
        bound = 1.0 / np.sqrt(layer.in_dim)
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = 0.0
    return params


@dataclass
class Model:
    """A network snapshot: spec, canonical parameters and their kind.

    A whitened model carries its coefficients ``phi``; a BN model has
    gains and shifts in its ``params`` and carries running statistics; a
    model with neither is canonical, and one with both is refused. The
    model owns its parameter vector: construction checks the given
    ``params`` against the spec and copies their vector, and the optimizers
    step ``params.vector`` as one array.
    """

    spec: NetSpec
    params: Params
    phi: WhiteningCoeffs | None = None
    bn_state: BatchNormState | None = None

    def __post_init__(self):
        given = self.params
        flat = flat_layout(self.spec, bn=bool(given.gains))
        arrays = given.weights + given.biases + given.gains + given.shifts
        views = flat.weights + flat.biases + flat.gains + flat.shifts
        if [np.shape(a) for a in arrays] != [v.shape for v in views]:
            raise DimensionError(f"parameter shapes {[np.shape(a) for a in arrays]} do not "
                                 f"match the network's {[v.shape for v in views]}")
        if flat.gains and self.phi is not None:
            raise ConsistencyError("a batch-norm model takes no whitening coefficients")
        flat.vector[...] = given.vector
        self.params = flat
        if flat.gains and self.bn_state is None:
            self.bn_state = BatchNormState.init(self.spec)

    @property
    def kind(self):
        """One of "canonical", "whitened", "bn", derived from the fields."""
        if self.params.gains:
            return "bn"
        return "canonical" if self.phi is None else "whitened"

    @classmethod
    def batch_norm(cls, spec, params):
        """A BN model from (W, b), with gains 1 and shifts 0."""
        ones = [np.ones(layer.out_dim) for layer in spec.layers]
        zeros = [np.zeros(layer.out_dim) for layer in spec.layers]
        return cls(spec, Params.of(params.weights, params.biases, ones, zeros))

    def forward(self, x, training=False) -> ForwardTrace:
        return forward_whitened(self.params, self.phi, self.spec, x, self.bn_state,
                                training=training)

    def predict(self, x) -> np.ndarray:
        """The outputs of ``forward(x)`` (inference mode for BN), without the
        trace. The rows go through ``layer_forward`` in blocks of
        ``PREDICT_ROWS`` into one output array, so one block's z and h
        exist at a time. The last block takes the remainder, from
        ``PREDICT_ROWS`` to twice that: a short block can take another BLAS
        kernel than the whole batch. The outputs equal ``forward(x)``'s bit
        for bit wherever BLAS rounds a row the same in a block as in the
        whole batch, as on OpenBLAS at desk widths; at paper width they can
        differ in the last bit."""
        x = as_batch(x, self.spec.input_dim)
        out = np.empty((len(x), self.spec.output_dim))
        starts = range(0, max(len(x) - PREDICT_ROWS, 0) + 1, PREDICT_ROWS)
        for start, stop in zip(starts, [*starts[1:], len(x)]):
            h = x[start:stop]
            for i in range(self.spec.depth):
                h = layer_forward(self.params, self.spec, i, h, self.bn_state)[0]
            out[start:stop] = h
        return out

    def layout(self, vector=None) -> Params:
        """Views of ``vector`` (a new one when None) laid out as ``params``."""
        return flat_layout(self.spec, vector, bn=bool(self.params.gains))

    def backward(self, trace, loss_grad, out=None) -> Params:
        """Gradients, written into ``out`` (a ``layout()``) when given, else
        into a new one, and returned."""
        return backward_whitened(trace, self.params, self.spec, loss_grad, out)

    def copy(self):
        """An independent model: its own vector, coefficients and BN state."""
        return Model(
            self.spec,
            self.params,
            phi=self.phi.copy() if self.phi else None,
            bn_state=self.bn_state.copy() if self.bn_state else None,
        )
