"""The whitened parametrization run in its own parameter space, as the
library ran it before it stepped the canonical weights through each slot's
preconditioner: slot i's whitening matrix is U_i = P_i^1/2 (the symmetric
root, taken here by ``np.linalg.eigh``), the whitened parameters are
(V_i, d_i) = (W_i U_i^-1, b_i + W_i c_i), the forward multiplies the
whitened signal a_i = (h_{i-1} - c_i) U_i^T, the backward crosses U_i, and
each reparametrization projects the parameters to the new coefficients.
Tests compare the library's one parameter space against it."""

import numpy as np

from whitenet import net


def root(p):
    """The symmetric positive root of a symmetric positive definite matrix."""
    lam, e = np.linalg.eigh((p + p.T) / 2.0)
    return (e * np.sqrt(lam)) @ e.T


def whitened_signals(model, trace):
    """The whitened signal a_i of every slot of a whitened model's trace."""
    return [(trace.signal(i) - c) @ root(p).T
            for i, (c, p) in enumerate(zip(model.phi.centers, model.phi.preconditioners))]


def zca(h, epsilon):
    """(c, U, U^-1) of the rows ``h``: their mean and the ZCA whitening
    matrix of their covariance Sigma, E (Lambda + eps)^-1/2 E^T, from a
    dense eigendecomposition of Sigma."""
    c = h.mean(axis=0)
    sigma = (h - c).T @ (h - c) / h.shape[0]
    lam, e = np.linalg.eigh((sigma + sigma.T) / 2.0)
    gain = np.sqrt(np.maximum(lam, 0.0) + epsilon)
    return c, (e / gain) @ e.T, (e * gain) @ e.T


class Whitened:
    """A whitened model's (V, d) in one flat vector laid out as its
    parameters, with each slot's U and c."""

    def __init__(self, model):
        self.spec = model.spec
        self.us = [root(p) for p in model.phi.preconditioners]
        self.cs = [c.copy() for c in model.phi.centers]
        self.params = model.layout()
        for i, (w, b) in enumerate(zip(model.params.weights, model.params.biases)):
            self.params.weights[i][...] = w @ np.linalg.inv(self.us[i])
            self.params.biases[i][...] = b + w @ self.cs[i]

    @property
    def vector(self):
        return self.params.vector

    def forward(self, x):
        """(signals, activations) of the whitened forward."""
        h = net.as_batch(x, self.spec.input_dim)
        signals, activations = [], []
        for layer, v, d, u, c in zip(self.spec.layers, self.params.weights,
                                     self.params.biases, self.us, self.cs):
            a = (h - c) @ u.T
            h = net._activate(layer.nonlinearity, a @ v.T + d)
            signals.append(a)
            activations.append(h)
        return signals, activations

    def gradient(self, x, targets, loss_kind):
        """(loss, gradient of the loss in (V, d), laid out as ``params``)."""
        signals, activations = self.forward(x)
        value, g = net.loss(loss_kind, activations[-1], targets)
        grads = net.flat_layout(self.spec)
        dz = net._activation_vjp(self.spec.layers[-1].nonlinearity, activations[-1], g)
        for i in range(self.spec.depth - 1, -1, -1):
            grads.weights[i][...] = dz.T @ signals[i]
            grads.biases[i][...] = dz.sum(axis=0)
            if i > 0:
                upstream = dz @ self.params.weights[i] @ self.us[i]
                dz = net._activation_vjp(self.spec.layers[i - 1].nonlinearity,
                                         activations[i - 1], upstream)
        return value, grads.vector

    def canonical(self, vector=None):
        """(W, b) = (V U, d - W c) of ``vector`` (the parameters when
        None) as a flat canonical ``Params``; for a gradient in (V, d) this
        is the step direction it makes in (W, b)."""
        p = self.params if vector is None else net.flat_layout(self.spec, vector)
        out = net.flat_layout(self.spec)
        for i, (v, d, u, c) in enumerate(zip(p.weights, p.biases, self.us, self.cs)):
            out.weights[i][...] = v @ u
            out.biases[i][...] = d - out.weights[i] @ c
        return out

    def reparametrize(self, stats, epsilon):
        """New (U, c) per slot from the whitened forward of ``stats``, and
        (V, d) projected to them; returns the outputs on ``stats``."""
        _, activations = self.forward(stats)
        theta = self.canonical()
        for i, h in enumerate([net.as_batch(stats, self.spec.input_dim)] + activations[:-1]):
            c, u, u_inv = zca(h, epsilon)
            w = theta.weights[i]
            self.params.weights[i][...] = w @ u_inv
            self.params.biases[i][...] = theta.biases[i] + w @ c
            self.us[i], self.cs[i] = u, c
        return activations[-1]


def reference_prong(model, data, config, loss_kind):
    """``train(optimizer="prong")``'s batches, statistics samples, rows and
    momentum in the whitened parameter space: rows as (step, train_loss,
    eval_loss, reparam_event), and the final canonical parameters."""
    from whitenet.data import BatchPlan, next_batch

    white = Whitened(model)
    velocity = np.zeros_like(white.vector)
    plan = BatchPlan(seed=config.seed, batch_size=config.batch_size)
    stats_rng = np.random.default_rng([config.seed, 104729])
    rows, loss_sum, loss_count = [], 0.0, 0

    def eval_loss():
        return net.loss(loss_kind, white.forward(data.inputs)[1][-1], data.targets)[0]

    for t in range(config.max_updates):
        if t % config.reparam_period == 0:
            idx = stats_rng.choice(data.n, size=min(config.stat_samples, data.n), replace=False)
            outputs = white.reparametrize(data.inputs[idx], config.eigen_epsilon)
            velocity[:] = 0.0
            if rows and rows[-1][0] == t:
                rows[-1] = rows[-1][:3] + (True,)
            else:
                rows.append((t, net.loss(loss_kind, outputs, data.targets[idx])[0],
                             eval_loss(), True))
        batch = next_batch(data, plan)
        value, grad = white.gradient(batch.inputs, batch.targets, loss_kind)
        loss_sum += value
        loss_count += 1
        velocity *= config.momentum
        velocity += grad
        white.vector[...] -= config.learning_rate * velocity
        if (t + 1) % config.eval_interval == 0:
            rows.append((t + 1, loss_sum / loss_count, eval_loss(), False))
            loss_sum, loss_count = 0.0, 0
    return rows, white.canonical()
