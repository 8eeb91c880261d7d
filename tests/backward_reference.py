"""The backward as it was before the streamed one: every layer's delta is
built into a list before any gradient is written, and each vjp reads the
pre-activation z. A whitened trace's weight and bias gradients are the
preconditioned delta^T (h - c) P and sum(delta) - gW c. Tests compare the
library's backward against it."""

import numpy as np


def list_vjp(kind, z, h, upstream):
    """The vjp as it read the pre-activation z: relu masks with z > 0."""
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
    inner = (upstream * h).sum(axis=1, keepdims=True)
    return h * (upstream - inner)


def list_backward(model, trace, zs, loss_grad):
    """The backward that built every layer's delta into a list before
    writing any gradient, reading each layer's vjp input ``zs[i]`` (z, or
    y = gain zhat + shift with batch norm). Returns (gradients, deltas)."""
    spec, params = model.spec, model.params
    grads = model.layout()
    deltas = [None] * spec.depth
    if not params.gains:
        deltas[-1] = list_vjp(spec.layers[-1].nonlinearity, zs[-1], trace.outputs, loss_grad)
        for i in range(spec.depth - 1, 0, -1):
            upstream = deltas[i] @ params.weights[i]
            deltas[i - 1] = list_vjp(spec.layers[i - 1].nonlinearity, zs[i - 1],
                                     trace.activations[i - 1], upstream)
        for i, (delta, w, b) in enumerate(zip(deltas, grads.weights, grads.biases)):
            if trace.phi is None:
                np.matmul(delta.T, trace.signal(i), out=w)
                np.add.reduce(delta, axis=0, out=b)
                continue
            c = trace.phi.centers[i]
            np.matmul(delta.T, (trace.signal(i) - c) @ trace.phi.preconditioners[i], out=w)
            np.add.reduce(delta, axis=0, out=b)
            b -= w @ c
        return grads, deltas
    upstream = loss_grad
    for i in range(spec.depth - 1, -1, -1):
        stash = trace.bn[i]
        dy = list_vjp(spec.layers[i].nonlinearity, zs[i], trace.activations[i], upstream)
        np.add.reduce(dy * stash["zhat"], axis=0, out=grads.gains[i])
        np.add.reduce(dy, axis=0, out=grads.shifts[i])
        u = dy * params.gains[i]
        if stash["training"]:
            coupled = (
                u - u.mean(axis=0) - stash["zhat"] * (u * stash["zhat"]).mean(axis=0)
            ) / stash["std"]
            flat = (u - u.mean(axis=0)) / stash["std"]
            dz = np.where(stash["floored"], flat, coupled)
        else:
            dz = u / stash["std"]
        deltas[i] = dz
        np.matmul(dz.T, trace.signal(i), out=grads.weights[i])
        np.add.reduce(dz, axis=0, out=grads.biases[i])
        if i > 0:
            upstream = dz @ params.weights[i]
    return grads, deltas


def vjp_inputs(model, trace):
    """Each layer's z = h W^T + b (batch norm: y = gain zhat + shift), the
    same operations on the same operands as the forward, so the same bits."""
    p = model.params
    if p.gains:
        return [g * stash["zhat"] + sh for g, sh, stash in zip(p.gains, p.shifts, trace.bn)]
    return [trace.signal(i) @ w.T + b for i, (w, b) in enumerate(zip(p.weights, p.biases))]
