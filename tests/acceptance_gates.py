"""The measurements and criteria of acceptance gates C1-C4, the gates that
read the whitened slots, and of C7 and C8, the gates that read the backward
pass and the Fisher blocks. Each function runs its gate on fixed data and
seeds and returns (passed, detail); ``test_acceptance`` reports them and
``test_gate_power`` checks that a known fault makes each one fail.

Every library call goes through its module (``optim.prong_reparametrize``,
``fisher.signal``, ...), so a fault patched into a module reaches the gate."""

import numpy as np

from whitenet import cli, fisher, net, optim
from whitenet.config import PRESETS, deep_merge, validate_config
from whitenet.data import synthetic_classification, synthetic_images
from whitenet.linalg import condition_number
from whitenet.net import Model, NetSpec, WhiteningCoeffs, init_fan_in

from test_net import check_model_gradients, seeded_phi
from whitened_reference import whitened_signals


def whitened_from_seed(sizes, seed, hidden="tanh", head="sigmoid", loss="squared_error"):
    spec = NetSpec(sizes, hidden=hidden, head=head, loss=loss)
    theta = init_fan_in(spec, seed)
    return Model(spec, theta, phi=WhiteningCoeffs.identity(spec)), theta


def c1_conditioning_reduction():
    """Factorized middle-layer Fisher condition number immediately after
    the first whitening reparametrization is < 10% of its pre-whitening
    value (3-layer tanh MLP, 100-32-32-1, 10x10 synthetic fallback)."""
    ds = synthetic_classification(512, 100, seed=11, spectrum_decay=1.5)
    sizes = [100, 32, 32, 1]
    spec = NetSpec(sizes, hidden="tanh", head="sigmoid")
    theta = init_fan_in(spec, 3)

    canonical = Model(spec, theta.copy())
    before = condition_number(
        fisher.factorized_fisher_block(canonical, ds.inputs, 1).eigenvalues())

    whitened = Model(spec, theta, phi=WhiteningCoeffs.identity(spec))
    optim.prong_reparametrize(whitened.params, whitened.phi, whitened.spec,
                              ds.inputs, epsilon=0.0)
    after = condition_number(fisher.factorized_fisher_block(whitened, ds.inputs, 1).eigenvalues())

    ratio = after / before
    return ratio < 0.10, (f"middle-layer cond {before:.3e} -> {after:.3e} "
                          f"(ratio {ratio:.3e}, need < 0.1)")


def c2_natural_gradient_equivalence():
    """One PRONG step at a reparametrization point (eps=0, momentum 0),
    which steps the canonical parameters, equals the dense
    Kronecker-preconditioned oracle within 1e-8 max-abs.

    The oracle preconditions the homogeneous gradient [G_W G_b] by the
    inverse uncentered second moment of (h, 1) over the statistics
    sample; its weight block equals the centered gradient
    (G_W - delta_bar mu^T) right-multiplied by the inverse centered
    covariance, which is the criterion formula read with the centered
    gradient (the c=0 reading is exercised in the optimizer suite).
    """
    rng = np.random.default_rng(21)
    model, _ = whitened_from_seed([9, 6, 2], seed=22, hidden="tanh", head="sigmoid")
    stats = rng.standard_normal((48, 9)) @ np.diag([2.0, 1.6, 1.2, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3])
    alpha = 0.05
    optim.prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
    theta0 = model.params.copy()

    x = rng.standard_normal((12, 9))
    y = rng.uniform(0.2, 0.8, (12, 2))
    trace = model.forward(x)
    _, grad = net.loss("binary_cross_entropy", trace.outputs, y)
    grads = model.backward(trace, grad)
    cfg = optim.TrainConfig(learning_rate=alpha, momentum=0.0, seed=0, max_updates=1,
                            stat_samples=48)
    state = optim.OptimizerState.init(model.params.vector)
    optim.sgd_step(model.params.vector, grads.vector, state, cfg)
    theta1 = model.params

    ctrace = net.forward_whitened(theta0, None, model.spec, x)
    _, cgrad = net.loss("binary_cross_entropy", ctrace.outputs, y)
    cgrads = net.backward_whitened(ctrace, theta0, model.spec, cgrad)
    cdeltas = net.backpropagate_deltas(ctrace, theta0, model.spec,
                                       net.output_delta(ctrace, model.spec, cgrad))
    strace = net.forward_whitened(theta0, None, model.spec, stats)

    worst = 0.0
    for i in range(model.spec.depth):
        h = ([strace.inputs] + strace.activations)[i]
        mu = h.mean(axis=0)
        sigma = (h - mu).T @ (h - mu) / h.shape[0]
        centered = cgrads.weights[i] - np.outer(cdeltas[i].sum(axis=0), mu)
        oracle_dw = -alpha * centered @ np.linalg.inv(sigma)
        dw = theta1.weights[i] - theta0.weights[i]
        worst = max(worst, float(np.abs(dw - oracle_dw).max()))
    return worst < 1e-8, f"prong step vs dense Sigma^-1 oracle: max |diff| {worst:.2e} (need < 1e-8)"


def c3_function_preservation(monkeypatch):
    """Across >= 50 reparametrization events in a desk training run,
    the parameter vector is bitwise unchanged and probe outputs move
    < 1e-8 max-abs per event. Each event is observed by wrapping
    ``optim.prong_reparametrize``, the call ``train`` makes."""
    ds = synthetic_images(1024, 8, seed=31)
    model, _ = whitened_from_seed([64, 48, 24, 12, 24, 48, 64], seed=32,
                                  hidden="sigmoid", head="sigmoid")
    probe = ds.inputs[:32]
    cfg = optim.TrainConfig(learning_rate=1e-3, momentum=0.9, batch_size=32,
                            reparam_period=2, stat_samples=128, eigen_epsilon=1e-4,
                            seed=33, max_updates=100, eval_interval=100)
    events = []  # (parameters bitwise unchanged, max-abs probe-output change)
    reparametrize = optim.prong_reparametrize

    def observed(omega, *args):
        vector, before = omega.vector.copy(), model.predict(probe)
        info = reparametrize(omega, *args)
        events.append((np.array_equal(omega.vector, vector),
                       float(np.abs(model.predict(probe) - before).max())))
        return info

    monkeypatch.setattr(optim, "prong_reparametrize", observed)
    optim.train(model, ds, cfg, optimizer="prong")
    changed = sum(not same for same, _ in events[:50])
    worst = max(delta for _, delta in events[:50]) if len(events) >= 50 else float("inf")
    return (len(events) >= 50 and changed == 0 and worst < 1e-8,
            f"{len(events)} events, {changed} of the first 50 changed a parameter bit, "
            f"worst probe-output change {worst:.2e} (need 0 and < 1e-8)")


def c4_whitening_invariant():
    """Immediately after reparametrization, whitened activations on the
    statistics sample have mean < 1e-8 and covariance within 1e-6 of I
    (eps=0) or of Sigma (Sigma + eps I)^-1 (eps>0), Sigma the covariance
    of the slot's canonical input on that sample. Each slot's whitened
    activations are read twice: through the reference root of its P
    (``whitened_signals``) and through the library's own whitened
    coordinates (``fisher.signal``, which takes ``linalg.whitening_root``)."""

    def signals(model, trace):
        return whitened_signals(model, trace) + [fisher.signal(trace, i)
                                                 for i in range(model.spec.depth)]

    rng = np.random.default_rng(41)
    stats = rng.standard_normal((400, 12)) @ rng.standard_normal((12, 12))
    worst_mean, worst_cov = 0.0, 0.0
    model, _ = whitened_from_seed([12, 10, 6, 2], seed=42)
    optim.prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
    trace = model.forward(stats)
    for a in signals(model, trace):
        worst_mean = max(worst_mean, float(np.abs(a.mean(axis=0)).max()))
        cov = a.T @ a / a.shape[0]
        worst_cov = max(worst_cov, float(np.abs(cov - np.eye(cov.shape[0])).max()))

    eps = 0.05
    model2, _ = whitened_from_seed([12, 10, 6, 2], seed=42)
    optim.prong_reparametrize(model2.params, model2.phi, model2.spec, stats, epsilon=eps)
    trace2 = model2.forward(stats)
    worst_eps = 0.0
    inputs = [trace2.inputs] + trace2.activations[:-1]
    for a, h in zip(signals(model2, trace2), inputs + inputs, strict=True):
        centered = h - h.mean(axis=0)
        sigma = centered.T @ centered / h.shape[0]
        expected = np.linalg.solve(sigma + eps * np.eye(len(sigma)), sigma)
        cov = a.T @ a / a.shape[0]
        worst_eps = max(worst_eps, float(np.abs(cov - expected).max()))

    return (worst_mean < 1e-8 and worst_cov < 1e-6 and worst_eps < 1e-6,
            f"mean {worst_mean:.2e} (<1e-8), cov-I {worst_cov:.2e} (<1e-6), "
            f"shrunk-cov {worst_eps:.2e} (<1e-6)")


def c7_gradient_exactness():
    """Central finite differences on 10 seeded instances across the
    canonical, whitened and batch-norm layer types: relative error
    < 1e-5 per parameter at step 1e-6."""
    worst_cases = 0
    instances = 0
    rng = np.random.default_rng(71)
    layouts = [
        ("canonical", [4, 5, 2], "tanh", "sigmoid", "binary_cross_entropy"),
        ("canonical", [3, 4, 3], "relu", "softmax", "categorical_cross_entropy"),
        ("whitened", [4, 4, 2], "sigmoid", "identity", "squared_error"),
        ("whitened", [5, 3, 2], "tanh", "sigmoid", "binary_cross_entropy"),
        ("bn", [4, 4, 2], "tanh", "sigmoid", "binary_cross_entropy"),
    ]
    for rep in range(2):
        for kind, sizes, hidden, head, loss_kind in layouts:
            seed = int(rng.integers(0, 10_000))
            spec = NetSpec(sizes, hidden=hidden, head=head)
            theta = init_fan_in(spec, seed)
            if kind == "canonical":
                model = Model(spec, theta)
            elif kind == "whitened":
                model = Model(spec, theta, phi=seeded_phi(spec, seed + 1))
            else:
                model = Model.batch_norm(spec, theta)
            x = rng.standard_normal((6, sizes[0]))
            if head == "softmax":
                t = np.eye(sizes[-1])[rng.integers(0, sizes[-1], 6)]
            elif head == "identity":
                t = rng.standard_normal((6, sizes[-1]))
            else:
                t = rng.uniform(0.2, 0.8, (6, sizes[-1]))
            if hidden == "relu":
                x = x + 0.1
            try:
                check_model_gradients(model, x, t, loss_kind)
            except AssertionError:
                worst_cases += 1
            instances += 1
    return (worst_cases == 0 and instances == 10,
            f"{instances} seeded instances across canonical/whitened/bn, "
            f"{worst_cases} finite-difference failures (need 0)")


def c8_exact_vs_monte_carlo_fisher():
    """Exact label-enumerated Fisher block vs a 1e4-draw Monte-Carlo
    label-sampling estimate: relative Frobenius gap < 2%. Measured on the
    first 500 training rows at the cond-mlp-desk model after its 2000 SGD
    updates, whose predictions sit far from 1/2 (median |p - 1/2| 0.47),
    so a sweep that weights the two classes alike reads far off."""
    cfg = validate_config(deep_merge(PRESETS["cond-mlp-desk"], {"optimizer": "sgd"}))
    train, _, _ = cli.build_dataset(cfg)
    model = cli.build_model(cfg)
    optim.train(model, train, optim.TrainConfig(**cfg["train"]), optimizer="sgd")
    x = train.inputs[:500]
    layer = 1
    exact = fisher.exact_fisher_block(model, x, layer).matrix

    rng = np.random.default_rng(83)
    draws = 10_000
    trace = model.forward(x)
    p1 = trace.outputs[:, 0]
    freq1 = rng.binomial(draws, p1) / draws
    mc = np.zeros_like(exact)
    signal = ([trace.inputs] + trace.activations)[layer]
    b = x.shape[0]
    size = exact.shape[0]
    for y, freq in ((0.0, 1.0 - freq1), (1.0, freq1)):
        delta_last = trace.outputs - y
        deltas = net.backpropagate_deltas(trace, model.params, model.spec, delta_last)
        g = np.einsum("bi,bj->bij", deltas[layer], signal).reshape(b, size)
        mc += (g * freq[:, None]).T @ g
    mc /= b
    rel = float(np.linalg.norm(mc - exact) / np.linalg.norm(exact))
    return rel < 0.02, (f"10^4-draw Monte-Carlo vs exact enumeration: relative Frobenius "
                        f"{rel:.2e} (need < 0.02)")
