"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Every tolerance here is fixed; nothing is calibrated at runtime. The slow
criteria (conditioning, function preservation, the convergence race) stay
well inside their stated runtime budgets on one CPU core.
"""

import numpy as np
import pytest

from whitenet import net
from whitenet.config import PRESETS, validate_config
from whitenet.data import Dataset, synthetic_classification, synthetic_images
from whitenet.errors import DivergenceError
from whitenet.fisher import factorized_fisher_block
from whitenet.linalg import condition_number
from whitenet.net import (
    Model,
    NetSpec,
    WhiteningCoeffs,
    init_fan_in,
    project_to_canonical,
    project_to_whitened,
)
from whitenet.optim import (
    OptimizerState,
    TrainConfig,
    prong_reparametrize,
    sgd_step,
    train,
)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def whitened_from_seed(sizes, seed, hidden="tanh", head="sigmoid"):
    spec = NetSpec.mlp(sizes, hidden=hidden, head=head)
    theta = init_fan_in(spec, seed)
    phi = WhiteningCoeffs.identity(spec)
    return Model(spec, project_to_whitened(theta, phi), phi=phi), theta


class TestAcceptance:
    def test_c1_conditioning_reduction(self):
        """Factorized middle-layer Fisher condition number immediately after
        the first whitening reparametrization is < 10% of its pre-whitening
        value (3-layer tanh MLP, 100-32-32-1, 10x10 synthetic fallback)."""
        ds = synthetic_classification(512, 100, seed=11, spectrum_decay=1.5)
        sizes = [100, 32, 32, 1]
        spec = NetSpec.mlp(sizes, hidden="tanh", head="sigmoid")
        theta = init_fan_in(spec, 3)

        canonical = Model(spec, theta.copy())
        before = condition_number(factorized_fisher_block(canonical, ds.inputs, 1).eigenvalues())

        phi = WhiteningCoeffs.identity(spec)
        whitened = Model(spec, project_to_whitened(theta, phi), phi=phi)
        prong_reparametrize(whitened.params, whitened.phi, whitened.spec,
                            ds.inputs, epsilon=0.0)
        after = condition_number(factorized_fisher_block(whitened, ds.inputs, 1).eigenvalues())

        ratio = after / before
        report("C1", ratio < 0.10,
               f"middle-layer cond {before:.3e} -> {after:.3e} (ratio {ratio:.3e}, need < 0.1)")

    def test_c2_natural_gradient_equivalence(self):
        """One PRONG step at a reparametrization point (eps=0, momentum 0)
        projected to canonical space equals the dense Kronecker-preconditioned
        oracle within 1e-8 max-abs.

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
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        theta0 = project_to_canonical(model.params, model.phi)

        x = rng.standard_normal((12, 9))
        y = rng.uniform(0.2, 0.8, (12, 2))
        trace = model.forward(x)
        _, grad = net.loss("binary_cross_entropy", trace.outputs, y)
        bt = model.backward(trace, grad)
        cfg = TrainConfig(learning_rate=alpha, momentum=0.0, seed=0, max_updates=1,
                          stat_samples=48)
        state = OptimizerState.init(model.params.vector, cfg)
        sgd_step(model.params.vector, bt.grads.vector, state, cfg)
        theta1 = project_to_canonical(model.params, model.phi)

        ctrace = net.forward_whitened(theta0, None, model.spec, x)
        _, cgrad = net.loss("binary_cross_entropy", ctrace.outputs, y)
        cbt = net.backward_whitened(ctrace, theta0, model.spec, cgrad)
        strace = net.forward_whitened(theta0, None, model.spec, stats)

        worst = 0.0
        for i in range(model.spec.depth):
            h = ([strace.inputs] + strace.activations)[i]
            mu = h.mean(axis=0)
            sigma = (h - mu).T @ (h - mu) / h.shape[0]
            centered = cbt.grads.weights[i] - np.outer(cbt.deltas[i].sum(axis=0), mu)
            oracle_dw = -alpha * centered @ np.linalg.inv(sigma)
            dw = theta1.weights[i] - theta0.weights[i]
            worst = max(worst, float(np.abs(dw - oracle_dw).max()))
        report("C2", worst < 1e-8,
               f"projected step vs dense Sigma^-1 oracle: max |diff| {worst:.2e} (need < 1e-8)")

    def test_c3_function_preservation_50_events(self):
        """Across >= 50 reparametrization events in a desk training run,
        probe outputs move < 1e-8 max-abs per event."""
        ds = synthetic_images(1024, 8, seed=31)
        model, _ = whitened_from_seed([64, 48, 24, 12, 24, 48, 64], seed=32,
                                      hidden="sigmoid", head="sigmoid")
        probe = ds.inputs[:32]
        cfg = TrainConfig(learning_rate=1e-3, momentum=0.9, batch_size=32,
                          reparam_period=2, stat_samples=128, eigen_epsilon=1e-4,
                          seed=33, max_updates=100, eval_interval=100)
        result = train(model, ds, cfg, optimizer="prong",
                       loss_kind="squared_error", probe_inputs=probe)
        deltas = result.probe_deltas
        worst = max(deltas[:50]) if len(deltas) >= 50 else float("inf")
        report("C3", len(deltas) >= 50 and worst < 1e-8,
               f"{len(deltas)} events, worst probe-output change {worst:.2e} (need < 1e-8)")

    def test_c4_whitening_invariant(self):
        """Immediately after reparametrization, whitened activations on the
        statistics sample have mean < 1e-8 and covariance within 1e-6 of I
        (eps=0) or of diag(lam/(lam+eps)) (eps>0)."""
        rng = np.random.default_rng(41)
        stats = rng.standard_normal((400, 12)) @ rng.standard_normal((12, 12))
        worst_mean, worst_cov = 0.0, 0.0
        model, _ = whitened_from_seed([12, 10, 6, 2], seed=42)
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        trace = model.forward(stats)
        for a in trace.signals:
            worst_mean = max(worst_mean, float(np.abs(a.mean(axis=0)).max()))
            cov = a.T @ a / a.shape[0]
            worst_cov = max(worst_cov, float(np.abs(cov - np.eye(cov.shape[0])).max()))

        eps = 0.05
        model2, _ = whitened_from_seed([12, 10, 6, 2], seed=42)
        info = prong_reparametrize(model2.params, model2.phi, model2.spec, stats, epsilon=eps)
        trace2 = model2.forward(stats)
        worst_eps = 0.0
        for a, eigenvalues in zip(trace2.signals, info.eigenvalues):
            lam = np.maximum(eigenvalues, 0.0)
            expected = np.diag(lam / (lam + eps))
            cov = a.T @ a / a.shape[0]
            worst_eps = max(worst_eps, float(np.abs(cov - expected).max()))

        ok = worst_mean < 1e-8 and worst_cov < 1e-6 and worst_eps < 1e-6
        report("C4", ok,
               f"mean {worst_mean:.2e} (<1e-8), cov-I {worst_cov:.2e} (<1e-6), "
               f"shrunk-cov {worst_eps:.2e} (<1e-6)")

    def test_c5_convergence_speedup(self):
        """Desk autoencoder, both methods tuned over the grid
        {1e-1, 1e-2, 1e-3}: the whitened optimizer reaches tuned
        momentum-SGD's 2000-step training loss within 1000 steps (>= 2x)."""
        preset = validate_config(PRESETS["ae-mnist-desk"])
        d = preset["dataset"]
        ds = synthetic_images(d["n"], d["side"], d["seed"])
        probe = Dataset(ds.inputs[:512], ds.targets[:512])
        sizes = preset["model"]["sizes"]
        alphas = (1e-1, 1e-2, 1e-3)

        def run(optimizer, lr, steps):
            spec = NetSpec.mlp(sizes, hidden="sigmoid", head="sigmoid")
            theta = init_fan_in(spec, preset["train"]["seed"])
            if optimizer == "prong":
                phi = WhiteningCoeffs.identity(spec)
                model = Model(spec, project_to_whitened(theta, phi), phi=phi)
            else:
                model = Model(spec, theta)
            cfg = TrainConfig(
                learning_rate=lr,
                momentum=0.9,
                batch_size=preset["train"]["batch_size"],
                reparam_period=preset["train"]["reparam_period"],
                stat_samples=preset["train"]["stat_samples"],
                eigen_epsilon=preset["train"]["eigen_epsilon"],
                seed=preset["train"]["seed"],
                max_updates=steps,
                eval_interval=50,
            )
            try:
                result = train(model, ds, cfg, optimizer=optimizer,
                               loss_kind="squared_error", val_data=probe)
            except DivergenceError:
                return None
            return {r.step: r.eval_loss for r in result.rows if not r.reparam_event}

        sgd_final = []
        for lr in alphas:
            traj = run("momentum", lr, 2000)
            if traj:
                sgd_final.append(traj[2000])
        target = min(sgd_final)

        best_step = None
        for lr in alphas:
            traj = run("prong", lr, 1000)
            if not traj:
                continue
            reached = [s for s, v in sorted(traj.items()) if v <= target]
            if reached and (best_step is None or reached[0] < best_step):
                best_step = reached[0]

        ok = best_step is not None and best_step <= 1000
        speedup = (2000 / best_step) if best_step else float("nan")
        report("C5", ok,
               f"tuned momentum-SGD training loss at step 2000: {target:.4f}; "
               f"whitened run reaches it at step {best_step} (speedup {speedup:.1f}x, need >= 2x)")

    def test_c6_degeneracy_bitwise(self):
        """With whitening frozen at U=I, c=0, the whitened trajectory is
        bit-identical to canonical momentum-SGD for 500 steps."""
        rng = np.random.default_rng(61)
        x = rng.standard_normal((256, 8))
        targ = 1.0 / (1.0 + np.exp(-x @ rng.standard_normal((8, 3))))
        ds = Dataset(x, targ)
        sizes = [8, 6, 3]
        cfg = TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=16,
                          seed=62, max_updates=500, eval_interval=100,
                          freeze_whitening=True)

        spec = NetSpec.mlp(sizes)
        canonical = Model(spec, init_fan_in(spec, 63))
        r1 = train(canonical, ds, cfg, optimizer="momentum",
                   loss_kind="binary_cross_entropy")
        frozen, _ = whitened_from_seed(sizes, seed=63)
        r2 = train(frozen, ds, cfg, optimizer="prong",
                   loss_kind="binary_cross_entropy")

        same_params = all(
            np.array_equal(a, b)
            for a, b in zip(
                r1.model.params.weights + r1.model.params.biases,
                r2.model.params.weights + r2.model.params.biases,
            )
        )
        same_rows = all(
            ra.step == rb.step and ra.train_loss == rb.train_loss
            and ra.eval_loss == rb.eval_loss
            for ra, rb in zip(r1.rows, r2.rows)
        )
        report("C6", same_params and same_rows,
               f"500 steps: params bit-identical={same_params}, metrics rows identical={same_rows}")

    def test_c7_gradient_exactness(self):
        """Central finite differences on 10 seeded instances across the
        canonical, whitened and batch-norm layer types: relative error
        < 1e-5 per parameter at step 1e-6."""
        from test_net import check_model_gradients, seeded_phi

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
                spec = NetSpec.mlp(sizes, hidden=hidden, head=head)
                theta = init_fan_in(spec, seed)
                if kind == "canonical":
                    model = Model(spec, theta)
                elif kind == "whitened":
                    phi = seeded_phi(spec, seed + 1)
                    model = Model(spec, project_to_whitened(theta, phi), phi=phi)
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
        report("C7", worst_cases == 0 and instances == 10,
               f"{instances} seeded instances across canonical/whitened/bn, "
               f"{worst_cases} finite-difference failures (need 0)")

    def test_c8_exact_vs_monte_carlo_fisher(self):
        """Exact label-enumerated Fisher block vs a 1e4-draw Monte-Carlo
        label-sampling estimate: relative Frobenius gap < 2%."""
        spec = NetSpec.mlp([100, 32, 32, 1], hidden="tanh", head="sigmoid")
        model = Model(spec, init_fan_in(spec, 81))
        ds = synthetic_classification(500, 100, seed=82, spectrum_decay=1.0)
        x = ds.inputs
        layer = 1
        from whitenet.fisher import exact_fisher_block

        exact = exact_fisher_block(model, x, layer).matrix

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
        report("C8", rel < 0.02,
               f"10^4-draw Monte-Carlo vs exact enumeration: relative Frobenius {rel:.4f} (need < 0.02)")

    def test_c9_out_of_scope_declared(self):
        """Full-scale results are explicitly not reproduced at desk scale;
        the paper-width preset exists for optional long runs, ungated."""
        preset = PRESETS["ae-mnist-paper"]
        ok = preset.get("long_running") is True and preset["model"]["sizes"][1] == 1000
        report(
            "C9", ok,
            "not desk-gated (by design): CIFAR-10 test errors (7.32%/8.22%), "
            "ImageNet top-1 (28.6%/28.9%/32.1%), wallclock multipliers "
            "(3.2x/2.3x/9x), and full-width autoencoder curves; the full-width "
            "preset 'ae-mnist-paper' is shipped long-running and ungated",
        )
