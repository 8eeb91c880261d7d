"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Every tolerance here is fixed; nothing is calibrated at runtime. The slow
criteria (conditioning, function preservation, the convergence race) stay
well inside their stated runtime budgets on one CPU core.
"""

import numpy as np

from whitenet import net
from whitenet.config import PRESETS, validate_config
from whitenet.data import Dataset, synthetic_classification, synthetic_images
from whitenet.net import Model, NetSpec, WhiteningCoeffs, init_fan_in
from whitenet.optim import TrainConfig, train

import acceptance_gates as gates


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


class TestAcceptance:
    def test_c1_conditioning_reduction(self):
        report("C1", *gates.c1_conditioning_reduction())

    def test_c2_natural_gradient_equivalence(self):
        report("C2", *gates.c2_natural_gradient_equivalence())

    def test_c3_function_preservation_50_events(self, monkeypatch):
        report("C3", *gates.c3_function_preservation(monkeypatch))

    def test_c4_whitening_invariant(self):
        report("C4", *gates.c4_whitening_invariant())

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
                model = Model(spec, theta, phi=WhiteningCoeffs.identity(spec))
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
            result = train(model, ds, cfg, optimizer=optimizer,
                           loss_kind="squared_error", val_data=probe)
            if result.divergence is not None:
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
        """The whitened net held at U=I, c=0 (momentum never reparametrizes)
        follows canonical momentum-SGD bit for bit for 500 steps."""
        rng = np.random.default_rng(61)
        x = rng.standard_normal((256, 8))
        targ = 1.0 / (1.0 + np.exp(-x @ rng.standard_normal((8, 3))))
        ds = Dataset(x, targ)
        sizes = [8, 6, 3]
        cfg = TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=16,
                          seed=62, max_updates=500, eval_interval=100)

        spec = NetSpec.mlp(sizes)
        canonical = Model(spec, init_fan_in(spec, 63))
        r1 = train(canonical, ds, cfg, optimizer="momentum",
                   loss_kind="binary_cross_entropy")
        frozen, _ = gates.whitened_from_seed(sizes, seed=63)
        r2 = train(frozen, ds, cfg, optimizer="momentum",
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
               f"10^4-draw Monte-Carlo vs exact enumeration: relative Frobenius {rel:.2e} (need < 0.02)")

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
