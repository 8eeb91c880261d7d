"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Every tolerance here is fixed; nothing is calibrated at runtime. The slow
criteria (conditioning, function preservation, the convergence race) stay
well inside their stated runtime budgets on one CPU core.
"""

import numpy as np

from whitenet.config import PRESETS, validate_config
from whitenet.data import Dataset, synthetic_images
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
            spec = NetSpec(sizes, hidden="sigmoid", head="sigmoid")
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
            result = train(model, ds, cfg, optimizer=optimizer, val_data=probe)
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

        spec = NetSpec(sizes, loss="binary_cross_entropy")
        canonical = Model(spec, init_fan_in(spec, 63))
        r1 = train(canonical, ds, cfg, optimizer="momentum")
        frozen, _ = gates.whitened_from_seed(sizes, seed=63, loss="binary_cross_entropy")
        r2 = train(frozen, ds, cfg, optimizer="momentum")

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
        report("C7", *gates.c7_gradient_exactness())

    def test_c8_exact_vs_monte_carlo_fisher(self):
        report("C8", *gates.c8_exact_vs_monte_carlo_fisher())

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
