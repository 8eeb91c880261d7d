import numpy as np
import pytest

from whitenet import net, optim
from whitenet.data import Dataset
from whitenet.errors import ConfigError, NumericError, SingularMatrixError
from whitenet.net import Model, NetSpec, WhiteningCoeffs, init_fan_in
from whitenet.optim import (
    OptimizerState,
    TrainConfig,
    prong_reparametrize,
    rmsprop_step,
    sgd_step,
    train,
)

from backward_reference import list_backward, vjp_inputs
from whitened_reference import reference_prong, root, whitened_signals


def make_config(**kw):
    base = dict(learning_rate=0.1, seed=0, max_updates=10, eval_interval=5,
                batch_size=8, stat_samples=16)
    base.update(kw)
    return TrainConfig(**base)


class TestSgdStep:
    def test_zero_gradient_noop(self):
        cfg = make_config()
        p = np.array([1.0, -2.0])
        st = OptimizerState.init(p)
        sgd_step(p, np.zeros(2), st, cfg)
        np.testing.assert_allclose(p, [1.0, -2.0])

    def test_single_step(self):
        cfg = make_config(learning_rate=0.1)
        p = np.array([1.0])
        st = OptimizerState.init(p)
        sgd_step(p, np.array([1.0]), st, cfg)
        np.testing.assert_allclose(p, [0.9])

    def test_quadratic_contraction(self):
        # gradient of p^2/2 is p: 50 steps at alpha=0.1 contract by 0.9^50
        cfg = make_config(learning_rate=0.1)
        p = np.array([1.0])
        st = OptimizerState.init(p)
        for _ in range(50):
            sgd_step(p, p.copy(), st, cfg)
        np.testing.assert_allclose(p, [0.9**50], rtol=1e-12)

    def test_momentum_accumulates(self):
        cfg = make_config(learning_rate=1.0, momentum=0.5)
        p = np.array([0.0])
        st = OptimizerState.init(p)
        sgd_step(p, np.array([1.0]), st, cfg)  # v=1, p=-1
        sgd_step(p, np.array([1.0]), st, cfg)  # v=1.5, p=-2.5
        np.testing.assert_allclose(p, [-2.5])

    def test_step_scales_with_the_config_learning_rate(self):
        # the step reads config.learning_rate at every call: no rate is kept
        # in the state
        g = np.array([1.0, -2.0])
        moves = []
        for rate in (0.1, 0.4):
            cfg = make_config(learning_rate=rate, momentum=0.5)
            p = np.zeros(2)
            st = OptimizerState.init(p)
            sgd_step(p, g.copy(), st, cfg)
            sgd_step(p, g.copy(), st, cfg)
            moves.append(p)
        np.testing.assert_allclose(moves[1], 4.0 * moves[0], rtol=1e-15)
        np.testing.assert_allclose(moves[0], -0.1 * 2.5 * g, rtol=1e-15)

    def test_nonfinite_gradient_refused(self):
        cfg = make_config()
        p = np.array([1.0])
        st = OptimizerState.init(p)
        with pytest.raises(NumericError):
            sgd_step(p, np.array([np.nan]), st, cfg)
        np.testing.assert_allclose(p, [1.0])  # untouched


class TestRmspropStep:
    def test_zero_gradient_noop(self):
        cfg = make_config()
        p = np.ones(3)
        st = OptimizerState.init(p, rmsprop=True)
        rmsprop_step(p, np.zeros(3), st, cfg)
        np.testing.assert_allclose(p, np.ones(3))

    def test_constant_gradient_fixed_point(self, monkeypatch):
        # s converges to g^2 = 1, so the step approaches alpha/(1 + damping)
        monkeypatch.setattr(optim, "RMSPROP_DECAY", 0.9)
        monkeypatch.setattr(optim, "RMSPROP_DAMPING", 0.1)
        cfg = make_config(learning_rate=0.01)
        p = np.array([0.0])
        st = OptimizerState.init(p, rmsprop=True)
        for _ in range(400):
            before = p.copy()
            rmsprop_step(p, np.array([1.0]), st, cfg)
        step = before - p
        np.testing.assert_allclose(step, 0.01 / (1.0 + 0.1), rtol=1e-3)

    def test_step_scales_with_the_config_learning_rate(self):
        g = np.array([0.3, -1.0, 2.0])
        moves = []
        for rate in (0.01, 0.03):
            cfg = make_config(learning_rate=rate)
            p = np.zeros(3)
            st = OptimizerState.init(p, rmsprop=True)
            for _ in range(3):
                rmsprop_step(p, g.copy(), st, cfg)
            moves.append(p)
        np.testing.assert_allclose(moves[1], 3.0 * moves[0], rtol=1e-14)

    def test_scale_invariance_once_warm(self, monkeypatch):
        monkeypatch.setattr(optim, "RMSPROP_DAMPING", 1e-8)

        def first_direction(scale):
            cfg = make_config(learning_rate=0.01)
            rng = np.random.default_rng(0)
            g = rng.standard_normal(5)
            p = np.zeros(5)
            st = OptimizerState.init(p, rmsprop=True)
            for _ in range(2000):  # warm up s on the same gradient
                rmsprop_step(p, g * scale, st, cfg)
            before = p.copy()
            rmsprop_step(p, g * scale, st, cfg)
            d = p - before
            return d / np.linalg.norm(d)

        d1 = first_direction(1.0)
        d10 = first_direction(10.0)
        assert np.abs(d1 - d10).max() < 0.01


def whitened_model(sizes, seed, hidden="tanh", head="sigmoid", loss="squared_error"):
    spec = NetSpec(sizes, hidden=hidden, head=head, loss=loss)
    return Model(spec, init_fan_in(spec, seed), phi=WhiteningCoeffs.identity(spec))


class TestReparametrize:
    def test_function_preserved(self):
        # the parameters are not touched, so the function is kept bit for bit
        model = whitened_model([6, 5, 3], seed=1)
        rng = np.random.default_rng(2)
        stats = rng.standard_normal((64, 6))
        probe = rng.standard_normal((10, 6))
        before = model.forward(probe).outputs
        vector = model.params.vector.copy()
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        assert np.array_equal(model.params.vector, vector)
        assert np.array_equal(model.forward(probe).outputs, before)

    def test_whitening_invariant_eps_zero(self):
        model = whitened_model([6, 5, 3], seed=3)
        stats = np.random.default_rng(4).standard_normal((128, 6))
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        trace = model.forward(stats)
        for a in whitened_signals(model, trace):
            assert np.abs(a.mean(axis=0)).max() < 1e-8
            cov = a.T @ a / a.shape[0]
            assert np.abs(cov - np.eye(cov.shape[0])).max() < 1e-6

    def test_whitening_invariant_eps_positive(self):
        eps = 0.1
        model = whitened_model([5, 4, 2], seed=5)
        stats = np.random.default_rng(6).standard_normal((256, 5))
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=eps)
        trace = model.forward(stats)
        for i, a in enumerate(whitened_signals(model, trace)):
            # Sigma (Sigma + eps I)^-1, Sigma the slot's canonical input
            # covariance on the statistics sample
            centered = trace.signal(i)
            centered = centered - centered.mean(axis=0)
            sigma = centered.T @ centered / centered.shape[0]
            expected = np.linalg.solve(sigma + eps * np.eye(len(sigma)), sigma)
            cov = a.T @ a / a.shape[0]
            assert np.abs(cov - expected).max() < 1e-6

    def test_already_white_statistics_stay_white(self):
        model = whitened_model([4, 3], seed=7)
        stats = np.random.default_rng(8).standard_normal((512, 4))
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        probe = model.forward(stats).outputs
        # second call from already-whitened statistics: still white, function kept
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        a = whitened_signals(model, model.forward(stats))[0]
        assert np.abs(a.T @ a / a.shape[0] - np.eye(4)).max() < 1e-6
        assert np.abs(model.forward(stats).outputs - probe).max() < 1e-9

    def test_first_call_equals_whitening_the_canonical_net(self):
        # from the identity initialization, reparametrizing is exactly the
        # whitening initialization scheme: P = Sigma^-1 from the data
        # covariance, and its root U whitens it
        model = whitened_model([5, 3], seed=9)
        stats = np.random.default_rng(10).standard_normal((200, 5))
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        mean = stats.mean(axis=0)
        np.testing.assert_allclose(model.phi.centers[0], mean, atol=1e-12)
        cov = (stats - mean).T @ (stats - mean) / stats.shape[0]
        p = model.phi.preconditioners[0]
        np.testing.assert_allclose(p @ cov, np.eye(5), atol=1e-8)
        u = root(p)
        np.testing.assert_allclose(u @ cov @ u.T, np.eye(5), atol=1e-8)

    def test_singular_statistics_demand_epsilon(self):
        model = whitened_model([4, 2], seed=11)
        rank_deficient = np.random.default_rng(12).standard_normal((3, 4))  # 3 < 4 samples
        with pytest.raises(SingularMatrixError, match="eigen_epsilon"):
            prong_reparametrize(model.params, model.phi, model.spec, rank_deficient, 0.0)

    def test_epsilon_monotone_trust_region(self):
        # each eigendirection's step multiplier is 1/(lam+eps), decreasing
        # in eps; realized through P
        model = whitened_model([5, 2], seed=13)
        stats = np.random.default_rng(14).standard_normal((300, 5))
        multipliers = []
        for eps in (0.0, 0.1, 1.0):
            m = model.copy()
            info = prong_reparametrize(m.params, m.phi, m.spec, stats, epsilon=eps)
            lam = info.eigenvalues[0]
            multipliers.append(1.0 / (lam + eps))
        for weaker, stronger in zip(multipliers[1:], multipliers[:-1]):
            assert np.all(weaker <= stronger + 1e-15)


class TestTrainLoop:
    def _dataset(self, n=256, dim=6, seed=0):
        x = np.random.default_rng(seed).standard_normal((n, dim))
        w = np.random.default_rng(seed + 1).standard_normal((dim, 2))
        return Dataset(x, 1.0 / (1.0 + np.exp(-(x @ w))))

    def test_degenerate_prong_equals_sgd_bitwise(self):
        ds = self._dataset()
        spec_sizes = [6, 5, 2]
        cfg = make_config(learning_rate=0.05, momentum=0.9, max_updates=120,
                          eval_interval=40, batch_size=16)

        spec = NetSpec(spec_sizes, loss="binary_cross_entropy")
        canonical = Model(spec, init_fan_in(spec, 5))
        r1 = train(canonical, ds, cfg, optimizer="momentum")

        frozen = whitened_model(spec_sizes, seed=5, loss="binary_cross_entropy")
        r2 = train(frozen, ds, cfg, optimizer="momentum")

        for a, b in zip(r1.model.params.weights, r2.model.params.weights):
            assert np.array_equal(a, b)
        for ra, rb in zip(r1.rows, r2.rows):
            assert ra.step == rb.step
            assert ra.train_loss == rb.train_loss
            assert ra.eval_loss == rb.eval_loss

    def test_reparam_rows_flagged_at_period(self):
        ds = self._dataset()
        model = whitened_model([6, 5, 2], seed=6, loss="binary_cross_entropy")
        cfg = make_config(learning_rate=0.05, max_updates=60, eval_interval=20,
                          reparam_period=30, stat_samples=64, eigen_epsilon=1e-2)
        result = train(model, ds, cfg, optimizer="prong")
        flagged = [r.step for r in result.rows if r.reparam_event]
        assert flagged == [0, 30]
        assert result.reparam_steps == [0, 30]
        steps = [r.step for r in result.rows]
        assert steps == sorted(set(steps))

    def test_sgd_run_has_no_reparam_rows(self):
        ds = self._dataset()
        spec = NetSpec([6, 4, 2], loss="binary_cross_entropy")
        model = Model(spec, init_fan_in(spec, 7))
        cfg = make_config(learning_rate=0.05, max_updates=40, eval_interval=10)
        result = train(model, ds, cfg, optimizer="sgd")
        assert all(not r.reparam_event for r in result.rows)

    def test_every_reparametrization_zeroes_the_velocity(self):
        # at reparam_period 1 the velocity is zeroed before every step, so
        # v = 0.9 * 0 + g = g and momentum 0.9 runs bit for bit as momentum 0
        ds = self._dataset(seed=3)

        def run(momentum):
            model = whitened_model([6, 5, 2], seed=8, loss="binary_cross_entropy")
            cfg = make_config(learning_rate=0.05, momentum=momentum, max_updates=40,
                              eval_interval=40, reparam_period=1, stat_samples=64,
                              eigen_epsilon=1e-2)
            return train(model, ds, cfg, optimizer="prong")

        heavy, plain = run(0.9), run(0.0)
        assert heavy.state.step == plain.state.step == 40
        assert np.array_equal(heavy.model.params.vector.view(np.int64),
                              plain.model.params.vector.view(np.int64))

    def test_divergence_aborts_with_record(self):
        ds = self._dataset(seed=11)
        spec = NetSpec([6, 4, 1], head="identity")
        model = Model(spec, init_fan_in(spec, 12))
        dsq = Dataset(ds.inputs, ds.inputs[:, :1] * 1e3)
        cfg = make_config(learning_rate=1e6, max_updates=100, eval_interval=10)
        result = train(model, dsq, cfg, optimizer="sgd")
        record = result.divergence
        assert record is not None
        assert record["step"] == result.state.step < cfg.max_updates
        assert record["optimizer"] == "sgd" and record["learning_rate"] == 1e6
        assert record["reason"]
        assert {"total_seconds", "reparam_seconds", "reparam_fraction"} <= set(result.timing)

    def test_overflowing_gradient_ends_the_run_before_the_step(self):
        # a finite loss whose gradient overflows: the output is
        # 1e-306 * 5e307 = 50, and the head's weight gradient 50 * 5e307
        # overflows, so the step is refused and nothing is updated
        spec = NetSpec([2, 2, 1], hidden="identity", head="identity")
        model = Model(spec, net.Params.of(
            [np.array([[5e150, 0.0], [0.0, 0.0]]), np.array([[1e-306, 0.0]])],
            [np.zeros(2), np.zeros(1)]))
        before = model.params.vector.copy()
        ds = Dataset(np.tile([1e157, 0.0], (4, 1)), np.zeros((4, 1)))
        cfg = make_config(learning_rate=0.1, max_updates=3, eval_interval=1, batch_size=4)
        with np.errstate(over="ignore"):
            result = train(model, ds, cfg, optimizer="sgd")
        assert result.divergence["step"] == 0
        assert result.divergence["reason"] == "non-finite gradient; step refused"
        assert np.isfinite(result.divergence["train_loss"])
        assert result.state.step == 0
        assert np.array_equal(model.params.vector, before)
        assert result.rows == []

    @pytest.mark.parametrize("key, value, rule", [
        ("batch_size", 0, ">= 1"), ("max_updates", -1, ">= 0"), ("eval_interval", 0, ">= 1"),
    ])
    def test_out_of_range_setting_refused_by_name(self, key, value, rule):
        with pytest.raises(ConfigError,
                           match=rf"^invalid config values: train\.{key} \(an integer {rule}\)$"):
            make_config(**{key: value})

    def test_bn_optimizer_trains(self):
        ds = self._dataset(seed=15)
        spec = NetSpec([6, 5, 2], loss="binary_cross_entropy")
        model = Model.batch_norm(spec, init_fan_in(spec, 16))
        cfg = make_config(learning_rate=0.1, max_updates=60, eval_interval=20)
        result = train(model, ds, cfg, optimizer="bn")
        assert result.rows[-1].eval_loss < result.rows[0].eval_loss

    @pytest.mark.parametrize("optimizer", optim.OPTIMIZERS)
    def test_plateau_keeps_the_one_learning_rate(self, optimizer):
        # eight evaluations at a rate too small to make progress: every row
        # still logs the configured rate, and no schedule lowers it
        ds = self._dataset(seed=13)
        spec = NetSpec([6, 4, 2], loss="binary_cross_entropy")
        if optimizer == "prong":
            model = whitened_model([6, 4, 2], seed=14, loss="binary_cross_entropy")
        elif optimizer == "bn":
            model = Model.batch_norm(spec, init_fan_in(spec, 14))
        else:
            model = Model(spec, init_fan_in(spec, 14))
        momentum = 0.0 if optimizer in ("sgd", "rmsprop") else 0.9
        cfg = make_config(learning_rate=1e-9, momentum=momentum, max_updates=40,
                          eval_interval=5, reparam_period=20, stat_samples=64)
        result = train(model, ds, cfg, optimizer=optimizer)
        assert result.divergence is None and result.state.step == 40
        assert [r.step for r in result.rows if r.step > 0] == [5, 10, 15, 20, 25, 30, 35, 40]
        assert all(r.learning_rate == 1e-9 for r in result.rows)

    def test_sgd_rejects_nonzero_momentum(self):
        ds = self._dataset()
        spec = NetSpec([6, 4, 2], loss="binary_cross_entropy")
        model = Model(spec, init_fan_in(spec, 17))
        cfg = make_config(momentum=0.9)
        with pytest.raises(ConfigError):
            train(model, ds, cfg, optimizer="sgd")


class TestNaturalGradientEquivalence:
    def test_projected_step_matches_dense_preconditioned_oracle(self):
        """One whitened SGD step right after reparametrization equals the
        canonical step preconditioned by the inverse input second moment.

        Oracle (independent dense computation): with the homogeneous weight
        [W b] and the uncentered augmented moment M = E[(h,1)(h,1)^T] over
        the statistics sample, the projected change is -alpha * [G_W G_b] M^-1.
        The W block reduces to -alpha * (G_W - delta_bar mu^T) Sigma^-1 with
        Sigma the centered covariance: the centered-gradient reading of the
        preconditioned step.
        """
        rng = np.random.default_rng(30)
        sizes = [7, 5, 3]
        model = whitened_model(sizes, seed=31, hidden="tanh", head="softmax")
        stats = rng.standard_normal((64, 7)) @ np.diag([2.0, 1.5, 1.0, 1.0, 0.7, 0.5, 0.3])
        alpha = 0.05

        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        theta_before = model.params.copy()

        batch_x = rng.standard_normal((16, 7))
        batch_y = np.eye(3)[rng.integers(0, 3, size=16)]
        trace = model.forward(batch_x)
        _, grad = net.loss("categorical_cross_entropy", trace.outputs, batch_y)
        grads = model.backward(trace, grad)

        cfg = make_config(learning_rate=alpha, momentum=0.0)
        state = OptimizerState.init(model.params.vector)
        sgd_step(model.params.vector, grads.vector, state, cfg)
        theta_after = model.params

        # canonical gradients on the same batch (deltas per layer)
        ctrace = net.forward_whitened(theta_before, None, model.spec, batch_x)
        _, cgrad = net.loss("categorical_cross_entropy", ctrace.outputs, batch_y)
        cgrads = net.backward_whitened(ctrace, theta_before, model.spec, cgrad)
        cdeltas = net.backpropagate_deltas(ctrace, theta_before, model.spec,
                                           net.output_delta(ctrace, model.spec, cgrad))

        stats_trace = net.forward_whitened(theta_before, None, model.spec, stats)
        for i in range(model.spec.depth):
            h = ([stats_trace.inputs] + stats_trace.activations)[i]
            aug = np.hstack([h, np.ones((h.shape[0], 1))])
            moment = aug.T @ aug / aug.shape[0]
            g_aug = np.hstack([cgrads.weights[i], cgrads.biases[i][:, None]])
            delta_aug = -alpha * g_aug @ np.linalg.inv(moment)

            dw = theta_after.weights[i] - theta_before.weights[i]
            db = theta_after.biases[i] - theta_before.biases[i]
            assert np.abs(dw - delta_aug[:, :-1]).max() < 1e-8
            assert np.abs(db - delta_aug[:, -1]).max() < 1e-8

            # centered-gradient form of the same identity
            mu = h.mean(axis=0)
            sigma = (h - mu).T @ (h - mu) / h.shape[0]
            delta_bar = cdeltas[i].sum(axis=0)
            centered_g = cgrads.weights[i] - np.outer(delta_bar, mu)
            dw_centered = -alpha * centered_g @ np.linalg.inv(sigma)
            assert np.abs(dw - dw_centered).max() < 1e-8

    def test_plain_identity_with_zero_centering(self):
        """With centering disabled (c = 0) the step is exactly
        -alpha G_W (U^T U) for an arbitrary invertible U."""
        rng = np.random.default_rng(40)
        sizes = [6, 4, 2]
        spec = NetSpec(sizes, hidden="tanh", head="sigmoid")
        theta = init_fan_in(spec, 41)
        phi = WhiteningCoeffs.identity(spec)
        # arbitrary invertible transforms, centers pinned at zero
        transforms = []
        for i, layer in enumerate(spec.layers):
            n = layer.in_dim
            transforms.append(np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n))
            phi.preconditioners[i] = transforms[-1].T @ transforms[-1]
        model = Model(spec, theta, phi=phi)
        alpha = 0.05

        batch_x = rng.standard_normal((16, 6))
        batch_y = rng.uniform(0.2, 0.8, (16, 2))
        trace = model.forward(batch_x)
        _, grad = net.loss("binary_cross_entropy", trace.outputs, batch_y)
        grads = model.backward(trace, grad)
        cfg = make_config(learning_rate=alpha)
        state = OptimizerState.init(model.params.vector)
        sgd_step(model.params.vector, grads.vector, state, cfg)
        theta_after = model.params

        ctrace = net.forward_whitened(theta, None, spec, batch_x)
        _, cgrad = net.loss("binary_cross_entropy", ctrace.outputs, batch_y)
        cgrads = net.backward_whitened(ctrace, theta, spec, cgrad)
        for i, u in enumerate(transforms):
            expected = -alpha * cgrads.weights[i] @ (u.T @ u)
            dw = theta_after.weights[i] - theta.weights[i]
            assert np.abs(dw - expected).max() < 1e-10


def list_reference_train(model, data, config, optimizer, loss_kind):
    """The training loop with the per-array list update that preceded the
    flat parameter vector: parameters, gradients and optimizer buffers are
    lists [w0, b0, w1, b1, ..., g0, s0, ...], each stepped on its own, and
    weight and bias gradients are formed per layer as fresh arrays from the
    deltas (batch norm: from the list backward's). Returns the rows as (step, train_loss, eval_loss, learning_rate,
    reparam_event), the velocities and the mean squares. A whitened
    model's gradients are delta^T (h - c) P and sum(delta) - gW c. Updates
    ``model`` in place."""
    from whitenet.data import BatchPlan, next_batch

    whitened = optimizer == "prong"
    bn = bool(model.params.gains)
    arrays = [a for pair in zip(model.params.weights, model.params.biases) for a in pair]
    if bn:
        arrays += [a for pair in zip(model.params.gains, model.params.shifts) for a in pair]
    velocities = [np.zeros_like(a) for a in arrays]
    mean_squares = [np.zeros_like(a) for a in arrays]
    plan = BatchPlan(seed=config.seed, batch_size=config.batch_size)
    stats_rng = np.random.default_rng([config.seed, 104729])
    alpha, rows, loss_sum, loss_count = config.learning_rate, [], 0.0, 0

    def eval_loss():
        trace = model.forward(data.inputs, training=False)
        return net.loss(loss_kind, trace.outputs, data.targets)[0]

    for t in range(config.max_updates):
        if whitened and t % config.reparam_period == 0:
            idx = stats_rng.choice(data.n, size=min(config.stat_samples, data.n), replace=False)
            info = prong_reparametrize(model.params, model.phi, model.spec, data.inputs[idx],
                                       config.eigen_epsilon)
            for v in velocities:
                v[:] = 0.0
            stats_loss, _ = net.loss(loss_kind, info.outputs, data.targets[idx])
            if rows and rows[-1][0] == t:  # an interval row for this step exists
                rows[-1] = rows[-1][:4] + (True,)
            else:
                rows.append((t, stats_loss, eval_loss(), alpha, True))
        batch = next_batch(data, plan)
        trace = model.forward(batch.inputs, training=True)
        value, grad = net.loss(loss_kind, trace.outputs, batch.targets)
        loss_sum += value
        loss_count += 1
        if bn:
            _, deltas = list_backward(model, trace, vjp_inputs(model, trace), grad)
        else:
            deltas = net.backpropagate_deltas(trace, model.params, model.spec,
                                              net.output_delta(trace, model.spec, grad))
        grads = []
        for i in range(model.spec.depth):
            if whitened:
                c = model.phi.centers[i]
                gw = deltas[i].T @ ((trace.signal(i) - c) @ model.phi.preconditioners[i])
                grads += [gw, deltas[i].sum(axis=0) - gw @ c]
            else:
                grads += [deltas[i].T @ trace.signal(i), deltas[i].sum(axis=0)]
        if bn:
            written = model.backward(trace, grad)
            grads += [g.copy() for pair in zip(written.gains, written.shifts) for g in pair]
        for g in grads:
            assert np.isfinite(g).all()
        if optimizer == "rmsprop":
            rho = optim.RMSPROP_DECAY
            for p, g, s in zip(arrays, grads, mean_squares):
                s *= rho
                s += (1.0 - rho) * g * g
                p -= alpha * g / (np.sqrt(s) + optim.RMSPROP_DAMPING)
        else:
            m = config.momentum
            for p, g, v in zip(arrays, grads, velocities):
                if m != 0.0:
                    v *= m
                    v += g
                    p -= alpha * v
                else:
                    p -= alpha * g
        done = t + 1
        if done % config.eval_interval == 0:
            rows.append((done, loss_sum / loss_count, eval_loss(), alpha, False))
            loss_sum, loss_count = 0.0, 0
    return rows, velocities, mean_squares


class TestFlatUpdateOracle:
    """train() on the flat vector against the per-array list update."""

    @pytest.mark.parametrize("optimizer", optim.OPTIMIZERS)
    def test_bitwise_equal_to_list_update(self, optimizer):
        rng = np.random.default_rng(60)
        x = rng.standard_normal((128, 6)) @ np.diag([2.0, 1.5, 1.0, 0.7, 0.5, 0.3])
        ds = Dataset(x, np.eye(3)[rng.integers(0, 3, size=128)])
        spec = NetSpec([6, 5, 4, 3], hidden="tanh", head="softmax",
                       loss="categorical_cross_entropy")
        if optimizer == "prong":
            model = whitened_model([6, 5, 4, 3], seed=61, head="softmax",
                                   loss="categorical_cross_entropy")
        elif optimizer == "bn":
            model = Model.batch_norm(spec, init_fan_in(spec, 61))
        else:
            model = Model(spec, init_fan_in(spec, 61))
        momentum = 0.0 if optimizer in ("sgd", "rmsprop") else 0.9
        cfg = make_config(learning_rate=0.05, momentum=momentum, max_updates=50,
                          eval_interval=10, reparam_period=20, stat_samples=64,
                          eigen_epsilon=1e-2)
        reference = model.copy()
        result = train(model, ds, cfg, optimizer=optimizer)
        rows, velocities, mean_squares = list_reference_train(
            reference, ds, cfg, optimizer, "categorical_cross_entropy")

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        assert np.array_equal(bits(model.params.vector), bits(reference.params.vector))
        flat_velocity = np.concatenate([v.ravel() for v in velocities])
        assert np.array_equal(bits(result.state.velocity), bits(flat_velocity))
        if optimizer == "rmsprop":
            flat_ms = np.concatenate([s.ravel() for s in mean_squares])
            assert np.array_equal(bits(result.state.mean_square), bits(flat_ms))
        if model.phi is not None:
            for a, b in zip(model.phi.centers + model.phi.preconditioners,
                            reference.phi.centers + reference.phi.preconditioners):
                assert np.array_equal(bits(a), bits(b))
        assert [(r.step, r.train_loss, r.eval_loss, r.learning_rate, r.reparam_event)
                for r in result.rows] == rows
        assert result.state.step == 50


class TestWhitenedOracle:
    def test_prong_matches_the_whitened_parametrization(self):
        """prong through train(), five reparametrizations at momentum 0.9,
        against the run in the whitened parameter space (whitened forward
        and backward, a projection at each reparametrization): every row's
        losses and the final canonical parameters within 1e-9 relative."""
        rng = np.random.default_rng(90)
        x = rng.standard_normal((160, 6)) @ np.diag([2.0, 1.5, 1.0, 0.7, 0.5, 0.3])
        ds = Dataset(x, np.eye(3)[rng.integers(0, 3, size=160)])
        model = whitened_model([6, 5, 4, 3], seed=91, head="softmax",
                               loss="categorical_cross_entropy")
        reference = model.copy()
        cfg = make_config(learning_rate=0.05, momentum=0.9, batch_size=16, max_updates=45,
                          eval_interval=5, reparam_period=10, stat_samples=64,
                          eigen_epsilon=1e-2, seed=4)
        result = train(model, ds, cfg, optimizer="prong")
        rows, theta = reference_prong(reference, ds, cfg, "categorical_cross_entropy")
        assert result.reparam_steps == [0, 10, 20, 30, 40]
        assert [(r.step, r.reparam_event) for r in result.rows] == [(r[0], r[3]) for r in rows]
        for got, expected in zip(result.rows, rows, strict=True):
            assert got.train_loss == pytest.approx(expected[1], rel=1e-9, abs=0.0)
            assert got.eval_loss == pytest.approx(expected[2], rel=1e-9, abs=0.0)
        worst = np.abs(model.params.vector - theta.vector).max()
        assert worst <= 1e-9 * np.abs(theta.vector).max(), worst
