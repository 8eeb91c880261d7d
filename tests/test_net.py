import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenet import net
from whitenet.data import Dataset
from whitenet.errors import ConsistencyError, DimensionError, NumericError
from whitenet.net import (
    BatchNormParams,
    BatchNormState,
    CanonicalParams,
    Model,
    NetSpec,
    WhiteningCoeffs,
    forward_bn,
    forward_canonical,
    forward_whitened,
    init_fan_in,
    loss,
    project_to_canonical,
    project_to_whitened,
)
from whitenet.optim import TrainConfig, train


def seeded_canonical(sizes, seed, hidden="tanh", head="sigmoid"):
    spec = NetSpec.mlp(sizes, hidden=hidden, head=head)
    return spec, init_fan_in(spec, seed)


def seeded_phi(spec, seed, scale=0.5):
    """Random invertible whitening coefficients (identity + perturbation)."""
    rng = np.random.default_rng(seed)
    transforms, centers = [], []
    for layer in spec.layers:
        n = layer.in_dim
        u = np.eye(n) + scale * rng.standard_normal((n, n)) / np.sqrt(n)
        transforms.append(u)
        centers.append(rng.standard_normal(n) * 0.3)
    return WhiteningCoeffs(transforms, centers)


def naive_forward(params, spec, x):
    """Scalar-by-scalar reference evaluation (independent oracle)."""
    h = list(map(float, x))
    for layer, w, b in zip(spec.layers, params.weights, params.biases):
        z = []
        for k in range(layer.out_dim):
            acc = float(b[k])
            for m in range(layer.in_dim):
                acc += float(w[k, m]) * h[m]
            z.append(acc)
        if layer.nonlinearity == "tanh":
            h = [math.tanh(v) for v in z]
        elif layer.nonlinearity == "sigmoid":
            h = [1.0 / (1.0 + math.exp(-v)) for v in z]
        elif layer.nonlinearity == "identity":
            h = z
        else:
            raise NotImplementedError(layer.nonlinearity)
    return np.array(h)


class TestForwardCanonical:
    def test_identity_layer(self):
        spec = NetSpec.mlp([2, 2], head="identity")
        params = CanonicalParams([np.eye(2)], [np.zeros(2)])
        trace = forward_canonical(params, spec, np.array([1.0, 2.0]))
        np.testing.assert_allclose(trace.outputs[0], [1.0, 2.0])

    def test_zero_weight_sigmoid(self):
        spec = NetSpec.mlp([3, 4], head="sigmoid")
        params = CanonicalParams([np.zeros((4, 3))], [np.zeros(4)])
        trace = forward_canonical(params, spec, np.array([5.0, -2.0, 0.1]))
        np.testing.assert_allclose(trace.outputs[0], 0.5 * np.ones(4))

    def test_matches_naive_loop_oracle(self):
        spec, params = seeded_canonical([4, 6, 3], seed=2, hidden="tanh", head="tanh")
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.standard_normal(4)
            got = forward_canonical(params, spec, x).outputs[0]
            np.testing.assert_allclose(got, naive_forward(params, spec, x), atol=1e-12)

    def test_softmax_sums_to_one(self):
        spec, params = seeded_canonical([5, 4, 3], seed=3, head="softmax")
        trace = forward_canonical(params, spec, np.random.default_rng(0).standard_normal((7, 5)))
        np.testing.assert_allclose(trace.outputs.sum(axis=1), np.ones(7), atol=1e-12)

    def test_dimension_error(self):
        spec, params = seeded_canonical([4, 2], seed=1)
        with pytest.raises(DimensionError):
            forward_canonical(params, spec, np.zeros(3))

    def test_numeric_error_names_layer(self):
        spec = NetSpec.mlp([2, 2, 2], hidden="identity", head="identity")
        params = CanonicalParams(
            [np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]])],
            [np.zeros(2), np.zeros(2)],
        )
        with pytest.raises(NumericError, match="layer 1"):
            forward_canonical(params, spec, np.ones(2))


def masked_sigmoid(z):
    """Overflow-free sigmoid by boolean masks: the bitwise reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = np.array([
    0.0, -0.0, 1e-320, -1e-320, 5e-324, -5e-324, 1.0, -1.0, 36.7, -36.7, 37.5, -37.5,
    709.8, -709.8, 745.2, -745.2, 800.0, -800.0,
    np.finfo(float).tiny, -np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max,
])


class TestSigmoidBitIdentity:
    @pytest.mark.parametrize("shape", [(1,), (7,), (64, 200), (3, 5, 11), (200, 64)])
    def test_matches_masked_reference_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        for scale in (1e-10, 1e-5, 1e-2, 1.0, 10.0, 40.0, 800.0):
            z = scale * rng.standard_normal(shape)
            got = net._activate("sigmoid", z)
            assert np.array_equal(got.view(np.int64), masked_sigmoid(z).view(np.int64))
        strided = (800.0 * rng.standard_normal((2 * shape[0],) + shape[1:]))[::2]
        got = net._activate("sigmoid", strided)
        assert np.array_equal(got.view(np.int64), masked_sigmoid(strided).view(np.int64))

    def test_edge_values_bitwise(self):
        with np.errstate(over="ignore"):
            near = np.concatenate([np.nextafter(SIGMOID_EDGES, np.inf),
                                   np.nextafter(SIGMOID_EDGES, -np.inf)])
        z = np.concatenate([SIGMOID_EDGES, near[np.isfinite(near)]])
        got = net._activate("sigmoid", z)
        assert np.array_equal(got.view(np.int64), masked_sigmoid(z).view(np.int64))

    @pytest.mark.parametrize("optimizer", ["momentum", "prong", "prong_plus"])
    def test_training_bitwise_equal_to_reference(self, optimizer, monkeypatch):
        spec = NetSpec((
            net.LayerSpec(6, 8, "sigmoid"),
            net.LayerSpec(8, 5, "tanh"),
            net.LayerSpec(5, 2, "sigmoid"),
        ))
        rng = np.random.default_rng(20)
        x = 3.0 * rng.standard_normal((256, 6))
        targets = masked_sigmoid(x @ rng.standard_normal((6, 2)))
        data = Dataset(x, targets)
        cfg = TrainConfig(learning_rate=0.5, momentum=0.9, seed=1, max_updates=60,
                          eval_interval=10, batch_size=16, reparam_period=20,
                          stat_samples=64, eigen_epsilon=1e-2)

        def run():
            theta = init_fan_in(spec, 21)
            if optimizer == "momentum":
                model = Model.canonical(spec, theta)
            else:
                phi = WhiteningCoeffs.identity(spec)
                model = Model.whitened(spec, project_to_whitened(theta, phi), phi)
            return train(model, data, cfg, optimizer=optimizer,
                         loss_kind="binary_cross_entropy")

        shipped = run()
        activate, vjp = net._activate, net._activation_vjp
        reference_calls = []

        def reference_activate(kind, z):
            if kind == "sigmoid":
                reference_calls.append(z.shape)
                return masked_sigmoid(z)
            return activate(kind, z)

        def reference_vjp(kind, z, h, upstream):
            if kind == "sigmoid":
                return upstream * h * (1.0 - h)
            if kind == "tanh":
                return upstream * (1.0 - h * h)
            return vjp(kind, z, h, upstream)

        monkeypatch.setattr(net, "_activate", reference_activate)
        monkeypatch.setattr(net, "_activation_vjp", reference_vjp)
        reference = run()

        assert reference_calls
        arrays = list(zip(shipped.model.parameter_arrays(), reference.model.parameter_arrays()))
        if optimizer != "momentum":
            arrays += list(zip(shipped.model.phi.transforms, reference.model.phi.transforms))
        for a, b in arrays:
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert [r.step for r in shipped.rows] == [r.step for r in reference.rows]
        for ra, rb in zip(shipped.rows, reference.rows):
            assert ra.eval_loss == rb.eval_loss
            assert ra.train_loss == rb.train_loss


class TestForwardWhitened:
    def test_identity_coeffs_match_canonical(self):
        spec, params = seeded_canonical([5, 4, 2], seed=4)
        phi = WhiteningCoeffs.identity(spec)
        omega = net.WhitenedParams(params.weights, params.biases)
        x = np.random.default_rng(1).standard_normal((6, 5))
        a = forward_canonical(params, spec, x)
        b = forward_whitened(omega, phi, spec, x)
        for ha, hb in zip(a.activations, b.activations):
            assert np.array_equal(ha, hb)

    def test_centering_zeroes_batch_mean(self):
        spec, params = seeded_canonical([4, 3], seed=5)
        x = np.random.default_rng(2).standard_normal((32, 4))
        phi = WhiteningCoeffs([np.eye(4)], [x.mean(axis=0)])
        omega = net.WhitenedParams(params.weights, params.biases)
        trace = forward_whitened(omega, phi, spec, x)
        assert np.abs(trace.whitened_inputs[0].mean(axis=0)).max() < 1e-9

    def test_round_trip_outputs_equal(self):
        spec, params = seeded_canonical([4, 5, 3], seed=6)
        phi = seeded_phi(spec, seed=7)
        omega = project_to_whitened(params, phi)
        back = project_to_canonical(omega, phi)
        x = np.random.default_rng(3).standard_normal((20, 4))
        o1 = forward_canonical(params, spec, x).outputs
        o2 = forward_canonical(back, spec, x).outputs
        assert np.abs(o1 - o2).max() < 1e-10


class TestLoss:
    def test_squared_error_at_optimum(self):
        v, g = loss("squared_error", np.array([0.3, 0.7]), np.array([0.3, 0.7]))
        assert v == 0.0
        np.testing.assert_allclose(g, np.zeros(2))

    def test_binary_cross_entropy_hand_value(self):
        v, g = loss("binary_cross_entropy", np.array([0.5]), np.array([1.0]))
        assert v == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_allclose(g, [-2.0])

    def test_categorical_uniform_hand_value(self):
        o = np.full(10, 0.1)
        t = np.zeros(10)
        t[4] = 1.0
        v, g = loss("categorical_cross_entropy", o, t)
        assert v == pytest.approx(math.log(10.0), abs=1e-12)

    def test_batch_averaging(self):
        o = np.array([[0.2], [0.4]])
        t = np.array([[0.0], [0.0]])
        v, g = loss("squared_error", o, t)
        assert v == pytest.approx(0.5 * (0.04 + 0.16) / 2)
        np.testing.assert_allclose(g, o / 2)

    def test_saturated_outputs_clamped(self):
        o = np.array([0.0, 1.0, 0.5])
        v, g = loss("binary_cross_entropy", o, np.array([1.0, 0.0, 1.0]))
        assert v == pytest.approx(-2.0 * math.log(net.PROB_CLAMP) - math.log(0.5), rel=1e-3)
        assert np.isfinite(g).all()
        v, g = loss("categorical_cross_entropy", np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert v == pytest.approx(-math.log(net.PROB_CLAMP))
        assert np.isfinite(g).all()

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(11)
        o = rng.uniform(0.01, 0.99, size=(8, 4))
        t = rng.uniform(0.0, 1.0, size=(8, 4))
        for kind in ("squared_error", "binary_cross_entropy"):
            v, _ = loss(kind, o, t)
            assert v >= 0.0


def finite_difference_grads(eval_loss, arrays, h=1e-6):
    """Central finite differences for every entry of every array."""
    out = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = eval_loss()
            arr[idx] = orig - h
            lm = eval_loss()
            arr[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
            it.iternext()
        out.append(g)
    return out


def relative_errors(analytic, numeric):
    errs = []
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        errs.append(np.abs(a - n) / denom)
    return max(float(e.max()) for e in errs)


def check_model_gradients(model, x, targets, kind, tol=1e-5):
    def eval_loss():
        trace = model.forward(x, training=True)
        value, _ = loss(kind, trace.outputs, targets)
        return value

    trace = model.forward(x, training=True)
    _, g = loss(kind, trace.outputs, targets)
    bt = model.backward(trace, g)
    analytic = model.gradient_arrays(bt)
    numeric = finite_difference_grads(eval_loss, model.parameter_arrays())
    assert relative_errors(analytic, numeric) < tol


class TestBackward:
    def test_identity_net_zero_gradient_at_target(self):
        spec = NetSpec.mlp([3, 3], head="identity")
        params = CanonicalParams([np.eye(3)], [np.zeros(3)])
        x = np.array([0.3, -0.2, 0.9])
        trace = forward_canonical(params, spec, x)
        _, g = loss("squared_error", trace.outputs, x[None, :])
        bt = net.backward_canonical(trace, params, spec, g)
        for arr in bt.weight_grads + bt.bias_grads:
            np.testing.assert_allclose(arr, 0.0, atol=1e-15)

    def test_sigmoid_cross_entropy_delta(self):
        # with a sigmoid unit under binary cross-entropy, dLoss/dz = h - y
        spec, params = seeded_canonical([4, 1], seed=9, head="sigmoid")
        x = np.random.default_rng(5).standard_normal((6, 4))
        y = np.random.default_rng(6).integers(0, 2, size=(6, 1)).astype(float)
        trace = forward_canonical(params, spec, x)
        _, g = loss("binary_cross_entropy", trace.outputs, y)
        bt = net.backward_canonical(trace, params, spec, g)
        np.testing.assert_allclose(bt.deltas[-1], (trace.outputs - y) / 6.0, atol=1e-12)

    def test_softmax_cross_entropy_delta(self):
        spec, params = seeded_canonical([5, 4], seed=10, head="softmax")
        x = np.random.default_rng(7).standard_normal((8, 5))
        y = np.eye(4)[np.random.default_rng(8).integers(0, 4, size=8)]
        trace = forward_canonical(params, spec, x)
        _, g = loss("categorical_cross_entropy", trace.outputs, y)
        bt = net.backward_canonical(trace, params, spec, g)
        np.testing.assert_allclose(bt.deltas[-1], (trace.outputs - y) / 8.0, atol=1e-12)

    def test_finite_differences_canonical(self):
        spec, params = seeded_canonical([4, 5, 3], seed=12, hidden="tanh", head="sigmoid")
        model = Model.canonical(spec, params)
        rng = np.random.default_rng(13)
        check_model_gradients(model, rng.standard_normal((5, 4)), rng.uniform(0.1, 0.9, (5, 3)),
                              "binary_cross_entropy")

    def test_finite_differences_whitened(self):
        spec, params = seeded_canonical([3, 4, 2], seed=14, hidden="sigmoid", head="identity")
        phi = seeded_phi(spec, seed=15)
        model = Model.whitened(spec, project_to_whitened(params, phi), phi)
        rng = np.random.default_rng(16)
        check_model_gradients(model, rng.standard_normal((4, 3)), rng.standard_normal((4, 2)),
                              "squared_error")

    def test_finite_differences_relu(self):
        spec, params = seeded_canonical([4, 6, 2], seed=17, hidden="relu", head="softmax")
        model = Model.canonical(spec, params)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((5, 4)) + 0.1  # keep pre-activations off the kink
        y = np.eye(2)[rng.integers(0, 2, size=5)]
        check_model_gradients(model, x, y, "categorical_cross_entropy")

    def test_mismatched_trace_rejected(self):
        spec, params = seeded_canonical([3, 2], seed=19)
        phi = WhiteningCoeffs.identity(spec)
        omega = net.WhitenedParams(params.weights, params.biases)
        trace = forward_whitened(omega, phi, spec, np.zeros(3))
        with pytest.raises(ConsistencyError):
            net.backward_canonical(trace, params, spec, np.zeros(2))


class TestProjections:
    def test_identity_coeffs_are_noop(self):
        spec, params = seeded_canonical([4, 3], seed=20)
        phi = WhiteningCoeffs.identity(spec)
        omega = project_to_whitened(params, phi)
        np.testing.assert_allclose(omega.weights[0], params.weights[0])
        np.testing.assert_allclose(omega.biases[0], params.biases[0])

    def test_hand_expanded_example(self):
        # V=I, U=diag(2), c=(1,1), d=0:  W = diag(2), b = -W c = (-2,-2)
        spec = NetSpec.mlp([2, 2], head="identity")
        omega = net.WhitenedParams([np.eye(2)], [np.zeros(2)])
        phi = WhiteningCoeffs([np.diag([2.0, 2.0])], [np.ones(2)])
        theta = project_to_canonical(omega, phi)
        np.testing.assert_allclose(theta.weights[0], np.diag([2.0, 2.0]))
        np.testing.assert_allclose(theta.biases[0], [-2.0, -2.0])

    def test_round_trip_on_omega(self):
        spec, params = seeded_canonical([3, 5, 2], seed=21)
        phi = seeded_phi(spec, seed=22)
        omega = project_to_whitened(params, phi)
        omega2 = project_to_whitened(project_to_canonical(omega, phi), phi)
        for a, b in zip(omega.weights + omega.biases, omega2.weights + omega2.biases):
            assert np.abs(a - b).max() < 1e-10

    def test_function_preserved_under_new_coeffs(self):
        # the core of the amortized reparametrization: moving to fresh
        # coefficients must not change the network function
        spec, params = seeded_canonical([4, 6, 3], seed=23)
        phi_old = seeded_phi(spec, seed=24)
        omega = project_to_whitened(params, phi_old)
        theta = project_to_canonical(omega, phi_old)
        phi_new = seeded_phi(spec, seed=25)
        omega_new = project_to_whitened(theta, phi_new)
        x = np.random.default_rng(26).standard_normal((50, 4))
        o_old = forward_whitened(omega, phi_old, spec, x).outputs
        o_new = forward_whitened(omega_new, phi_new, spec, x).outputs
        assert np.abs(o_old - o_new).max() < 1e-9

    def test_functional_duality_100_inputs(self):
        spec, params = seeded_canonical([5, 4, 2], seed=27)
        phi = seeded_phi(spec, seed=28)
        omega = project_to_whitened(params, phi)
        theta = project_to_canonical(omega, phi)
        x = np.random.default_rng(29).standard_normal((100, 5))
        ow = forward_whitened(omega, phi, spec, x).outputs
        oc = forward_canonical(theta, spec, x).outputs
        assert np.abs(ow - oc).max() < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_projection_bijectivity(self, seed):
        spec, params = seeded_canonical([3, 4, 2], seed=seed)
        phi = seeded_phi(spec, seed=seed + 1)
        omega = project_to_whitened(params, phi)
        theta2 = project_to_canonical(omega, phi)
        for a, b in zip(params.weights + params.biases, theta2.weights + theta2.biases):
            assert np.abs(a - b).max() < 1e-10

    def test_gradient_duality_zero_centering(self):
        # with c = 0 the plain identity G_V = G_W U^T holds exactly
        spec, params = seeded_canonical([4, 3, 2], seed=30)
        phi = seeded_phi(spec, seed=31)
        for c in phi.centers:
            c[:] = 0.0
        omega = project_to_whitened(params, phi)
        theta = project_to_canonical(omega, phi)
        x = np.random.default_rng(32).standard_normal((10, 4))
        y = np.random.default_rng(33).uniform(0.1, 0.9, (10, 2))
        tw = forward_whitened(omega, phi, spec, x)
        tc = forward_canonical(theta, spec, x)
        _, gw = loss("binary_cross_entropy", tc.outputs, y)
        _, gv = loss("binary_cross_entropy", tw.outputs, y)
        btc = net.backward_canonical(tc, theta, spec, gw)
        btw = net.backward_whitened(tw, omega, phi, spec, gv)
        for i in range(spec.depth):
            expected = btc.weight_grads[i] @ phi.transforms[i].T
            assert np.abs(btw.weight_grads[i] - expected).max() < 1e-10

    def test_gradient_duality_general_centering(self):
        # with centering, the bias couples in: G_V = (G_W - delta_bar c^T) U^T
        spec, params = seeded_canonical([4, 3, 2], seed=34)
        phi = seeded_phi(spec, seed=35)
        omega = project_to_whitened(params, phi)
        theta = project_to_canonical(omega, phi)
        x = np.random.default_rng(36).standard_normal((10, 4))
        y = np.random.default_rng(37).uniform(0.1, 0.9, (10, 2))
        tw = forward_whitened(omega, phi, spec, x)
        tc = forward_canonical(theta, spec, x)
        _, gw = loss("binary_cross_entropy", tc.outputs, y)
        _, gv = loss("binary_cross_entropy", tw.outputs, y)
        btc = net.backward_canonical(tc, theta, spec, gw)
        btw = net.backward_whitened(tw, omega, phi, spec, gv)
        for i in range(spec.depth):
            delta_bar = btc.deltas[i].sum(axis=0)
            corrected = btc.weight_grads[i] - np.outer(delta_bar, phi.centers[i])
            expected = corrected @ phi.transforms[i].T
            assert np.abs(btw.weight_grads[i] - expected).max() < 1e-10


class TestInitFanIn:
    def test_bound(self):
        spec = NetSpec.mlp([100, 20], head="sigmoid")
        params = init_fan_in(spec, seed=0)
        assert np.abs(params.weights[0]).max() <= 0.1
        np.testing.assert_allclose(params.biases[0], 0.0)

    def test_deterministic(self):
        spec = NetSpec.mlp([10, 8, 2], head="sigmoid")
        a = init_fan_in(spec, seed=77)
        b = init_fan_in(spec, seed=77)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_empirical_std(self):
        # uniform on [-r, r] has std r/sqrt(3)
        spec = NetSpec.mlp([100, 100], head="sigmoid")
        params = init_fan_in(spec, seed=5)
        r = 1.0 / np.sqrt(100)
        expected = r / np.sqrt(3.0)
        assert params.weights[0].std() == pytest.approx(expected, rel=0.05)


class TestBatchNorm:
    def test_constant_batch_outputs_shift(self):
        spec = NetSpec.mlp([3, 2], head="identity")
        params = CanonicalParams([np.ones((2, 3))], [np.zeros(2)])
        bn = BatchNormParams.init(spec)
        bn.shifts[0][:] = [0.25, -0.5]
        x = np.tile([1.0, 2.0, 3.0], (4, 1))
        trace = forward_bn(params, bn, spec, x)
        np.testing.assert_allclose(trace.bn[0]["zhat"], 0.0, atol=1e-12)
        np.testing.assert_allclose(trace.outputs, np.tile([0.25, -0.5], (4, 1)))

    def test_gain_std_shift_mean_reproduces_raw(self):
        spec, params = seeded_canonical([4, 3], seed=40, head="identity")
        x = np.random.default_rng(41).standard_normal((16, 4))
        z = forward_canonical(params, spec, x).pre_activations[0]
        bn = BatchNormParams.init(spec)
        bn.gains[0][:] = np.maximum(z.std(axis=0), net.BN_STD_FLOOR)
        bn.shifts[0][:] = z.mean(axis=0)
        trace = forward_bn(params, bn, spec, x)
        assert np.abs(trace.outputs - z).max() < 1e-9

    def test_finite_differences_through_bn(self):
        spec, params = seeded_canonical([3, 4, 2], seed=42, hidden="tanh", head="sigmoid")
        model = Model.batch_norm(spec, params)
        rng = np.random.default_rng(43)
        check_model_gradients(model, rng.standard_normal((6, 3)),
                              rng.uniform(0.2, 0.8, (6, 2)), "binary_cross_entropy")

    def test_overflowing_gain_names_layer(self):
        spec, params = seeded_canonical([3, 4, 2], seed=47, hidden="relu", head="sigmoid")
        bn = BatchNormParams.init(spec)
        bn.gains[0][:] = np.finfo(float).max
        bn.shifts[0][:] = np.finfo(float).max
        x = np.random.default_rng(48).standard_normal((8, 3))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="layer 0"):
            forward_bn(params, bn, spec, x)

    def test_batch_of_one_rejected(self):
        spec, params = seeded_canonical([3, 2], seed=44)
        with pytest.raises(net.InsufficientBatchError):
            forward_bn(params, BatchNormParams.init(spec), spec, np.zeros((1, 3)))

    def test_inference_uses_running_averages(self):
        spec, params = seeded_canonical([3, 2], seed=45)
        bn = BatchNormParams.init(spec)
        state = BatchNormState.init(spec)
        rng = np.random.default_rng(46)
        for _ in range(50):
            forward_bn(params, bn, spec, rng.standard_normal((32, 3)), state=state)
        x = rng.standard_normal((8, 3))
        out1 = forward_bn(params, bn, spec, x, state=state, training=False).outputs
        out2 = forward_bn(params, bn, spec, x[:4], state=state, training=False).outputs
        # inference output per example independent of the rest of the batch
        np.testing.assert_allclose(out1[:4], out2)
