import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenet import net
from whitenet.data import Dataset
from whitenet.errors import ConsistencyError, DimensionError, NumericError
from whitenet.net import (
    BatchNormState,
    Model,
    NetSpec,
    Params,
    WhiteningCoeffs,
    forward_whitened,
    init_fan_in,
    loss,
)
from whitenet.optim import TrainConfig, train

from backward_reference import list_backward, vjp_inputs
from whitened_reference import Whitened


def seeded_canonical(sizes, seed, hidden="tanh", head="sigmoid"):
    spec = NetSpec.mlp(sizes, hidden=hidden, head=head)
    return spec, init_fan_in(spec, seed)


def seeded_phi(spec, seed, scale=0.5):
    """Random whitening coefficients: centers, and P = U^T U of a random
    invertible U (identity + perturbation)."""
    rng = np.random.default_rng(seed)
    centers, preconditioners = [], []
    for layer in spec.layers:
        n = layer.in_dim
        u = np.eye(n) + scale * rng.standard_normal((n, n)) / np.sqrt(n)
        preconditioners.append(u.T @ u)
        centers.append(rng.standard_normal(n) * 0.3)
    return WhiteningCoeffs(centers, preconditioners)


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
        params = Params.of([np.eye(2)], [np.zeros(2)])
        trace = forward_whitened(params, None, spec, np.array([1.0, 2.0]))
        np.testing.assert_allclose(trace.outputs[0], [1.0, 2.0])

    def test_zero_weight_sigmoid(self):
        spec = NetSpec.mlp([3, 4], head="sigmoid")
        params = Params.of([np.zeros((4, 3))], [np.zeros(4)])
        trace = forward_whitened(params, None, spec, np.array([5.0, -2.0, 0.1]))
        np.testing.assert_allclose(trace.outputs[0], 0.5 * np.ones(4))

    def test_matches_naive_loop_oracle(self):
        spec, params = seeded_canonical([4, 6, 3], seed=2, hidden="tanh", head="tanh")
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.standard_normal(4)
            got = forward_whitened(params, None, spec, x).outputs[0]
            np.testing.assert_allclose(got, naive_forward(params, spec, x), atol=1e-12)

    def test_softmax_sums_to_one(self):
        spec, params = seeded_canonical([5, 4, 3], seed=3, head="softmax")
        trace = forward_whitened(params, None, spec, np.random.default_rng(0).standard_normal((7, 5)))
        np.testing.assert_allclose(trace.outputs.sum(axis=1), np.ones(7), atol=1e-12)

    def test_dimension_error(self):
        spec, params = seeded_canonical([4, 2], seed=1)
        with pytest.raises(DimensionError):
            forward_whitened(params, None, spec, np.zeros(3))

    def test_numeric_error_names_layer(self):
        spec = NetSpec.mlp([2, 2, 2], hidden="identity", head="identity")
        params = Params.of(
            [np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]])],
            [np.zeros(2), np.zeros(2)],
        )
        with pytest.raises(NumericError, match="layer 1"):
            forward_whitened(params, None, spec, np.ones(2))


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


@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu", "identity", "softmax"])
def test_activation_is_written_over_z_with_the_same_bits(kind):
    # the out-of-place forms _activate used before it wrote h over z
    z = 5.0 * np.random.default_rng(3).standard_normal((64, 7))
    shifted = z - z.max(axis=1, keepdims=True)
    want = {"sigmoid": masked_sigmoid(z), "tanh": np.tanh(z), "relu": np.maximum(z, 0.0),
            "identity": z.copy(),
            "softmax": np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)}[kind]
    got = net._activate(kind, z)
    assert got is z
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSigmoidBitIdentity:
    @pytest.mark.parametrize("shape", [(1,), (7,), (64, 200), (3, 5, 11), (200, 64)])
    def test_matches_masked_reference_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        for scale in (1e-10, 1e-5, 1e-2, 1.0, 10.0, 40.0, 800.0):
            z = scale * rng.standard_normal(shape)
            got = net._activate("sigmoid", z.copy())
            assert np.array_equal(got.view(np.int64), masked_sigmoid(z).view(np.int64))
        strided = (800.0 * rng.standard_normal((2 * shape[0],) + shape[1:]))[::2]
        want = masked_sigmoid(strided)
        got = net._activate("sigmoid", strided)  # a strided z, written over
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_edge_values_bitwise(self):
        with np.errstate(over="ignore"):
            near = np.concatenate([np.nextafter(SIGMOID_EDGES, np.inf),
                                   np.nextafter(SIGMOID_EDGES, -np.inf)])
        z = np.concatenate([SIGMOID_EDGES, near[np.isfinite(near)]])
        got = net._activate("sigmoid", z.copy())
        assert np.array_equal(got.view(np.int64), masked_sigmoid(z).view(np.int64))

    @pytest.mark.parametrize("optimizer", ["momentum", "prong"])
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
                model = Model(spec, theta)
            else:
                model = Model(spec, theta, phi=WhiteningCoeffs.identity(spec))
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

        def reference_vjp(kind, h, upstream):
            if kind == "sigmoid":
                return upstream * h * (1.0 - h)
            if kind == "tanh":
                return upstream * (1.0 - h * h)
            return vjp(kind, h, upstream)

        monkeypatch.setattr(net, "_activate", reference_activate)
        monkeypatch.setattr(net, "_activation_vjp", reference_vjp)
        reference = run()

        assert reference_calls
        arrays = [(shipped.model.params.vector, reference.model.params.vector)]
        if optimizer != "momentum":
            arrays += list(zip(shipped.model.phi.preconditioners,
                               reference.model.phi.preconditioners))
        for a, b in arrays:
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert [r.step for r in shipped.rows] == [r.step for r in reference.rows]
        for ra, rb in zip(shipped.rows, reference.rows):
            assert ra.eval_loss == rb.eval_loss
            assert ra.train_loss == rb.train_loss


class TestForwardWhitened:
    def test_identity_coeffs_match_canonical(self):
        # phi=None is the plain gradient; identity coefficients multiply by
        # P = I and subtract gW c = 0, and both give bitwise-equal
        # activations and gradients
        spec, params = seeded_canonical([5, 4, 2], seed=4)
        phi = WhiteningCoeffs.identity(spec)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 5))
        y = rng.uniform(0.1, 0.9, (6, 2))
        a = forward_whitened(params, None, spec, x)
        b = forward_whitened(params, phi, spec, x)
        for ha, hb in zip(a.activations, b.activations):
            assert np.array_equal(ha, hb)
        _, g = loss("binary_cross_entropy", a.outputs, y)
        grads_a = net.backward_whitened(a, params, spec, g)
        grads_b = net.backward_whitened(b, params, spec, g)
        for ga, gb in zip(grads_a.weights + grads_a.biases, grads_b.weights + grads_b.biases):
            assert np.array_equal(ga, gb)

    def test_coefficients_do_not_enter_the_forward(self):
        # the network function is the canonical one whatever the
        # coefficients: the trace only records them for the backward
        spec, params = seeded_canonical([4, 5, 3], seed=6)
        phi = seeded_phi(spec, seed=7)
        x = np.random.default_rng(3).standard_normal((20, 4))
        plain = forward_whitened(params, None, spec, x)
        whitened = forward_whitened(params, phi, spec, x)
        assert whitened.phi is phi and plain.phi is None
        for a, b in zip(plain.activations, whitened.activations, strict=True):
            assert np.array_equal(a, b)


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

    @staticmethod
    def clip_form_loss(kind, output, target):
        """``net.loss`` as it was written with np.clip and 1 - t twice."""
        o = np.atleast_2d(np.asarray(output, dtype=np.float64))
        t = np.atleast_2d(np.asarray(target, dtype=np.float64))
        b = o.shape[0]
        if kind == "squared_error":
            r = o - t
            with np.errstate(over="ignore"):
                value = 0.5 * float((r * r).sum()) / b
            grad = r / b
        elif kind == "binary_cross_entropy":
            p = np.clip(o, net.PROB_CLAMP, 1.0 - net.PROB_CLAMP)
            value = -float((t * np.log(p) + (1.0 - t) * np.log1p(-p)).sum()) / b
            grad = (-t / p + (1.0 - t) / (1.0 - p)) / b
        else:
            p = np.clip(o, net.PROB_CLAMP, 1.0)
            value = -float((t * np.log(p)).sum()) / b
            grad = -(t / p) / b
        if np.asarray(output).ndim == 1:
            grad = grad[0]
        return value, grad

    @pytest.mark.parametrize("kind", net.LOSS_KINDS)
    def test_matches_clip_form_bitwise(self, kind):
        rng = np.random.default_rng(12)
        o = rng.uniform(0.0, 1.0, size=(5, 4))
        o[0] = [0.0, 1.0, np.nan, 1e-13]
        o[1, :2] = [1.0 - 1e-13, -0.0]
        t = rng.uniform(0.0, 1.0, size=(5, 4))
        t[2, 0] = 1.0
        for out, tgt in ((o, t), (o[0], t[0]), (o[1:], t[1:]), (o[3], t[3])):
            with np.errstate(invalid="ignore"):
                value, grad = loss(kind, out, tgt)
                ref_value, ref_grad = self.clip_form_loss(kind, out, tgt)
            assert np.array_equal(np.float64(value).view(np.int64),
                                  np.float64(ref_value).view(np.int64))
            assert grad.shape == ref_grad.shape
            assert np.array_equal(grad.view(np.int64), ref_grad.view(np.int64))

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
    """The backward against central differences of the loss in the model's
    parameters; for a whitened model, in its whitened parameters (V, d),
    mapped to the step direction they make in (W, b)."""
    white = Whitened(model) if model.phi is not None else None

    def eval_loss():
        if white is not None:
            return loss(kind, white.forward(x)[1][-1], targets)[0]
        trace = model.forward(x, training=True)
        value, _ = loss(kind, trace.outputs, targets)
        return value

    trace = model.forward(x, training=True)
    _, g = loss(kind, trace.outputs, targets)
    analytic = [model.backward(trace, g).vector]
    numeric = finite_difference_grads(eval_loss, [model.params.vector if white is None
                                                  else white.vector])
    if white is not None:
        numeric = [white.canonical(numeric[0]).vector]
    assert relative_errors(analytic, numeric) < tol


class TestBackward:
    def test_identity_net_zero_gradient_at_target(self):
        spec = NetSpec.mlp([3, 3], head="identity")
        params = Params.of([np.eye(3)], [np.zeros(3)])
        x = np.array([0.3, -0.2, 0.9])
        trace = forward_whitened(params, None, spec, x)
        _, g = loss("squared_error", trace.outputs, x[None, :])
        grads = net.backward_whitened(trace, params, spec, g)
        for arr in grads.weights + grads.biases:
            np.testing.assert_allclose(arr, 0.0, atol=1e-15)

    def test_sigmoid_cross_entropy_delta(self):
        # with a sigmoid unit under binary cross-entropy, dLoss/dz = h - y
        spec, params = seeded_canonical([4, 1], seed=9, head="sigmoid")
        x = np.random.default_rng(5).standard_normal((6, 4))
        y = np.random.default_rng(6).integers(0, 2, size=(6, 1)).astype(float)
        trace = forward_whitened(params, None, spec, x)
        _, g = loss("binary_cross_entropy", trace.outputs, y)
        delta = net.output_delta(trace, spec, g)
        np.testing.assert_allclose(delta, (trace.outputs - y) / 6.0, atol=1e-12)

    def test_softmax_cross_entropy_delta(self):
        spec, params = seeded_canonical([5, 4], seed=10, head="softmax")
        x = np.random.default_rng(7).standard_normal((8, 5))
        y = np.eye(4)[np.random.default_rng(8).integers(0, 4, size=8)]
        trace = forward_whitened(params, None, spec, x)
        _, g = loss("categorical_cross_entropy", trace.outputs, y)
        delta = net.output_delta(trace, spec, g)
        np.testing.assert_allclose(delta, (trace.outputs - y) / 8.0, atol=1e-12)

    def test_finite_differences_canonical(self):
        spec, params = seeded_canonical([4, 5, 3], seed=12, hidden="tanh", head="sigmoid")
        model = Model(spec, params)
        rng = np.random.default_rng(13)
        check_model_gradients(model, rng.standard_normal((5, 4)), rng.uniform(0.1, 0.9, (5, 3)),
                              "binary_cross_entropy")

    def test_finite_differences_whitened(self):
        spec, params = seeded_canonical([3, 4, 2], seed=14, hidden="sigmoid", head="identity")
        model = Model(spec, params, phi=seeded_phi(spec, seed=15))
        rng = np.random.default_rng(16)
        check_model_gradients(model, rng.standard_normal((4, 3)), rng.standard_normal((4, 2)),
                              "squared_error")

    def test_finite_differences_relu(self):
        spec, params = seeded_canonical([4, 6, 2], seed=17, hidden="relu", head="softmax")
        model = Model(spec, params)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((5, 4)) + 0.1  # keep pre-activations off the kink
        y = np.eye(2)[rng.integers(0, 2, size=5)]
        check_model_gradients(model, x, y, "categorical_cross_entropy")

    def test_mismatched_trace_rejected(self):
        # a BN trace with canonical parameters, and a canonical trace with BN ones
        spec, params = seeded_canonical([3, 2], seed=19)
        bn = Model.batch_norm(spec, params).params
        x = np.zeros((4, 3))
        for traced, given in [(bn, params), (params, bn)]:
            trace = forward_whitened(traced, None, spec, x, training=True)
            with pytest.raises(ConsistencyError, match="disagree on batch normalization"):
                net.backward_whitened(trace, given, spec, np.zeros((4, 2)))


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestStreamedBackward:
    """The backward that writes each layer's gradient as its delta arrives
    and reads h where it read z gives the list backward's bits."""

    KINDS = ["canonical", "whitened", "bn", "bn-inference", "bn-floored"]

    def model(self, kind, hidden, head):
        spec, params = seeded_canonical([6, 5, 4, 3], seed=70, hidden=hidden, head=head)
        if kind == "canonical":
            return Model(spec, params)
        if kind == "whitened":
            return Model(spec, params, phi=seeded_phi(spec, seed=71))
        model = Model.batch_norm(spec, params)
        rng = np.random.default_rng(72)
        for g, sh in zip(model.params.gains, model.params.shifts):
            g[:] = rng.uniform(0.5, 2.0, g.shape)
            sh[:] = rng.uniform(-0.5, 0.5, sh.shape)
        if kind == "bn-floored":
            # a zero weight row holds the unit's pre-activation constant, so
            # its batch std is floored
            model.params.weights[1][0] = 0.0
        return model

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("head", ["sigmoid", "softmax", "identity"])
    @pytest.mark.parametrize("hidden", ["sigmoid", "tanh", "relu", "identity"])
    def test_gradients_and_deltas_are_the_list_backwards(self, hidden, head, kind):
        model = self.model(kind, hidden, head)
        rng = np.random.default_rng(73)
        x = rng.standard_normal((9, 6))
        if kind == "bn-inference":
            model.forward(x, training=True)  # moves the running statistics
        trace = model.forward(x, training=kind != "bn-inference")
        if kind == "bn-floored":
            assert trace.bn[1]["floored"].tolist() == [True, False, False, False]
        zs = vjp_inputs(model, trace)
        if hidden == "relu":
            # rows on the kink: h = max(z, 0) is 0 for z = +0.0 and -0.0 alike
            for z, h in zip(zs[:-1], trace.activations[:-1]):
                z[0], z[1] = 0.0, -0.0
                np.maximum(z[:2], 0.0, out=h[:2])
            assert np.signbit(zs[0][1]).all() and not np.signbit(zs[0][0]).any()
        _, g = loss("squared_error", trace.outputs, rng.uniform(0.1, 0.9, (9, 3)))
        expected, deltas = list_backward(model, trace, zs, g)
        out = model.layout()
        assert model.backward(trace, g, out=out) is out
        assert np.array_equal(bits(out.vector), bits(expected.vector))
        assert np.array_equal(bits(model.backward(trace, g).vector), bits(expected.vector))
        if not model.params.gains:
            streamed = net.backpropagate_deltas(trace, model.params, model.spec,
                                                net.output_delta(trace, model.spec, g))
            for a, b in zip(streamed, deltas, strict=True):
                assert np.array_equal(bits(a), bits(b))


class TestWhitenedGradient:
    """A whitened model's backward is the gradient of its whitened
    parametrization, V a + d with a = U (h - c), mapped to the canonical
    parameters: delta^T (h - c) P and sum(delta) - gW c."""

    def test_hand_expanded_example(self):
        # W = I, b = 0, c = (1, 1), P = diag(4, 4) (U = diag(2, 2)); one
        # row x = (3, 1) under squared error against 0: delta = (3, 1),
        # (x - c) P = (8, 0), gW = delta^T (8, 0), gb = delta - gW c
        spec = NetSpec.mlp([2, 2], head="identity")
        params = Params.of([np.eye(2)], [np.zeros(2)])
        model = Model(spec, params, phi=WhiteningCoeffs([np.ones(2)], [np.diag([4.0, 4.0])]))
        x = np.array([[3.0, 1.0]])
        trace = model.forward(x)
        _, g = loss("squared_error", trace.outputs, np.zeros((1, 2)))
        grads = model.backward(trace, g)
        np.testing.assert_allclose(grads.weights[0], [[24.0, 0.0], [8.0, 0.0]])
        np.testing.assert_allclose(grads.biases[0], [-21.0, -7.0])

    def test_zero_centering_is_the_canonical_gradient_times_p(self):
        spec, params = seeded_canonical([4, 3, 2], seed=30)
        phi = seeded_phi(spec, seed=31)
        for c in phi.centers:
            c[:] = 0.0
        x = np.random.default_rng(32).standard_normal((10, 4))
        y = np.random.default_rng(33).uniform(0.1, 0.9, (10, 2))
        plain = Model(spec, params)
        whitened = Model(spec, params, phi=phi)
        _, g = loss("binary_cross_entropy", plain.forward(x).outputs, y)
        grad_w = plain.backward(plain.forward(x), g)
        grad_p = whitened.backward(whitened.forward(x), g)
        for i in range(spec.depth):
            assert np.abs(grad_p.weights[i] - grad_w.weights[i] @ phi.preconditioners[i]).max() < 1e-12
            assert np.array_equal(grad_p.biases[i], grad_w.biases[i])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_the_whitened_reference(self, seed):
        spec, params = seeded_canonical([4, 3, 2], seed=seed)
        model = Model(spec, params, phi=seeded_phi(spec, seed=seed + 1))
        rng = np.random.default_rng(seed + 2)
        x = rng.standard_normal((10, 4))
        y = rng.uniform(0.1, 0.9, (10, 2))
        white = Whitened(model)
        # the reference computes the same function in (V, d)
        assert np.abs(white.forward(x)[1][-1] - model.forward(x).outputs).max() < 1e-10
        assert np.abs(white.canonical().vector - params.vector).max() < 1e-10
        _, g = loss("binary_cross_entropy", model.forward(x).outputs, y)
        expected = white.canonical(white.gradient(x, y, "binary_cross_entropy")[1])
        assert np.abs(model.backward(model.forward(x), g).vector - expected.vector).max() < 1e-10


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
        params = Params.of([np.ones((2, 3))], [np.zeros(2)])
        bn = Model.batch_norm(spec, params).params
        bn.shifts[0][:] = [0.25, -0.5]
        x = np.tile([1.0, 2.0, 3.0], (4, 1))
        trace = forward_whitened(bn, None, spec, x, training=True)
        np.testing.assert_allclose(trace.bn[0]["zhat"], 0.0, atol=1e-12)
        np.testing.assert_allclose(trace.outputs, np.tile([0.25, -0.5], (4, 1)))

    def test_gain_std_shift_mean_reproduces_raw(self):
        spec, params = seeded_canonical([4, 3], seed=40, head="identity")
        x = np.random.default_rng(41).standard_normal((16, 4))
        z = x @ params.weights[0].T + params.biases[0]
        bn = Model.batch_norm(spec, params).params
        bn.gains[0][:] = np.maximum(z.std(axis=0), net.BN_STD_FLOOR)
        bn.shifts[0][:] = z.mean(axis=0)
        trace = forward_whitened(bn, None, spec, x, training=True)
        assert np.abs(trace.outputs - z).max() < 1e-9

    def test_finite_differences_through_bn(self):
        spec, params = seeded_canonical([3, 4, 2], seed=42, hidden="tanh", head="sigmoid")
        model = Model.batch_norm(spec, params)
        rng = np.random.default_rng(43)
        check_model_gradients(model, rng.standard_normal((6, 3)),
                              rng.uniform(0.2, 0.8, (6, 2)), "binary_cross_entropy")

    def test_overflowing_gain_names_layer(self):
        spec, params = seeded_canonical([3, 4, 2], seed=47, hidden="relu", head="sigmoid")
        bn = Model.batch_norm(spec, params).params
        bn.gains[0][:] = np.finfo(float).max
        bn.shifts[0][:] = np.finfo(float).max
        x = np.random.default_rng(48).standard_normal((8, 3))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="layer 0"):
            forward_whitened(bn, None, spec, x, training=True)

    def test_batch_of_one_rejected(self):
        spec, params = seeded_canonical([3, 2], seed=44)
        with pytest.raises(net.InsufficientBatchError):
            Model.batch_norm(spec, params).forward(np.zeros((1, 3)), training=True)

    def test_inference_uses_running_averages(self):
        spec, params = seeded_canonical([3, 2], seed=45)
        bn = Model.batch_norm(spec, params).params
        state = BatchNormState.init(spec)
        rng = np.random.default_rng(46)
        for _ in range(50):
            forward_whitened(bn, None, spec, rng.standard_normal((32, 3)), state, training=True)
        x = rng.standard_normal((8, 3))
        out1 = forward_whitened(bn, None, spec, x, state).outputs
        out2 = forward_whitened(bn, None, spec, x[:4], state).outputs
        # inference output per example independent of the rest of the batch
        np.testing.assert_allclose(out1[:4], out2)

    def test_whitening_coefficients_refused(self):
        # a batch-norm model's forward would whiten with them, and its
        # checkpoint would drop them
        spec, params = seeded_canonical([3, 2], seed=49)
        bn = Model.batch_norm(spec, params).params
        with pytest.raises(ConsistencyError, match="no whitening coefficients"):
            Model(spec, bn, phi=WhiteningCoeffs.identity(spec))
