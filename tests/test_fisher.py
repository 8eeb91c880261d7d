import numpy as np
import pytest

from whitenet import net
from whitenet.data import synthetic_classification
from whitenet.errors import ConsistencyError, FisherSizeError
from whitenet.fisher import (
    ClassSweep,
    ConditioningRow,
    class_sweep,
    conditioning_report,
    exact_fisher_block,
    factorized_fisher_block,
)
from whitenet.linalg import condition_number
from whitenet.net import (
    Model,
    NetSpec,
    Params,
    WhiteningCoeffs,
    init_fan_in,
    project_to_whitened,
)
from whitenet.optim import TrainConfig, prong_reparametrize


def canonical_model(sizes, seed, hidden="tanh", head="sigmoid"):
    spec = NetSpec.mlp(sizes, hidden=hidden, head=head)
    return Model(spec, init_fan_in(spec, seed))


class TestExactBlock:
    def test_zero_input_kills_first_layer_block(self):
        model = canonical_model([3, 2, 1], seed=0)
        block = exact_fisher_block(model, np.zeros((4, 3)), 0)
        np.testing.assert_allclose(block.matrix, 0.0)

    def test_single_sigmoid_unit_rank_one(self):
        # one linear->sigmoid unit with p = 0.5 on a single input x:
        # delta is (h - y) with y ~ Bernoulli(0.5), so E[delta^2] = 0.25 and
        # F = 0.25 * vec(x) vec(x)^T
        spec = NetSpec.mlp([3, 1], head="sigmoid")
        params = Params.of([np.zeros((1, 3))], [np.zeros(1)])
        model = Model(spec, params)
        x = np.array([[0.5, -1.0, 2.0]])
        block = exact_fisher_block(model, x, 0)
        expected = 0.25 * np.outer(x[0], x[0])
        np.testing.assert_allclose(block.matrix, expected, atol=1e-12)

    def test_symmetric_and_psd(self):
        model = canonical_model([5, 4, 1], seed=1)
        x = np.random.default_rng(2).standard_normal((32, 5))
        block = exact_fisher_block(model, x, 1)
        assert np.abs(block.matrix - block.matrix.T).max() < 1e-9
        lam = block.eigenvalues()
        assert lam.min() >= -1e-8 * max(lam.max(), 1e-30)

    def test_size_guard(self):
        model = canonical_model([60, 40, 1], seed=3)
        with pytest.raises(FisherSizeError):
            exact_fisher_block(model, np.zeros((4, 60)), 0)

    def test_matches_monte_carlo_label_sampling(self):
        """Exact class enumeration vs Monte-Carlo y-sampling (the spec's
        independent oracle): for a binary head the MC estimate replaces the
        exact class weights (1-p, p) by seeded Bernoulli frequencies."""
        model = canonical_model([10, 6, 4, 1], seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((100, 10))
        layer = 1
        exact = exact_fisher_block(model, x, layer).matrix

        draws = 10_000
        trace = model.forward(x)
        p1 = trace.outputs[:, 0]
        counts = rng.binomial(draws, p1) / draws  # frequency of y=1 per input
        per_class = []
        for y, freq in ((0.0, 1.0 - counts), (1.0, counts)):
            delta_last = trace.outputs - y
            deltas = net.backpropagate_deltas(trace, model.params, model.spec, delta_last)
            per_class.append((freq, deltas[layer]))
        signal = ([trace.inputs] + trace.activations)[layer]
        b = x.shape[0]
        size = exact.shape[0]
        mc = np.zeros_like(exact)
        for freq, deltas in per_class:
            g = np.einsum("bi,bj->bij", deltas, signal).reshape(b, size)
            mc += (g * freq[:, None]).T @ g
        mc /= b
        rel = np.linalg.norm(mc - exact) / np.linalg.norm(exact)
        assert rel < 0.02

    def test_softmax_shift_invariance(self):
        # adding a constant to all logits leaves p(y|x), deltas, and the FIM
        # unchanged
        model = canonical_model([4, 3, 3], seed=6, head="softmax")
        x = np.random.default_rng(7).standard_normal((16, 4))
        f1 = exact_fisher_block(model, x, 0).matrix
        shifted = model.copy()
        shifted.params.biases[-1] += 5.0
        f2 = exact_fisher_block(shifted, x, 0).matrix
        assert np.abs(f1 - f2).max() < 1e-9


class TestFactorizedBlock:
    def test_vec_row_major_indexing(self):
        # F[km, ln] = delta_cov[k, l] * act_cov[m, n] with row-major vec
        model = canonical_model([3, 2, 1], seed=8)
        x = np.random.default_rng(9).standard_normal((8, 3))
        block = factorized_fisher_block(model, x, 1)
        n_in = 2
        for k in range(1):
            for m in range(n_in):
                for l in range(1):
                    for n_ in range(n_in):
                        assert block.matrix[k * n_in + m, l * n_in + n_] == pytest.approx(
                            block.delta_cov[k, l] * block.act_cov[m, n_]
                        )

    def test_kron_eigenvalues_match_materialized(self):
        model = canonical_model([4, 3, 1], seed=10)
        x = np.random.default_rng(11).standard_normal((24, 4))
        block = factorized_fisher_block(model, x, 1)
        from whitenet.linalg import sym_eig

        direct = sym_eig(block.matrix).eigenvalues
        np.testing.assert_allclose(block.eigenvalues(), direct, atol=1e-10)

    def test_rank_one_data_factorized_equals_exact(self):
        # with a single input and a linear head the independence assumption
        # holds degenerately, so the factorization is exact
        spec = NetSpec.mlp([3, 1], head="sigmoid")
        params = Params.of([np.array([[0.2, -0.4, 0.1]])], [np.zeros(1)])
        model = Model(spec, params)
        x = np.array([[1.0, 2.0, -0.5]])
        exact = exact_fisher_block(model, x, 0).matrix
        fact = factorized_fisher_block(model, x, 0)
        np.testing.assert_allclose(fact.matrix, exact, atol=1e-12)

    def test_general_factorized_differs_from_exact(self):
        model = canonical_model([6, 5, 1], seed=12)
        x = np.random.default_rng(13).standard_normal((64, 6))
        exact = exact_fisher_block(model, x, 1).matrix
        fact = factorized_fisher_block(model, x, 1)
        gap = np.linalg.norm(fact.matrix - exact) / np.linalg.norm(exact)
        assert gap > 0.0  # the independence assumption is an approximation

    def test_whitened_act_factor_is_identity_after_reparam(self):
        spec = NetSpec.mlp([6, 4, 1], hidden="tanh", head="sigmoid")
        theta = init_fan_in(spec, 14)
        phi = WhiteningCoeffs.identity(spec)
        model = Model(spec, project_to_whitened(theta, phi), phi=phi)
        stats = np.random.default_rng(15).standard_normal((200, 6))
        prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=0.0)
        block = factorized_fisher_block(model, stats, 1)
        assert np.abs(block.act_cov - np.eye(4)).max() < 1e-6
        expected = np.kron(block.delta_cov, np.eye(4))
        assert np.abs(block.matrix - expected).max() < 1e-6 * max(
            np.abs(block.delta_cov).max(), 1e-12
        )


def whitened_model(sizes, seed, stats):
    spec = NetSpec.mlp(sizes, hidden="tanh", head="sigmoid")
    theta = init_fan_in(spec, seed)
    phi = WhiteningCoeffs.identity(spec)
    model = Model(spec, project_to_whitened(theta, phi), phi=phi)
    prong_reparametrize(model.params, model.phi, model.spec, stats, epsilon=1e-3)
    return model


def central_differences(f, w, step=1e-6):
    """d f / d w by central differences, perturbing ``w`` in place."""
    numeric = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        orig = w[idx]
        w[idx] = orig + step
        plus = f()
        w[idx] = orig - step
        minus = f()
        w[idx] = orig
        numeric[idx] = (plus - minus) / (2 * step)
    return numeric


class TestSharedSweep:
    """conditioning_report shares one class sweep across layers; every row
    must equal the row rebuilt from a standalone block, and so must every
    exact block's spectrum."""

    X = np.random.default_rng(40).standard_normal((48, 6))

    @pytest.mark.parametrize("make", [
        lambda x: canonical_model([6, 5, 4, 1], seed=41),
        lambda x: whitened_model([6, 5, 4, 1], 42, x),
        lambda x: canonical_model([6, 5, 4, 3], seed=43, head="softmax"),
    ], ids=["canonical-sigmoid", "whitened", "softmax-3"])
    def test_report_rows_equal_standalone_blocks(self, make):
        model = make(self.X)
        rows = conditioning_report(model, self.X)
        assert [r.layer for r in rows] == [0, 1, 2]
        for r in rows:
            lam = factorized_fisher_block(model, self.X, r.layer).eigenvalues()
            flag = "floored" if lam.min() <= 1e-12 * lam.max() else ""
            expected = ConditioningRow(r.layer, float(lam.max()), float(lam.min()),
                                       condition_number(lam), flag=flag)
            assert r == expected
        sweep = class_sweep(model, self.X)
        for layer in range(3):
            lam = exact_fisher_block(model, None, layer, sweep).eigenvalues()
            assert np.array_equal(lam, exact_fisher_block(model, self.X, layer).eigenvalues())

    def test_shared_sweep_blocks_equal_standalone(self):
        model = canonical_model([6, 5, 4, 3], seed=44, head="softmax")
        sweep = class_sweep(model, self.X)
        for layer in range(3):
            shared_factors = factorized_fisher_block(model, None, layer, sweep)
            factors = factorized_fisher_block(model, self.X, layer)
            assert np.array_equal(shared_factors.delta_cov, factors.delta_cov)
            assert np.array_equal(shared_factors.act_cov, factors.act_cov)
            shared = exact_fisher_block(model, None, layer, sweep).matrix
            assert np.array_equal(shared, exact_fisher_block(model, self.X, layer).matrix)

    def test_over_ten_classes_refused(self):
        model = canonical_model([6, 5, 11], seed=45, head="softmax")
        with pytest.raises(FisherSizeError, match="10 classes"):
            conditioning_report(model, self.X)

    def test_unsupported_head_raises(self):
        model = canonical_model([6, 5, 2], seed=46, head="relu")
        with pytest.raises(ConsistencyError, match="relu"):
            conditioning_report(model, self.X)
        with pytest.raises(ConsistencyError, match="relu"):
            factorized_fisher_block(model, self.X, 0)

    def test_sweep_deltas_are_log_likelihood_gradients(self):
        # a head of three or more classes sweeps one row per class y, and
        # sum_b delta_b s_b^T is the gradient of sum_b -log p(y|x_b) w.r.t.
        # each layer's weights: checked by central finite differences
        model = canonical_model([4, 3, 3], seed=50, head="softmax")
        x = np.random.default_rng(51).standard_normal((6, 4))
        sweep = class_sweep(model, x)
        assert len(sweep.deltas) == 3

        for y, deltas in enumerate(sweep.deltas):
            def neg_log_p():
                return -float(np.log(model.forward(x).outputs[:, y]).sum())

            for i, w in enumerate(model.params.weights):
                numeric = central_differences(neg_log_p, w)
                analytic = deltas[i].T @ sweep.trace.signals[i]
                np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("head, out", [("sigmoid", 1), ("softmax", 2)])
    def test_two_class_sweep_is_one_row_of_head_gradients(self, head, out):
        # a two-class head sweeps one row: weight p (1 - p), and output delta
        # 1 (sigmoid) or (-1, +1) (softmax), so sum_b delta_b s_b^T is the
        # gradient of sum_b z_b (sigmoid) or sum_b (z_b1 - z_b0) (softmax),
        # z the head's pre-activation: checked by central finite differences
        model = canonical_model([4, 3, out], seed=54, head=head)
        x = np.random.default_rng(55).standard_normal((6, 4))
        sweep = class_sweep(model, x)
        assert len(sweep.weights) == len(sweep.deltas) == 1
        p = sweep.trace.outputs[:, -1]
        np.testing.assert_allclose(sweep.weights[0], p * (1.0 - p), rtol=1e-12)
        sign = np.array([1.0]) if out == 1 else np.array([-1.0, 1.0])

        def head_sum():
            return float((model.forward(x).pre_activations[-1] @ sign).sum())

        for i, w in enumerate(model.params.weights):
            numeric = central_differences(head_sum, w)
            analytic = sweep.deltas[0][i].T @ sweep.trace.signals[i]
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_batch_norm_model_refused(self):
        # the sweep's backprop has no BN gain/std factor, so its gradients
        # would be off by that factor
        spec = NetSpec.mlp([4, 3, 1], hidden="tanh", head="sigmoid")
        model = Model.batch_norm(spec, init_fan_in(spec, 52))
        model.params.gains[0][:] = 3.0
        x = np.random.default_rng(53).standard_normal((8, 4))
        with pytest.raises(ConsistencyError, match="batch-norm"):
            class_sweep(model, x)
        with pytest.raises(ConsistencyError, match="batch-norm"):
            conditioning_report(model, x)
        with pytest.raises(ConsistencyError, match="batch-norm"):
            exact_fisher_block(model, x, 1)
        with pytest.raises(ConsistencyError, match="batch-norm"):
            factorized_fisher_block(model, x, 1)

    def test_factorized_matrix_is_kron_of_factors(self):
        model = canonical_model([6, 5, 1], seed=47)
        block = factorized_fisher_block(model, self.X, 0)
        assert np.array_equal(block.matrix, np.kron(block.delta_cov, block.act_cov))
        assert block.matrix is block.matrix  # built once, on first read

    def test_factorized_matrix_absent_above_cap(self):
        model = canonical_model([60, 40, 1], seed=48)
        x = np.random.default_rng(49).standard_normal((16, 60))
        block = factorized_fisher_block(model, x, 0)  # 40*60 > MAX_BLOCK
        assert block.matrix is None
        assert block.eigenvalues().shape == (2400,)


def enumerated_sweep(model, sweep):
    """The sweep's trace with one row per output class y: weight p_y, and
    the output delta h - y (sigmoid) or h - onehot(y) (softmax)
    backpropagated on its own."""
    h = sweep.trace.outputs
    if model.spec.layers[-1].nonlinearity == "sigmoid":
        classes = [(1.0 - h[:, 0], h - 0.0), (h[:, 0], h - 1.0)]
    else:
        classes = [(h[:, y], h - onehot) for y, onehot in enumerate(np.eye(h.shape[1]))]
    return ClassSweep(sweep.trace, [w for w, _ in classes],
                      [net.backpropagate_deltas(sweep.trace, model.params, model.spec, d)
                       for _, d in classes])


def enumerated_pairs(model, sweep, layer):
    """One (p_y, delta_y) pair per output class y, from ``enumerated_sweep``."""
    enumerated = enumerated_sweep(model, sweep)
    return [(w, deltas[layer]) for w, deltas in zip(enumerated.weights, enumerated.deltas)]


def enumerated_exact(model, sweep, layer):
    """The exact block as one product of G stacked over every class:
    G^T G / B with rows sqrt(p_y) vec(delta_y s^T)."""
    signal = sweep.trace.signals[layer]
    b = signal.shape[0]
    g = np.concatenate([
        np.einsum("bi,bj->bij", d * np.sqrt(w)[:, None], signal).reshape(b, -1)
        for w, d in enumerated_pairs(model, sweep, layer)
    ])
    return g.T @ g / b


def enumerated_factor(model, sweep, layer):
    """The delta factor summed over every class: sum_y (delta_y p_y)^T delta_y / B,
    accumulated and symmetrized as the factorized block does."""
    b = sweep.trace.signals[layer].shape[0]
    f = sum((d * w[:, None]).T @ d for w, d in enumerated_pairs(model, sweep, layer)) / b
    return (f + f.T) / 2.0


def classifier(sizes, head, seed, stats=None):
    """A canonical model, or with ``stats`` a whitened one reparametrized on them."""
    spec = NetSpec.mlp(sizes, hidden="tanh", head=head)
    theta = init_fan_in(spec, seed)
    if stats is None:
        return Model(spec, theta)
    phi = WhiteningCoeffs.identity(spec)
    model = Model(spec, project_to_whitened(theta, phi), phi=phi)
    prong_reparametrize(model.params, model.phi, spec, stats, epsilon=1e-3)
    return model


class TestFisherRows:
    """A two-class head gives one Fisher row per example; more classes keep
    one row per class. The middle layer (30 inputs, 17 units) spans five
    column blocks of G, the last holding one unit."""

    X = np.random.default_rng(60).standard_normal((300, 20))

    @pytest.mark.parametrize("whitened", [False, True], ids=["canonical", "whitened"])
    @pytest.mark.parametrize("head, sizes", [
        ("sigmoid", [20, 30, 17, 1]), ("softmax", [20, 30, 17, 2]),
    ])
    def test_two_class_blocks_match_enumerated_classes(self, head, sizes, whitened):
        model = classifier(sizes, head, 61, self.X if whitened else None)
        sweep = class_sweep(model, self.X)
        assert len(sweep.weights) == len(sweep.deltas) == 1
        for layer in range(model.spec.depth):
            f = exact_fisher_block(model, None, layer, sweep).matrix
            reference = enumerated_exact(model, sweep, layer)
            assert np.array_equal(f, f.T)
            assert np.abs(f - reference).max() <= 1e-12 * np.abs(reference).max()
            block = factorized_fisher_block(model, None, layer, sweep)
            reference = enumerated_factor(model, sweep, layer)
            assert np.array_equal(block.delta_cov, block.delta_cov.T)
            assert np.abs(block.delta_cov - reference).max() <= 1e-12 * np.abs(reference).max()
            assert np.array_equal(block.matrix, block.matrix.T)

    @pytest.mark.parametrize("classes", [3, 4])
    def test_multiclass_blocks_are_enumerated_bit_for_bit(self, classes):
        for model in (classifier([20, 30, 17, classes], "softmax", 62),
                      classifier([20, 30, 17, classes], "softmax", 62, self.X)):
            sweep = class_sweep(model, self.X)
            enumerated = enumerated_sweep(model, sweep)
            assert len(sweep.weights) == len(sweep.deltas) == classes
            for layer in range(model.spec.depth):
                block = factorized_fisher_block(model, None, layer, sweep)
                assert np.array_equal(block.delta_cov, enumerated_factor(model, sweep, layer))
                f = exact_fisher_block(model, None, layer, sweep).matrix
                assert np.array_equal(exact_fisher_block(model, None, layer, enumerated).matrix, f)


def transpose_copied_block(block):
    """An exact block built the in-memory way: each off-diagonal tile
    G_a^T G_c is computed once and its transpose copied below the diagonal,
    then the block is divided by B."""
    b, n_in = block.signal.shape

    def columns(cols):
        units = slice(cols.start // n_in, cols.stop // n_in)
        return np.concatenate([np.einsum("bi,bj->bij", d[:, units], block.signal).reshape(b, -1)
                               for d in block.scaled])

    blocks = block._blocks()
    f = np.empty((block.size, block.size))
    for j, rows in enumerate(blocks):
        g_a = columns(rows)
        f[rows, rows] = g_a.T @ g_a
        for cols in blocks[j + 1 :]:
            f[rows, cols] = g_a.T @ columns(cols)
            f[cols, rows] = f[rows, cols].T
    return f / b


class TestSavedBlock:
    """An exact block's ``save`` streams the .npy one row of tiles at a
    time, rebuilding each tile left of the diagonal; the file is byte for
    byte ``np.save(path, block.matrix)``, and both are the block whose
    lower tiles are copied transposes of the upper ones."""

    X = np.random.default_rng(70).standard_normal((512, 100))

    # the cond-mlp-desk net, canonical and whitened, a 3-class head on it,
    # and a middle layer whose last column block is one unit wide
    @pytest.mark.parametrize("sizes, head, whitened", [
        ([100, 32, 32, 1], "sigmoid", False),
        ([100, 32, 32, 1], "sigmoid", True),
        ([100, 32, 32, 3], "softmax", False),
        ([100, 30, 17, 1], "sigmoid", True),
    ], ids=["canonical", "whitened", "softmax3", "partial-tile"])
    def test_saved_bytes_are_np_save_of_the_matrix(self, tmp_path, sizes, head, whitened):
        model = classifier(sizes, head, 71, self.X[:256] if whitened else None)
        streamed, dense = tmp_path / "streamed.npy", tmp_path / "dense.npy"
        exact_fisher_block(model, self.X, 1).save(streamed)
        block = exact_fisher_block(model, self.X, 1)
        np.save(dense, block.matrix)
        assert streamed.read_bytes() == dense.read_bytes()
        np.save(dense, transpose_copied_block(block))
        assert streamed.read_bytes() == dense.read_bytes()
        f = np.load(streamed)
        assert f.shape == (sizes[1] * sizes[2],) * 2
        assert np.array_equal(f, f.T)

    def test_factorized_block_is_not_streamed(self, tmp_path):
        block = factorized_fisher_block(canonical_model([6, 5, 1], seed=72), self.X[:, :6], 0)
        with pytest.raises(AttributeError, match="save"):
            block.save(tmp_path / "f.npy")
        assert not (tmp_path / "f.npy").exists()


class TestConditioningReport:
    def test_identity_covariance_unit_act_condition(self):
        # a linear layer fed exactly-white synthetic data has an activation
        # factor with condition number 1
        spec = NetSpec.mlp([4, 1], head="sigmoid")
        model = Model(spec, init_fan_in(spec, 16))
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((128, 4))
        mu = raw.mean(axis=0)
        cov = (raw - mu).T @ (raw - mu) / raw.shape[0]
        from whitenet.linalg import pca_from_eig, sym_eig

        u = pca_from_eig(sym_eig(cov), 0.0)
        white = (raw - mu) @ u.T
        block = factorized_fisher_block(model, white, 0)
        cond = condition_number(sym_eig(block.act_cov))
        assert cond == pytest.approx(1.0, rel=1e-6)

    def test_report_rows_and_ratio(self):
        model = canonical_model([8, 6, 4, 1], seed=18)
        x = np.random.default_rng(19).standard_normal((64, 8))
        rows = conditioning_report(model, x)
        assert len(rows) == 3
        baselines = {r.layer: r.cond for r in rows}
        rows2 = conditioning_report(model, x, baselines=baselines)
        for r in rows2:
            assert r.cond_ratio == pytest.approx(1.0)

    def test_rank_deficient_exact_block_sits_at_the_floor(self):
        model = canonical_model([60, 40, 1], seed=20)
        x = np.random.default_rng(21).standard_normal((16, 60))
        # the 40x1 block fits; 16 rows leave it rank-deficient, so it is floored
        lam = exact_fisher_block(model, x, 1).eigenvalues()
        assert lam.min() <= 1e-12 * lam.max()

    def test_rank_deficient_blocks_flagged_floored(self):
        # 3 rows give layer 0 a 5x5 activation factor and a 20x20 exact block
        # of rank <= 3: lambda_min is rounding noise, and cond is the floor
        model = canonical_model([5, 4, 1], seed=25)
        few = np.random.default_rng(26).standard_normal((3, 5))
        r = conditioning_report(model, few)[0]
        assert r.flag == "floored"
        assert r.lambda_min <= 1e-12 * r.lambda_max
        assert r.cond == pytest.approx(1e12)
        lam = exact_fisher_block(model, few, 0).eigenvalues()
        assert lam.min() <= 1e-12 * lam.max()
        assert condition_number(lam) == pytest.approx(1e12)
        many = np.random.default_rng(27).standard_normal((64, 5))
        assert conditioning_report(model, many)[0].flag == ""
        lam = exact_fisher_block(model, many, 0).eigenvalues()
        assert lam.min() > 1e-12 * lam.max()

    def test_exact_block_condition_number_drops_after_whitening(self):
        # same story on the exact (non-factorized) middle-layer block, at a
        # size where the full matrix is tractable
        ds = synthetic_classification(300, 16, seed=30, spectrum_decay=1.5)
        spec = NetSpec.mlp([16, 8, 8, 1], hidden="tanh", head="sigmoid")
        theta = init_fan_in(spec, 31)
        canonical = Model(spec, theta.copy())
        before = condition_number(exact_fisher_block(canonical, ds.inputs, 1).eigenvalues())
        phi = WhiteningCoeffs.identity(spec)
        whitened = Model(spec, project_to_whitened(theta, phi), phi=phi)
        prong_reparametrize(whitened.params, whitened.phi, whitened.spec,
                            ds.inputs, epsilon=0.0)
        after = condition_number(exact_fisher_block(whitened, ds.inputs, 1).eigenvalues())
        assert after / before < 0.1

    def test_conditioning_series_sgd_stable_prong_collapses(self):
        """Qualitative shape of the conditioning experiment: over 2k steps
        the factorized middle-layer condition number under plain SGD stays
        within [0.5, 2]x of its initial value, while the PRONG run's series
        drops below 0.1 of it."""
        from whitenet.data import Dataset
        from whitenet.optim import train

        ds = synthetic_classification(2000, 20, seed=22, n_classes=10, spectrum_decay=1.0)
        dataset = Dataset(ds.inputs, ds.targets)
        sizes = [20, 12, 12, 10]
        spec = NetSpec.mlp(sizes, hidden="sigmoid", head="softmax")
        theta = init_fan_in(spec, 23)
        probe = ds.inputs[:400]

        def middle_cond(model):
            return condition_number(factorized_fisher_block(model, probe, 1).eigenvalues())

        canonical = Model(spec, theta.copy())
        initial = middle_cond(canonical)

        cfg = TrainConfig(learning_rate=0.05, seed=24, max_updates=400,
                          eval_interval=400, batch_size=32)
        sgd_series = []
        for _ in range(5):  # 5 x 400 = 2000 steps
            train(canonical, dataset, cfg, optimizer="sgd",
                  loss_kind="categorical_cross_entropy")
            sgd_series.append(middle_cond(canonical) / initial)
        assert all(0.5 < r < 2.0 for r in sgd_series)

        phi = WhiteningCoeffs.identity(spec)
        whitened = Model(spec, project_to_whitened(theta, phi), phi=phi)
        pcfg = TrainConfig(learning_rate=0.05, seed=24, max_updates=400,
                           eval_interval=400, batch_size=32, reparam_period=500,
                           stat_samples=512, eigen_epsilon=1e-3)
        prong_series = []
        for _ in range(5):
            train(whitened, dataset, pcfg, optimizer="prong",
                  loss_kind="categorical_cross_entropy")
            prong_series.append(middle_cond(whitened) / initial)
        assert min(prong_series) < 0.1
