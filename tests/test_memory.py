"""Peak-memory guards and the bit-exactness of the lean paths.

Evaluation goes through ``Model.predict``, which keeps no forward trace
and forwards a block of rows at a time;
``load_idx`` converts the pixels (and at side 10 downsamples them) a block
of rows at a time; the exact Fisher block is written tile by tile from
column blocks of G, into the dense matrix when it is read or a row of tiles
at a time to disk; the reparametrization walks the layers once and copies
no parameters; the training loop holds one batch's trace, its
backward one layer's delta at a time, and its step makes no temporary the
size of the parameter vector. The memory figures are tracemalloc peaks,
which count numpy's data buffers."""

import struct
import tracemalloc

import numpy as np
import pytest

from whitenet import cli, fisher, linalg, net, optim
from whitenet.data import Dataset, load_idx, synthetic_images
from whitenet.net import Model, NetSpec, WhiteningCoeffs, init_fan_in

DESK_SIZES = [100, 200, 100, 50, 16, 50, 100, 200, 100]


def traced_peak(fn, *args, **kwargs):
    """Bytes allocated at the peak of ``fn(*args, **kwargs)`` above what was
    held when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def whitened(spec, seed, stats):
    model = identity_model(spec, seed)
    optim.prong_reparametrize(model.params, model.phi, spec, stats, 1e-4)
    return model


def trace_bytes(spec, rows):
    """Bytes of a whitened forward trace of ``rows`` rows as traces were
    held when they kept each layer's whitened signal a_i beside h_i, plus
    one pre-activation z_i as large as each h_i: the unit the bounds below
    were set in."""
    return 8 * rows * sum(layer.in_dim + 2 * layer.out_dim for layer in spec.layers)


def test_eval_loss_peaks_below_half_a_trace():
    spec = NetSpec.mlp(DESK_SIZES, hidden="sigmoid", head="sigmoid")
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(512, 100))
    model = whitened(spec, 1, x[:100])
    full = trace_bytes(spec, len(x))
    dataset = Dataset(x, x)
    peak = traced_peak(optim._eval_loss, model, dataset, "squared_error")
    assert peak < full / 2, (peak, full)


def test_eval_loss_builds_no_gradient():
    # the loss with its gradient holds two output-sized arrays (the residual
    # and its square, then the residual and the gradient); the value alone
    # holds the residual, squared in place. One eval then peaks no higher
    # than its predict, which the loss with its gradient topped
    spec = NetSpec.mlp(DESK_SIZES, hidden="sigmoid", head="sigmoid")
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(512, 100))
    model = whitened(spec, 1, x[:100])
    out = model.predict(x)
    assert traced_peak(net.loss, "squared_error", out, x) >= 2 * out.nbytes
    assert traced_peak(net.loss, "squared_error", out, x, gradient=False) < out.nbytes + 4096
    predict = traced_peak(model.predict, x)
    assert traced_peak(optim._eval_loss, model, Dataset(x, x), "squared_error") <= predict
    with_gradient = traced_peak(lambda: net.loss("squared_error", model.predict(x), x)[0])
    assert with_gradient >= predict + out.nbytes // 4, (with_gradient, predict)


@pytest.mark.parametrize("kind, head", [
    ("squared_error", "sigmoid"),
    ("binary_cross_entropy", "sigmoid"),
    ("categorical_cross_entropy", "softmax"),
])
def test_value_only_loss_is_the_loss_bit_for_bit(kind, head):
    spec = NetSpec.mlp([6, 5, 3], hidden="tanh", head=head)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 6))
    out = Model(spec, init_fan_in(spec, 2)).predict(x)
    targets = np.eye(3)[rng.integers(0, 3, size=300)]
    kept = out.copy()
    value, grad = net.loss(kind, out, targets, gradient=False)
    assert grad is None and np.array_equal(out, kept)
    assert np.float64(value).view(np.int64) == np.float64(
        net.loss(kind, out, targets)[0]).view(np.int64)


def write_idx_pair(tmp_path, n):
    """A seeded IDX pair of ``n`` 28x28 images; returns its paths and pixels."""
    pixels = np.random.default_rng(1).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, n, 28, 28) + pixels.tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, n) + bytes(n))
    return ip, lp, pixels.reshape(n, 784)


def test_load_idx_side_10_never_holds_full_resolution_floats(tmp_path):
    n = 2048
    ip, lp, _ = write_idx_pair(tmp_path, n)
    peak = traced_peak(load_idx, ip, lp, side=10)
    assert peak < n * 784 * 8, peak


def test_load_idx_side_10_holds_two_128_row_blocks_at_most(tmp_path):
    # beside the dataset and the file's bytes, one 128-row float block and
    # its downsampled rows live at a time; a 512-row block alone is four
    n = 2048
    ip, lp, _ = write_idx_pair(tmp_path, n)
    dataset_bytes = n * (100 + 10) * 8
    peak = traced_peak(load_idx, ip, lp, side=10)
    assert peak < dataset_bytes + n * 784 + 2 * 128 * 784 * 8, peak


def test_load_idx_side_28_decodes_in_blocks_into_one_array(tmp_path):
    # the whole-array astype / 255 bit for bit, with one full float copy
    # beside the file's bytes; the whole-array form holds two wherever numpy
    # cannot do its division in place of the astype temporary
    n = 2048
    ip, lp, pixels = write_idx_pair(tmp_path, n)
    expected = pixels.astype(np.float64) / 255.0
    assert np.array_equal(load_idx(ip, lp).inputs.view(np.int64), expected.view(np.int64))
    del expected
    peak = traced_peak(load_idx, ip, lp)
    assert peak < 1.5 * n * 784 * 8, peak


def test_load_idx_side_28_holds_no_payload_sized_mask(tmp_path):
    # beside the dataset: the file's bytes and one 128-row float block; a
    # finiteness check of the decoded inputs would add one bool per pixel
    n = 8192
    ip, lp, _ = write_idx_pair(tmp_path, n)
    dataset_bytes = n * (784 + 10) * 8
    peak = traced_peak(load_idx, ip, lp)
    assert peak < dataset_bytes + 1.5 * n * 784, peak


def test_autoencoder_build_holds_no_payload_sized_mask(tmp_path, monkeypatch):
    # the autoencoder rewrap of an IDX dataset shares its validated inputs
    # as targets; a second finiteness check would add one bool per pixel.
    # The IDX decode (measured above) and the train/val gather (a full copy
    # that would hide the mask) are left out of the measurement.
    n = 8192
    ip, lp, _ = write_idx_pair(tmp_path, n)
    loaded = load_idx(ip, lp)
    monkeypatch.setattr(cli.data_mod, "load_idx", lambda *args, **kwargs: loaded)
    monkeypatch.setattr(cli.data_mod, "split_train_val", lambda ds, val_size, seed: (ds, None))
    cfg = {"dataset": {"kind": "mnist", "images": str(ip), "labels": str(lp),
                       "autoencode": True}}
    peak = traced_peak(cli.build_dataset, cfg)
    assert peak < 0.5 * n * 784, peak
    train = cli.build_dataset(cfg)[0]
    assert train.targets is train.inputs is loaded.inputs


@pytest.mark.parametrize("kind", net.NONLINEARITIES)
def test_predict_is_forward_outputs_bit_for_bit(kind):
    spec = NetSpec.mlp([6, 5, 4, 3], hidden="tanh" if kind == "softmax" else kind, head=kind)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 6))
    x_bits = x.copy()
    for model in (Model(spec, init_fan_in(spec, 3)), whitened(spec, 3, x)):
        expected = model.forward(x).outputs
        assert np.array_equal(model.predict(x).view(np.int64), expected.view(np.int64))
        # predict works in place on its own arrays, never on the caller's
        assert np.array_equal(x.view(np.int64), x_bits.view(np.int64))
    assert model.predict(x[0]).shape == (1, 3)  # one row, as forward takes it


def test_predict_on_batch_norm_model_is_inference_forward():
    spec = NetSpec.mlp([6, 5, 3], hidden="relu", head="softmax")
    model = Model.batch_norm(spec, init_fan_in(spec, 4))
    x = np.random.default_rng(5).standard_normal((30, 6))
    model.forward(x, training=True)  # moves the running statistics
    expected = model.forward(x, training=False).outputs
    assert np.array_equal(model.predict(x).view(np.int64), expected.view(np.int64))


def desk_model(kind, stats):
    """The desk autoencoder net, canonical, whitened by one reparametrization
    on ``stats``, or batch-normalized with running statistics moved by one
    training forward of ``stats``."""
    spec = NetSpec.mlp(DESK_SIZES, hidden="sigmoid", head="sigmoid")
    if kind == "whitened":
        return whitened(spec, 15, stats)
    theta = init_fan_in(spec, 15)
    if kind == "canonical":
        return Model(spec, theta)
    model = Model.batch_norm(spec, theta)
    model.forward(stats, training=True)
    return model


@pytest.mark.parametrize("rows", [net.PREDICT_ROWS + 1, 2 * net.PREDICT_ROWS + 44,
                                  4 * net.PREDICT_ROWS])
@pytest.mark.parametrize("kind", ["canonical", "whitened", "bn"])
def test_predict_in_row_blocks_is_forward_outputs_bit_for_bit(kind, rows):
    # whole blocks and a last block that takes the remainder; 512 rows is
    # the desk validation split, whose eval loss a reloaded checkpoint's
    # forward must reproduce
    x = np.random.default_rng(rows).uniform(0.0, 1.0, size=(rows, 100))
    model = desk_model(kind, x[:100])
    expected = model.forward(x).outputs
    assert np.array_equal(model.predict(x).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("kind", ["canonical", "whitened"])
def test_predict_holds_one_row_block_at_a_time(kind):
    # beside the output: one block's z and h at width 200; the whole
    # batch's would be four times that
    x = np.random.default_rng(16).uniform(0.0, 1.0, size=(512, 100))
    model = desk_model(kind, x[:100])
    block_bytes = net.PREDICT_ROWS * 200 * 8
    peak = traced_peak(model.predict, x)
    assert peak < x.shape[0] * 100 * 8 + 5 * block_bytes, peak / block_bytes


@pytest.mark.parametrize("kind", ["canonical", "whitened"])
def test_predict_activates_over_the_pre_activation(kind):
    # _activate writes h over z: a 100->200 sigmoid block holds its input,
    # z and the one numerator temporary beside the output (987 500 bytes
    # traced for the desk net's 512 validation rows). Building h in two new
    # temporaries beside z peaked at 1 127 396
    x = np.random.default_rng(16).uniform(0.0, 1.0, size=(512, 100))
    model = desk_model(kind, x[:100])
    block_bytes = net.PREDICT_ROWS * 200 * 8
    peak = traced_peak(model.predict, x)
    assert peak < x.shape[0] * 100 * 8 + 3 * block_bytes < 1_127_396, peak


def old_exact_block(sweep, layer_index):
    """The accumulation the exact block used before: weighted outer-product
    Gram sums, then (F + F^T) / 2."""
    signal = fisher.signal(sweep.trace, layer_index)
    b = signal.shape[0]
    size = sweep.deltas[0][layer_index].shape[1] * signal.shape[1]
    f = np.zeros((size, size))
    for weight, deltas in zip(sweep.weights, sweep.deltas):
        g = np.einsum("bi,bj->bij", deltas[layer_index], signal).reshape(b, size)
        f += (g * weight[:, None]).T @ g
    f /= b
    return (f + f.T) / 2.0


def one_product_block(sweep, layer_index):
    """The exact block as one product of the whole stacked G: G^T G / B."""
    signal = fisher.signal(sweep.trace, layer_index)
    b = signal.shape[0]
    g = np.concatenate([
        np.einsum("bi,bj->bij", deltas[layer_index] * np.sqrt(weight)[:, None], signal)
        .reshape(b, -1)
        for weight, deltas in zip(sweep.weights, sweep.deltas)
    ])
    return g.T @ g / b


# the last two nets span several column blocks of G, the last one partial
@pytest.mark.parametrize("head, sizes", [
    ("sigmoid", [16, 8, 8, 1]), ("softmax", [10, 6, 5, 4]),
    ("sigmoid", [30, 20, 24, 1]), ("softmax", [20, 30, 17, 4]),
])
def test_exact_block_matches_old_formula_and_is_symmetric(head, sizes):
    spec = NetSpec.mlp(sizes, hidden="tanh", head=head)
    x = np.random.default_rng(6).standard_normal((300, sizes[0]))
    for model in (Model(spec, init_fan_in(spec, 7)), whitened(spec, 7, x)):
        sweep = fisher.class_sweep(model, x)
        for layer in range(spec.depth):
            f = fisher.exact_fisher_block(model, x, layer, sweep).matrix
            assert np.array_equal(f, f.T)
            for reference in (old_exact_block(sweep, layer), one_product_block(sweep, layer)):
                assert np.abs(f - reference).max() <= 1e-12 * np.abs(reference).max()


def dense_exact_block(*args):
    """The exact block with its dense matrix built, as the traced figure."""
    return fisher.exact_fisher_block(*args).matrix


def test_exact_block_holds_the_block_and_the_stacked_g_at_most():
    # one (C B, size) G and the size x size block: no accumulator beside a
    # per-class product, no weighted copy of G, no (F + F^T) / 2 pass
    spec = NetSpec.mlp([100, 32, 32, 1], hidden="tanh", head="sigmoid")
    model = Model(spec, init_fan_in(spec, 8))
    x = np.random.default_rng(9).standard_normal((512, 100))
    sweep = fisher.class_sweep(model, x)
    size = 32 * 32
    peak = traced_peak(dense_exact_block, model, x, 1, sweep)
    assert peak < 1.05 * 8 * (size * size + 2 * 512 * size), peak


def test_exact_block_peaks_below_one_and_a_half_blocks():
    # G is never whole: beside the block only two column blocks of it live
    spec = NetSpec.mlp([100, 32, 32, 1], hidden="tanh", head="sigmoid")
    model = Model(spec, init_fan_in(spec, 8))
    x = np.random.default_rng(9).standard_normal((512, 100))
    sweep = fisher.class_sweep(model, x)
    block_bytes = 8 * (32 * 32) ** 2
    peak = traced_peak(dense_exact_block, model, x, 1, sweep)
    assert peak < 1.5 * block_bytes, peak / block_bytes


def test_binary_exact_block_peaks_below_1_2_blocks():
    # a sigmoid head's column blocks hold one row per example, not one per
    # class, so they are half as tall
    spec = NetSpec.mlp([100, 32, 32, 1], hidden="tanh", head="sigmoid")
    model = Model(spec, init_fan_in(spec, 8))
    x = np.random.default_rng(9).standard_normal((512, 100))
    sweep = fisher.class_sweep(model, x)
    block_bytes = 8 * (32 * 32) ** 2
    peak = traced_peak(dense_exact_block, model, x, 1, sweep)
    assert peak < 1.2 * block_bytes, peak / block_bytes


def test_saved_exact_block_peaks_below_half_a_block(tmp_path):
    # the streamed .npy holds one row of tiles and two column blocks of G,
    # never the block
    spec = NetSpec.mlp([100, 32, 32, 1], hidden="tanh", head="sigmoid")
    model = Model(spec, init_fan_in(spec, 8))
    x = np.random.default_rng(9).standard_normal((512, 100))
    sweep = fisher.class_sweep(model, x)
    block_bytes = 8 * (32 * 32) ** 2

    def save():
        fisher.exact_fisher_block(model, x, 1, sweep).save(tmp_path / "block.npy")

    peak = traced_peak(save)
    assert peak < 0.5 * block_bytes, peak / block_bytes


def identity_model(spec, seed):
    return Model(spec, init_fan_in(spec, seed), phi=WhiteningCoeffs.identity(spec))


def test_reparametrize_peaks_below_5_mb_at_desk_width():
    # no statistics trace and no copy of the parameters
    spec = NetSpec.mlp(DESK_SIZES, hidden="sigmoid", head="sigmoid")
    model = identity_model(spec, 1)
    stats = np.random.default_rng(10).uniform(0.0, 1.0, size=(100, 100))
    peak = traced_peak(optim.prong_reparametrize, model.params, model.phi, spec, stats, 1e-2)
    assert peak < 5e6, peak


def test_paper_width_reparametrize_peaks_below_55_mb():
    # 784-1000-500-250-30-...-784 from 100 statistics rows: the 1000-wide
    # slots take their range from the 100 x 100 Gram matrix, with no
    # 1000 x 1000 covariance or eigenvector matrix (the dense PCA form
    # peaked at 63 MB)
    spec = NetSpec.mlp([784, 1000, 500, 250, 30, 250, 500, 1000, 784],
                       hidden="sigmoid", head="sigmoid")
    model = identity_model(spec, 1)
    stats = synthetic_images(100, 28, 3).inputs
    peak = traced_peak(optim.prong_reparametrize, model.params, model.phi, spec, stats, 1e-2)
    assert peak < 55e6, peak


def test_train_holds_one_batch_trace():
    # beside the velocity and the gradient buffer: one batch's trace and
    # its backward's live delta and temporaries. The last step's trace kept
    # alive through the next forward reads about 2.25 traces
    spec = NetSpec.mlp(DESK_SIZES, hidden="sigmoid", head="sigmoid")
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(1024, 100))
    model = whitened(spec, 1, x[:100])
    full = trace_bytes(spec, 64)
    config = optim.TrainConfig(learning_rate=1e-3, momentum=0.9, batch_size=64, max_updates=20,
                               eval_interval=1000)
    peak = traced_peak(optim.train, model, Dataset(x, x), config, optimizer="momentum",
                       loss_kind="squared_error")
    assert peak < 2 * model.params.vector.nbytes + 1.9 * full, (peak, full)


@pytest.mark.parametrize("kind", ["canonical", "whitened"])
def test_backward_holds_less_than_one_set_of_deltas(kind):
    # each layer's gradient is written as its delta arrives, so beside the
    # given gradient layout at most the current delta, its upstream product
    # and the next delta live: about 0.86 of the deltas of every layer,
    # which a backward that lists them all before writing (1.49) holds at
    # once
    x = np.random.default_rng(17).uniform(0.0, 1.0, size=(64, 100))
    model = desk_model(kind, x)
    trace = model.forward(x)
    _, grad = net.loss("squared_error", trace.outputs, x)
    deltas_bytes = x.shape[0] * sum(layer.out_dim for layer in model.spec.layers) * 8
    peak = traced_peak(model.backward, trace, grad, out=model.layout())
    assert peak < deltas_bytes, peak / deltas_bytes


def test_batch_norm_backward_holds_less_than_one_and_a_half_sets_of_deltas():
    # a batch-norm layer's dy and dz are two arrays, and the vjp through
    # the batch statistics works in place on gain * dy; with its coupled
    # and floored forms and their np.where choice beside u and dy, it held
    # about 1.87 sets of the deltas of every layer
    x = np.random.default_rng(17).uniform(0.0, 1.0, size=(64, 100))
    model = desk_model("bn", x)
    trace = model.forward(x, training=True)
    _, grad = net.loss("squared_error", trace.outputs, x)
    deltas_bytes = x.shape[0] * sum(layer.out_dim for layer in model.spec.layers) * 8
    peak = traced_peak(model.backward, trace, grad, out=model.layout())
    assert peak < 1.5 * deltas_bytes, peak / deltas_bytes


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_step_makes_no_vector_sized_temporary(momentum):
    # alpha v (alpha g) is written into the gradient it consumes; the
    # parameters come out as p - alpha v bit for bit
    rng = np.random.default_rng(15)
    vector, grad = rng.standard_normal(100_000), rng.standard_normal(100_000)
    config = optim.TrainConfig(learning_rate=1e-3, momentum=momentum)
    state = optim.OptimizerState.init(vector)
    state.velocity[:] = rng.standard_normal(100_000)
    v = state.velocity * momentum + grad if momentum else grad
    expected = vector - config.learning_rate * v
    peak = traced_peak(optim.sgd_step, vector, grad, state, config)
    assert peak < vector.nbytes / 2, peak
    assert np.array_equal(vector.view(np.int64), expected.view(np.int64))


def old_reparametrize(omega, phi, spec, stats, epsilon):
    """The two-pass sequence the reparametrization replaces: forward the
    statistics through the whole model into a trace, then rebuild every
    slot's coefficients from it."""
    trace = net.forward_whitened(omega, phi, spec, stats)
    new_phi = WhiteningCoeffs([], [])
    spectra = []
    for i in range(spec.depth):
        mom = linalg.estimate_moments(trace.signal(i))
        lam, e = linalg.covariance_range(mom, *linalg.sym_eig(
            mom.covariance if mom.gram is None else mom.gram))
        new_phi.centers.append(mom.mean.copy())
        new_phi.preconditioners.append(linalg.preconditioner(lam, e, epsilon))
        spectra.append(lam)
    return new_phi, spectra, trace.outputs


def bits(arrays):
    return [np.asarray(a).view(np.int64) for a in arrays]


@pytest.mark.parametrize("start", ["identity", "whitened"])
def test_reparametrize_is_the_old_sequence_bit_for_bit(start):
    spec = NetSpec.mlp([12, 10, 6, 10, 12], hidden="sigmoid", head="sigmoid")
    rng = np.random.default_rng(11)
    stats = rng.uniform(0.0, 1.0, size=(60, 12))
    model = identity_model(spec, 12)
    if start == "whitened":
        optim.prong_reparametrize(model.params, model.phi, spec, rng.uniform(size=(60, 12)), 1e-2)
    vector = model.params.vector.copy()
    phi, spectra, outputs = old_reparametrize(model.params, model.phi, spec, stats, 1e-2)
    info = optim.prong_reparametrize(model.params, model.phi, spec, stats, 1e-2)
    for got, expected in [
        ([model.params.vector], [vector]),
        (model.phi.centers + model.phi.preconditioners, phi.centers + phi.preconditioners),
        (info.eigenvalues, spectra),
        ([info.outputs], [outputs]),
    ]:
        for a, b in zip(bits(got), bits(expected), strict=True):
            assert np.array_equal(a, b)


def float_count(value):
    """Floats held by the arrays inside ``value``, through lists, tuples and
    object attributes."""
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, (list, tuple)):
        return sum(float_count(v) for v in value)
    if hasattr(value, "__dict__"):
        return float_count(list(vars(value).values()))
    return 0


def test_reparam_info_holds_no_square_matrices():
    # per-slot eigenvalues and the outputs: O(sum d) floats, where
    # covariances or eigenvectors would be O(sum d^2)
    spec = NetSpec.mlp(DESK_SIZES, hidden="sigmoid", head="sigmoid")
    model = identity_model(spec, 13)
    stats = np.random.default_rng(14).uniform(0.0, 1.0, size=(100, 100))
    info = optim.prong_reparametrize(model.params, model.phi, spec, stats, 1e-2)
    widths = sum(layer.in_dim for layer in spec.layers)
    assert float_count(info) == widths + info.outputs.size
