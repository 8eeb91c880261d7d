"""Peak-memory guards and the bit-exactness of the lean paths.

Evaluation goes through ``Model.predict``, which keeps no forward trace;
``load_idx(side=10)`` converts and downsamples the pixels a block of rows at
a time; the exact Fisher block is one Gram product per class. The memory
figures are tracemalloc peaks, which count numpy's data buffers."""

import struct
import tracemalloc

import numpy as np
import pytest

from whitenet import fisher, net, optim
from whitenet.data import Dataset, load_idx
from whitenet.net import Model, NetSpec, WhiteningCoeffs, init_fan_in, project_to_whitened

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
    phi = WhiteningCoeffs.identity(spec)
    model = Model(spec, project_to_whitened(init_fan_in(spec, seed), phi), phi=phi)
    optim.prong_reparametrize(model.params, model.phi, spec, stats, 1e-4)
    return model


def trace_bytes(trace):
    """Bytes of every array a forward trace holds, its inputs excepted."""
    arrays = {id(a): a for a in trace.signals + trace.pre_activations + trace.activations}
    return sum(a.nbytes for a in arrays.values() if a is not trace.inputs)


def test_eval_loss_peaks_below_half_a_trace():
    spec = NetSpec.mlp(DESK_SIZES, hidden="sigmoid", head="sigmoid")
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(512, 100))
    model = whitened(spec, 1, x[:100])
    full = trace_bytes(model.forward(x))
    dataset = Dataset(x, x)
    peak = traced_peak(optim._eval_loss, model, dataset, "squared_error")
    assert peak < full / 2, (peak, full)


def test_load_idx_side_10_never_holds_full_resolution_floats(tmp_path):
    n = 2048
    pixels = np.random.default_rng(1).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, n, 28, 28) + pixels.tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, n) + bytes(n))
    peak = traced_peak(load_idx, ip, lp, side=10)
    assert peak < n * 784 * 8, peak


@pytest.mark.parametrize("kind", net.NONLINEARITIES)
def test_predict_is_forward_outputs_bit_for_bit(kind):
    spec = NetSpec.mlp([6, 5, 4, 3], hidden="tanh" if kind == "softmax" else kind, head=kind)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 6))
    for model in (Model(spec, init_fan_in(spec, 3)), whitened(spec, 3, x)):
        expected = model.forward(x).outputs
        assert np.array_equal(model.predict(x).view(np.int64), expected.view(np.int64))
    assert model.predict(x[0]).shape == (1, 3)  # one row, as forward takes it


def test_predict_on_batch_norm_model_is_inference_forward():
    spec = NetSpec.mlp([6, 5, 3], hidden="relu", head="softmax")
    model = Model.batch_norm(spec, init_fan_in(spec, 4))
    x = np.random.default_rng(5).standard_normal((30, 6))
    model.forward(x, training=True)  # moves the running statistics
    expected = model.forward(x, training=False).outputs
    assert np.array_equal(model.predict(x).view(np.int64), expected.view(np.int64))


def old_exact_block(sweep, layer_index):
    """The accumulation the exact block used before: weighted outer-product
    Gram sums, then (F + F^T) / 2."""
    signal = sweep.trace.signals[layer_index]
    b = signal.shape[0]
    size = sweep.deltas[0][layer_index].shape[1] * signal.shape[1]
    f = np.zeros((size, size))
    for weight, deltas in zip(sweep.weights, sweep.deltas):
        g = np.einsum("bi,bj->bij", deltas[layer_index], signal).reshape(b, size)
        f += (g * weight[:, None]).T @ g
    f /= b
    return (f + f.T) / 2.0


@pytest.mark.parametrize("head, sizes", [("sigmoid", [16, 8, 8, 1]), ("softmax", [10, 6, 5, 4])])
def test_exact_block_matches_old_formula_and_is_symmetric(head, sizes):
    spec = NetSpec.mlp(sizes, hidden="tanh", head=head)
    x = np.random.default_rng(6).standard_normal((300, sizes[0]))
    for model in (Model(spec, init_fan_in(spec, 7)), whitened(spec, 7, x)):
        sweep = fisher.class_sweep(model, x)
        for layer in range(spec.depth):
            f = fisher.exact_fisher_block(model, x, layer, sweep).matrix
            old = old_exact_block(sweep, layer)
            assert np.array_equal(f, f.T)
            assert np.abs(f - old).max() <= 1e-12 * np.abs(old).max()


def test_exact_block_holds_the_block_and_the_stacked_g_at_most():
    # one (C B, size) G and the size x size block: no accumulator beside a
    # per-class product, no weighted copy of G, no (F + F^T) / 2 pass
    spec = NetSpec.mlp([100, 32, 32, 1], hidden="tanh", head="sigmoid")
    model = Model(spec, init_fan_in(spec, 8))
    x = np.random.default_rng(9).standard_normal((512, 100))
    sweep = fisher.class_sweep(model, x)
    size = 32 * 32
    peak = traced_peak(fisher.exact_fisher_block, model, x, 1, sweep)
    assert peak < 1.05 * 8 * (size * size + 2 * 512 * size), peak
