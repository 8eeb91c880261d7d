"""A model's weights, biases and BN gains/shifts are views of its one flat
parameter vector, in the order w0, b0, w1, b1, ..., g0, s0, g1, s1, ...,
and stay so through every operation that changes them in place."""

import numpy as np
import pytest

from whitenet import net
from whitenet.checkpoint import load_checkpoint, save_checkpoint
from whitenet.errors import DimensionError
from whitenet.net import Model, NetSpec, Params, WhiteningCoeffs, init_fan_in
from whitenet.optim import prong_reparametrize

SPEC = NetSpec.mlp([5, 4, 3], hidden="tanh", head="softmax")


def layout_order(model):
    params = model.params
    arrays = [a for pair in zip(params.weights, params.biases) for a in pair]
    return arrays + [a for pair in zip(params.gains, params.shifts) for a in pair]


def assert_views_of_vector(model):
    """Every parameter array is a view of ``model.params.vector`` at its layout offset,
    and together they tile the vector."""
    start = 0
    for a in layout_order(model):
        assert a.base is model.params.vector
        assert a.ctypes.data == model.params.vector.ctypes.data + 8 * start
        start += a.size
    assert start == model.params.vector.size


def whitened(seed=0):
    return Model(SPEC, init_fan_in(SPEC, seed), phi=WhiteningCoeffs.identity(SPEC))


@pytest.mark.parametrize("make", [
    lambda: Model(SPEC, init_fan_in(SPEC, 1)),
    lambda: whitened(2),
    lambda: Model.batch_norm(SPEC, init_fan_in(SPEC, 3)),
], ids=["canonical", "whitened", "bn"])
def test_construction_copies_into_views(make):
    model = make()
    assert_views_of_vector(model)
    assert np.array_equal(model.params.vector, np.concatenate([a.ravel() for a in layout_order(model)]))


def test_construction_leaves_the_given_arrays_alone():
    params = init_fan_in(SPEC, 4)
    before = params.weights[0].copy()
    model = Model(SPEC, params)
    model.params.vector[:] = 0.0
    assert np.array_equal(params.weights[0], before)


def test_mismatched_shapes_rejected():
    params = init_fan_in(SPEC, 5)
    with pytest.raises(DimensionError):
        Model(SPEC, Params.of([params.weights[0].T, params.weights[1]], params.biases))
    with pytest.raises(DimensionError):
        Model(SPEC, Params.of(params.weights[:1], params.biases[:1]))
    with pytest.raises(DimensionError):
        net.flat_layout(SPEC, np.zeros(3))


def test_copy_owns_an_independent_vector():
    model = Model.batch_norm(SPEC, init_fan_in(SPEC, 6))
    twin = model.copy()
    assert_views_of_vector(twin)
    assert not np.shares_memory(twin.params.vector, model.params.vector)
    assert np.array_equal(twin.params.vector, model.params.vector)
    twin.params.vector += 1.0
    twin.bn_state.running_mean[0][:] = 5.0
    assert not np.array_equal(twin.params.vector, model.params.vector)
    assert not np.array_equal(twin.bn_state.running_mean[0], model.bn_state.running_mean[0])


def test_views_survive_reparametrization():
    model = whitened(7)
    x = np.random.default_rng(8).standard_normal((64, 5))
    prong_reparametrize(model.params, model.phi, model.spec, x, 1e-2)
    assert_views_of_vector(model)


def test_checkpoint_load_fills_views(tmp_path):
    model = Model.batch_norm(SPEC, init_fan_in(SPEC, 9))
    model.params.gains[1][:] = 2.5
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=9, step=0)
    back, _ = load_checkpoint(path)
    assert_views_of_vector(back)
    assert np.array_equal(back.params.vector, model.params.vector)


@pytest.mark.parametrize("bn", [False, True])
def test_backward_writes_into_the_given_layout(bn):
    params = init_fan_in(SPEC, 10)
    model = Model.batch_norm(SPEC, params) if bn else Model(SPEC, params)
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((8, 5)), np.eye(3)[rng.integers(0, 3, size=8)]
    trace = model.forward(x, training=True)
    _, grad = net.loss("categorical_cross_entropy", trace.outputs, y)
    fresh = model.backward(trace, grad)
    out = model.layout()
    out.vector[:] = np.nan
    assert model.backward(trace, grad, out=out) is out
    assert np.array_equal(out.vector, fresh.vector)
