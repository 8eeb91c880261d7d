import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from whitenet.checkpoint import load_checkpoint, save_checkpoint
from whitenet.errors import ConsistencyError
from whitenet.net import Model, NetSpec, WhiteningCoeffs, init_fan_in
from whitenet.optim import prong_reparametrize


def test_canonical_round_trip_bit_exact(tmp_path):
    spec = NetSpec([5, 4, 3], hidden="relu", head="softmax", loss="categorical_cross_entropy")
    model = Model(spec, init_fan_in(spec, 9))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=9, step=123)
    back, meta = load_checkpoint(path)
    assert meta == {"seed": 9, "step": 123}
    assert back.kind == "canonical"
    assert back.spec == spec and back.spec.loss == "categorical_cross_entropy"
    assert [l.nonlinearity for l in back.spec.layers] == ["relu", "softmax"]
    for a, b in zip(model.params.weights, back.params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(model.params.biases, back.params.biases):
        assert np.array_equal(a, b)


def whitened_model(spec, seed):
    """A whitened model reparametrized once on seeded statistics."""
    model = Model(spec, init_fan_in(spec, seed), phi=WhiteningCoeffs.identity(spec))
    stats = np.random.default_rng(seed + 1).standard_normal((32, spec.input_dim))
    prong_reparametrize(model.params, model.phi, spec, stats, 1e-2)
    return model


def test_whitened_round_trip_bit_exact(tmp_path):
    spec = NetSpec([4, 3, 2])
    model = whitened_model(spec, 1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=1, step=7)
    back, _ = load_checkpoint(path)
    assert back.kind == "whitened"
    assert np.array_equal(model.params.vector, back.params.vector)
    for a, b in zip(model.phi.centers + model.phi.preconditioners,
                    back.phi.centers + back.phi.preconditioners, strict=True):
        assert np.array_equal(a, b)
    x = np.random.default_rng(3).standard_normal((6, 4))
    assert np.array_equal(model.forward(x).outputs, back.forward(x).outputs)
    grad = np.ones((6, 2))
    assert np.array_equal(model.backward(model.forward(x), grad).vector,
                          back.backward(back.forward(x), grad).vector)


def test_whitened_layout_names_each_slots_center_and_preconditioner(tmp_path):
    spec = NetSpec([4, 3, 2])
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, whitened_model(spec, 2), seed=2, step=0)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    assert [(a["name"], a["shape"]) for a in header["arrays"]] == [
        ("weight_0", [3, 4]), ("bias_0", [3]), ("weight_1", [2, 3]), ("bias_1", [2]),
        ("center_0", [4]), ("preconditioner_0", [4, 4]),
        ("center_1", [3]), ("preconditioner_1", [3, 3]),
    ]


def test_whitened_file_of_the_old_layout_refused(tmp_path):
    # the layout that stored each slot's whitening matrix U as transform_i
    # beside the whitened (V, d) lacks the preconditioners
    spec = NetSpec([4, 3, 2])
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, whitened_model(spec, 3), seed=3, step=0)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    for entry in header["arrays"]:
        entry["name"] = entry["name"].replace("preconditioner_", "transform_")
    text = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen :])
    with pytest.raises(ConsistencyError, match="lacks array preconditioner_0"):
        load_checkpoint(path)


def test_file_of_the_per_layer_nonlinearities_header_refused(tmp_path):
    # the header that listed each layer's nonlinearity, and no loss
    spec = NetSpec([4, 3, 2])
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, Model(spec, init_fan_in(spec, 3)), seed=3, step=0)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    header["nonlinearities"] = [l.nonlinearity for l in spec.layers]
    for key in ("hidden", "head", "loss"):
        del header[key]
    text = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen :])
    with pytest.raises(ConsistencyError, match="header is not an object with keys"):
        load_checkpoint(path)


def test_bn_round_trip_preserves_running_stats(tmp_path):
    spec = NetSpec([3, 2])
    model = Model.batch_norm(spec, init_fan_in(spec, 4))
    model.forward(np.random.default_rng(5).standard_normal((16, 3)), training=True)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=4, step=1)
    back, _ = load_checkpoint(path)
    for a, b in zip(model.bn_state.running_mean, back.bn_state.running_mean):
        assert np.array_equal(a, b)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ConsistencyError):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", ["header_length", "header", "payload"])
def test_truncated_file_rejected(tmp_path, cut):
    # a file cut inside the header length, inside the JSON header, or
    # 8 bytes short of its payload fails typed, not with a parser error
    spec = NetSpec([3, 2])
    model = Model(spec, init_fan_in(spec, 6))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=6, step=0)
    blob = path.read_bytes()
    keep = {"header_length": 10, "header": 20, "payload": len(blob) - 8}[cut]
    path.write_bytes(blob[:keep])
    with pytest.raises(ConsistencyError):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    spec = NetSpec([3, 2])
    model = Model(spec, init_fan_in(spec, 6))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=6, step=0)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ConsistencyError):
        load_checkpoint(path)


def _drop(key):
    def edit(header):
        del header[key]
    return edit


def _set(key, value):
    def edit(header):
        header[key] = value
    return edit


def _set_entry(field, value):
    def edit(header):
        if value is None:
            del header["arrays"][0][field]
        else:
            header["arrays"][0][field] = value
    return edit


MALFORMED = {
    "not_an_object": lambda header: [header],
    **{f"missing_{key}": _drop(key)
       for key in ("kind", "sizes", "hidden", "head", "loss", "seed", "step", "arrays")},
    "arrays_not_a_list": _set("arrays", {"weight_0": [2, 3]}),
    "entry_without_name": _set_entry("name", None),
    "entry_without_shape": _set_entry("shape", None),
    "renamed_array": _set_entry("name", "weights_0"),
    "kind_without_its_arrays": _set("kind", "bn"),
    "unknown_kind": _set("kind", "sparse"),
    "unhashable_kind": _set("kind", ["bn"]),
    "zero_size": _set("sizes", [3, 0]),
    "non_integer_size": _set("sizes", [3, "2"]),
    "sizes_not_a_list": _set("sizes", 5),
    "unknown_head": _set("head", "swish"),
    "softmax_hidden": _set("hidden", "softmax"),
    "unknown_loss": _set("loss", "hinge"),
    "layer_without_its_arrays": _set("sizes", [3, 2, 2]),
    "transposed_weight": _set_entry("shape", [3, 2]),
    "null_seed": _set("seed", None),
    "float_seed": _set("seed", 8.0),
    "boolean_seed": _set("seed", True),
    "string_step": _set("step", "x"),
    "float_step": _set("step", 1.5),
    "negative_step": _set("step", -1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_header_rejected(tmp_path, case):
    # each edit keeps the payload parseable, so only the header's own
    # checks and its agreement with the network it describes can catch it
    spec = NetSpec([3, 2])
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, Model(spec, init_fan_in(spec, 8)), seed=8, step=0)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    edited = MALFORMED[case](header)
    text = json.dumps(header if edited is None else edited).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen :])
    with pytest.raises(ConsistencyError):
        load_checkpoint(path)


def test_oversized_header_refused_before_any_model_is_built(tmp_path):
    # sizes [3000, 3000] name a 72 MB weight the file does not hold: the
    # stored shapes are checked against the header before anything the
    # header's size is allocated
    spec = NetSpec([3, 2])
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, Model(spec, init_fan_in(spec, 8)), seed=8, step=0)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    header["sizes"] = [3000, 3000]
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen :])
    tracemalloc.start()
    try:
        with pytest.raises(ConsistencyError, match=r"stores weight_0 as \(2, 3\)"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(allow_nan=True),
    st.text(max_size=6), st.lists(st.integers(-2, 6), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


def damaged(draw, blob):
    """``blob``, a checkpoint's bytes, truncated, with flipped bytes, or
    with a header value (or an array entry's field) replaced by a value of
    any type."""
    blob = bytearray(blob)
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    damage = draw(st.sampled_from(["truncate", "flip", "header"]))
    if damage == "truncate":
        return bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    if damage == "flip":
        for at in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            blob[at] ^= draw(st.integers(1, 255))
        return bytes(blob)
    header = json.loads(blob[16 : 16 + hlen])
    key = draw(st.sampled_from(sorted(header) + ["entry"]))
    if key == "entry":
        entry = draw(st.sampled_from(header["arrays"]))
        entry[draw(st.sampled_from(["name", "shape"]))] = draw(WRONG_TYPES)
    else:
        header[key] = draw(WRONG_TYPES)
    text = json.dumps(header).encode()
    return bytes(blob[:8]) + struct.pack("<Q", len(text)) + text + bytes(blob[16 + hlen :])


@pytest.fixture(scope="module")
def whitened_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("whitened") / "ckpt.bin"
    save_checkpoint(path, whitened_model(NetSpec([4, 3, 2]), 5), seed=5, step=11)
    return path.read_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_whitened_checkpoint_loads_or_is_refused(tmp_path, whitened_blob, data):
    # every outcome is a model with integer meta or a ConsistencyError
    path = tmp_path / "ckpt.bin"
    path.write_bytes(damaged(data.draw, whitened_blob))
    try:
        model, meta = load_checkpoint(path)
    except ConsistencyError:
        return
    assert type(meta["seed"]) is int and type(meta["step"]) is int and meta["step"] >= 0
    assert model.kind in ("canonical", "whitened", "bn")
