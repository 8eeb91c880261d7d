import json
import struct

import numpy as np
import pytest

from whitenet.checkpoint import load_checkpoint, save_checkpoint
from whitenet.errors import ConsistencyError
from whitenet.net import Model, NetSpec, WhiteningCoeffs, init_fan_in, project_to_whitened


def test_canonical_round_trip_bit_exact(tmp_path):
    spec = NetSpec.mlp([5, 4, 3], hidden="relu", head="softmax")
    model = Model(spec, init_fan_in(spec, 9))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=9, step=123)
    back, meta = load_checkpoint(path)
    assert meta == {"seed": 9, "step": 123}
    assert back.kind == "canonical"
    assert [l.nonlinearity for l in back.spec.layers] == ["relu", "softmax"]
    for a, b in zip(model.params.weights, back.params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(model.params.biases, back.params.biases):
        assert np.array_equal(a, b)


def test_whitened_round_trip_bit_exact(tmp_path):
    spec = NetSpec.mlp([4, 3, 2])
    theta = init_fan_in(spec, 1)
    phi = WhiteningCoeffs.identity(spec)
    phi.transforms[0] += np.random.default_rng(2).standard_normal((4, 4)) * 0.1
    inverses = [np.linalg.inv(u) for u in phi.transforms]
    model = Model(spec, project_to_whitened(theta, phi, inverses), phi=phi)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=1, step=7)
    back, _ = load_checkpoint(path)
    assert back.kind == "whitened"
    for a, b in zip(model.phi.transforms, back.phi.transforms):
        assert np.array_equal(a, b)
    x = np.random.default_rng(3).standard_normal((6, 4))
    assert np.array_equal(model.forward(x).outputs, back.forward(x).outputs)


def test_bn_round_trip_preserves_running_stats(tmp_path):
    spec = NetSpec.mlp([3, 2])
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
    spec = NetSpec.mlp([3, 2])
    model = Model(spec, init_fan_in(spec, 6))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, seed=6, step=0)
    blob = path.read_bytes()
    keep = {"header_length": 10, "header": 20, "payload": len(blob) - 8}[cut]
    path.write_bytes(blob[:keep])
    with pytest.raises(ConsistencyError):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    spec = NetSpec.mlp([3, 2])
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
       for key in ("kind", "sizes", "nonlinearities", "seed", "step", "arrays")},
    "arrays_not_a_list": _set("arrays", {"weight_0": [2, 3]}),
    "entry_without_name": _set_entry("name", None),
    "entry_without_shape": _set_entry("shape", None),
    "renamed_array": _set_entry("name", "weights_0"),
    "kind_without_its_arrays": _set("kind", "bn"),
    "unknown_kind": _set("kind", "sparse"),
    "zero_size": _set("sizes", [3, 0]),
    "non_integer_size": _set("sizes", [3, "2"]),
    "unknown_nonlinearity": _set("nonlinearities", ["swish"]),
    "nonlinearity_count": _set("sizes", [3, 2, 2]),
    "transposed_weight": _set_entry("shape", [3, 2]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_header_rejected(tmp_path, case):
    # each edit keeps the payload parseable, so only the header's own
    # checks and its agreement with the network it describes can catch it
    spec = NetSpec.mlp([3, 2])
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
