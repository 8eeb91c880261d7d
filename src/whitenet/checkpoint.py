"""Model checkpoints: a JSON header followed by raw little-endian float64
arrays in declaration order. Round trips are bit-exact. Every model stores
its canonical weights and biases; a whitened one adds each slot's center
and preconditioner, a batch-norm one its gains, shifts and running
statistics."""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConsistencyError, DimensionError
from .net import BN_DECAY, LayerSpec, Model, NetSpec, WhiteningCoeffs, flat_layout

MAGIC = b"WNETCKP1"
HEADER_KEYS = ("kind", "sizes", "nonlinearities", "seed", "step", "arrays")


def _named_arrays(model: Model):
    arrays = []
    for i, (w, b) in enumerate(zip(model.params.weights, model.params.biases)):
        arrays.append((f"weight_{i}", w))
        arrays.append((f"bias_{i}", b))
    if model.phi is not None:
        for i, (c, p) in enumerate(zip(model.phi.centers, model.phi.preconditioners)):
            arrays.append((f"center_{i}", c))
            arrays.append((f"preconditioner_{i}", p))
    if model.params.gains:
        for i in range(model.spec.depth):
            arrays.append((f"gain_{i}", model.params.gains[i]))
            arrays.append((f"shift_{i}", model.params.shifts[i]))
            arrays.append((f"running_mean_{i}", model.bn_state.running_mean[i]))
            arrays.append((f"running_var_{i}", model.bn_state.running_var[i]))
    return arrays


def save_checkpoint(path, model: Model, *, seed: int, step: int) -> None:
    arrays = _named_arrays(model)
    header = {
        "format": "whitenet-checkpoint",
        "version": 1,
        "kind": model.kind,
        "sizes": model.spec.sizes,
        "nonlinearities": [l.nonlinearity for l in model.spec.layers],
        "bn_decay": BN_DECAY,
        "seed": int(seed),
        "step": int(step),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _spec(path, header):
    sizes, kinds = header["sizes"], header["nonlinearities"]
    if not (isinstance(sizes, list) and isinstance(kinds, list)
            and len(kinds) == len(sizes) - 1 and all(type(n) is int for n in sizes)):
        raise ConsistencyError(f"{path} has malformed sizes or nonlinearities")
    try:
        return NetSpec(tuple(LayerSpec(a, b, k) for a, b, k in zip(sizes, sizes[1:], kinds)))
    except (ConfigError, DimensionError) as exc:  # what NetSpec and LayerSpec raise
        raise ConsistencyError(f"{path} describes an invalid network: {exc}") from None


def _shapes(kind, spec):
    """Name -> shape of every array a checkpoint of ``kind`` must hold,
    read off the spec with no array allocated."""
    if kind not in ("canonical", "whitened", "bn"):
        raise ConsistencyError(f"unknown checkpoint kind {kind!r}")
    shapes = {}
    for i, l in enumerate(spec.layers):
        shapes |= {f"weight_{i}": (l.out_dim, l.in_dim), f"bias_{i}": (l.out_dim,)}
        if kind == "whitened":
            shapes |= {f"center_{i}": (l.in_dim,), f"preconditioner_{i}": (l.in_dim, l.in_dim)}
        if kind == "bn":
            shapes |= {f"{a}_{i}": (l.out_dim,)
                       for a in ("gain", "shift", "running_mean", "running_var")}
    return shapes


def load_checkpoint(path):
    """Rebuild (model, meta) from a checkpoint file. A file that is not a
    checkpoint, or is truncated, corrupt or inconsistent with the network
    its header describes, raises ConsistencyError."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ConsistencyError(f"{path} is not a whitenet checkpoint")
    start = len(MAGIC) + 8
    if len(raw) < start:
        raise ConsistencyError(f"{path} is truncated inside its header length")
    (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC))
    try:
        header = json.loads(raw[start : start + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ConsistencyError(f"{path} has a corrupt header: {exc}") from None
    if (not isinstance(header, dict) or any(k not in header for k in HEADER_KEYS)
            or not isinstance(header["arrays"], list)):
        raise ConsistencyError(f"{path} header is not an object with keys {HEADER_KEYS}")
    seed, step = header["seed"], header["step"]
    if type(seed) is not int or type(step) is not int or step < 0:
        raise ConsistencyError(f"{path} has a malformed seed {seed!r} or step {step!r}")
    offset = start + hlen
    arrays = {}
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise ConsistencyError(f"{path} has a malformed array entry {entry!r}")
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        if offset + count * 8 > len(raw):
            raise ConsistencyError(f"{path} is truncated inside array {entry['name']}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(shape)
        offset += count * 8
    if offset != len(raw):
        raise ConsistencyError(f"{path} has trailing bytes after its last array")

    kind, spec = header["kind"], _spec(path, header)
    for name, shape in _shapes(kind, spec).items():  # before any model is built
        if name not in arrays:
            raise ConsistencyError(f"{path} lacks array {name}")
        if arrays[name].shape != shape:
            raise ConsistencyError(
                f"{path} stores {name} as {arrays[name].shape}, the network needs {shape}")
    phi = WhiteningCoeffs.identity(spec) if kind == "whitened" else None
    model = Model(spec, flat_layout(spec, bn=kind == "bn"), phi=phi)
    for name, target in _named_arrays(model):
        target[...] = arrays[name]
    return model, {"seed": seed, "step": step}
