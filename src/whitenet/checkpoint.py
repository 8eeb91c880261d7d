"""Model checkpoints: a JSON header followed by raw little-endian float64
arrays in declaration order. Round trips are bit-exact. Every model stores
its canonical weights and biases; a whitened one adds each slot's center
and preconditioner, a batch-norm one its gains, shifts and running
statistics. ``LAYOUTS`` declares each kind's arrays once: ``_layout`` reads
it for both the writer and the reader, which checks every stored shape
against it before any model is built."""

from __future__ import annotations

import json
import math
import struct
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConsistencyError, DimensionError
from .net import BN_DECAY, LayerSpec, Model, NetSpec, WhiteningCoeffs, flat_layout

MAGIC = b"WNETCKP1"
HEADER_KEYS = ("kind", "sizes", "nonlinearities", "seed", "step", "arrays")


# each kind's groups of arrays in file order; a group is written layer by
# layer, each array as (name, its list on a Model, its shape from the layer)
_PARAMS = (("weight", "params.weights", lambda l: (l.out_dim, l.in_dim)),
           ("bias", "params.biases", lambda l: (l.out_dim,)))
_PHI = (("center", "phi.centers", lambda l: (l.in_dim,)),
        ("preconditioner", "phi.preconditioners", lambda l: (l.in_dim, l.in_dim)))
_BN = tuple((name, where, lambda l: (l.out_dim,)) for name, where in (
    ("gain", "params.gains"), ("shift", "params.shifts"),
    ("running_mean", "bn_state.running_mean"), ("running_var", "bn_state.running_var")))
LAYOUTS = {"canonical": (_PARAMS,), "whitened": (_PARAMS, _PHI), "bn": (_PARAMS, _BN)}


def _layout(kind, spec: NetSpec):
    """(name, shape, where, i) of every array a checkpoint of ``kind`` holds
    for ``spec``, in file order, read off the spec with no array allocated;
    the array of a model is ``attrgetter(where)(model)[i]``."""
    if not isinstance(kind, str) or kind not in LAYOUTS:
        raise ConsistencyError(f"unknown checkpoint kind {kind!r}")
    return [(f"{name}_{i}", shape(l), where, i)
            for group in LAYOUTS[kind] for i, l in enumerate(spec.layers)
            for name, where, shape in group]


def save_checkpoint(path, model: Model, *, seed: int, step: int) -> None:
    arrays = [(name, attrgetter(where)(model)[i])
              for name, _, where, i in _layout(model.kind, model.spec)]
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
    layout = _layout(kind, spec)
    for name, shape, _, _ in layout:  # before any model is built
        if name not in arrays:
            raise ConsistencyError(f"{path} lacks array {name}")
        if arrays[name].shape != shape:
            raise ConsistencyError(
                f"{path} stores {name} as {arrays[name].shape}, the network needs {shape}")
    phi = WhiteningCoeffs.identity(spec) if kind == "whitened" else None
    model = Model(spec, flat_layout(spec, bn=kind == "bn"), phi=phi)
    for name, _, where, i in layout:
        attrgetter(where)(model)[i][...] = arrays[name]
    return model, {"seed": seed, "step": step}
