"""Model checkpoints: a JSON header followed by raw little-endian float64
arrays in declaration order. Round trips are bit-exact."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConsistencyError
from .net import (
    BatchNormParams,
    BatchNormState,
    CanonicalParams,
    LayerSpec,
    Model,
    NetSpec,
    WhitenedParams,
    WhiteningCoeffs,
)

MAGIC = b"WNETCKP1"


def _named_arrays(model: Model):
    arrays = []
    for i, (w, b) in enumerate(zip(model.params.weights, model.params.biases)):
        arrays.append((f"weight_{i}", w))
        arrays.append((f"bias_{i}", b))
    if model.kind == "whitened":
        for i, (u, c) in enumerate(zip(model.phi.transforms, model.phi.centers)):
            arrays.append((f"transform_{i}", u))
            arrays.append((f"center_{i}", c))
    if model.kind == "bn":
        for i in range(model.spec.depth):
            arrays.append((f"gain_{i}", model.bn_params.gains[i]))
            arrays.append((f"shift_{i}", model.bn_params.shifts[i]))
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
        "bn_decay": model.bn_decay,
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


def load_checkpoint(path):
    """Rebuild (model, meta) from a checkpoint file. A file that is not a
    checkpoint, or is truncated or corrupt, raises ConsistencyError."""
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
    offset = start + hlen
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        if offset + count * 8 > len(raw):
            raise ConsistencyError(f"{path} is truncated inside array {entry['name']}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        arrays[entry["name"]] = arr.astype(np.float64)
        offset += count * 8
    if offset != len(raw):
        raise ConsistencyError(f"{path} has trailing bytes after its last array")

    sizes = header["sizes"]
    spec = NetSpec(
        tuple(
            LayerSpec(a, b, k)
            for a, b, k in zip(sizes, sizes[1:], header["nonlinearities"])
        )
    )
    depth = spec.depth
    weights = [arrays[f"weight_{i}"] for i in range(depth)]
    biases = [arrays[f"bias_{i}"] for i in range(depth)]
    kind = header["kind"]
    if kind == "canonical":
        model = Model.canonical(spec, CanonicalParams(weights, biases))
    elif kind == "whitened":
        phi = WhiteningCoeffs(
            [arrays[f"transform_{i}"] for i in range(depth)],
            [arrays[f"center_{i}"] for i in range(depth)],
        )
        model = Model.whitened(spec, WhitenedParams(weights, biases), phi)
    elif kind == "bn":
        bn_params = BatchNormParams(
            [arrays[f"gain_{i}"] for i in range(depth)],
            [arrays[f"shift_{i}"] for i in range(depth)],
        )
        bn_state = BatchNormState(
            [arrays[f"running_mean_{i}"] for i in range(depth)],
            [arrays[f"running_var_{i}"] for i in range(depth)],
        )
        model = Model.batch_norm(
            spec,
            CanonicalParams(weights, biases),
            bn_params,
            bn_state,
            decay=header.get("bn_decay", 0.9),
        )
    else:
        raise ConsistencyError(f"unknown checkpoint kind {kind!r}")
    meta = {"seed": header["seed"], "step": header["step"]}
    return model, meta
