"""Experiment configuration: a JSON document validated before any compute.

Each section is a dataclass that holds its keys' types, defaults and value
rules: ``dataset`` is ``data.DatasetConfig``, ``model`` is
``net.NetSpec`` and ``train`` is ``optim.TrainConfig``. SCHEMA maps each
top-level key to (type, required, allowed-or-None), and each section to a
dict of the same shape read off its class: one key per field, typed by its
annotation and required only when the field has no default. Unknown keys,
mistyped values and non-finite floats (JSON's NaN and Infinity) are refused
by name; then every section is built, and a value that breaks its class's
rule is refused as ``<section>.<key> (rule)``.
The same document drives ``train``, ``diagnose-fisher`` and ``grid``; the
optional top-level ``grid`` section maps dotted config paths to value lists.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import sys
import typing
from pathlib import Path

from .data import DatasetConfig
from .errors import ConfigError
from .net import NetSpec
from .optim import OPTIMIZERS, TrainConfig

SECTIONS = {"dataset": DatasetConfig, "model": NetSpec, "train": TrainConfig}


def _section_schema(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is dataclasses.MISSING, None)
            for f in dataclasses.fields(cls)}


SCHEMA = {
    "name": (str, True, None),
    "dataset": _section_schema(DatasetConfig),
    "model": _section_schema(NetSpec),
    "optimizer": (str, True, OPTIMIZERS),
    "train": _section_schema(TrainConfig),
    "long_running": (bool, False, None),
    "grid": (dict, False, None),
}


def _validate_section(section, schema, path, bad, missing):
    for key in section:
        if key not in schema:
            bad[f"{path}{key}"] = None
    for key, rule in schema.items():
        here = f"{path}{key}"
        if isinstance(rule, dict):
            if key in section:
                if not isinstance(section[key], dict):
                    bad[here] = None
                else:
                    _validate_section(section[key], rule, here + ".", bad, missing)
            elif path == "":
                missing.append(here)
            continue
        typ, required, allowed = rule
        if key not in section:
            if required:
                missing.append(here)
            continue
        value = section[key]
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            # an integer beyond the float range reads as infinite, refused below
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
            section[key] = value
        if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
            bad[here] = None
        elif typ is float and not math.isfinite(value):  # json reads NaN and Infinity
            bad[here] = "a finite number"
        elif allowed is not None and value not in allowed:
            bad[here] = None


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict against SCHEMA and build every section,
    refusing a bad value before any work; returns a deep copy with ints
    promoted to floats where the schema says float, and no default filled
    in."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = copy.deepcopy(raw)
    bad, missing = {}, []
    _validate_section(cfg, SCHEMA, "", bad, missing)
    if bad:
        raise ConfigError("invalid config keys", bad)
    if missing:
        raise ConfigError("missing required config keys", missing)
    for name, cls in SECTIONS.items():
        cls(**cfg[name])  # refuses the section's bad values by name
    return cfg


def config_hash(cfg: dict) -> str:
    """Git-style (blob) SHA-1 of the canonical JSON serialization."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def set_dotted(cfg: dict, dotted: str, value):
    """Set ``cfg[a][b]...[z] = value`` for ``dotted`` "a.b...z", making the
    missing objects; a path through a value that is not an object is
    refused by name."""
    node = cfg
    *parents, last = dotted.split(".")
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError("a dotted key runs through a value that is not an object", [dotted])
    node[last] = value


def load_config_file(path) -> dict:
    """The JSON object in the UTF-8 file ``path``; anything else is refused."""
    # refused: a file that cannot be read, text that is not UTF-8 or not JSON,
    # and JSON nested deeper than the decoder recurses
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not readable UTF-8 JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    return raw


PRESETS: dict[str, dict] = {
    # Desk-scale deep autoencoder: 10x10 images (downsampled MNIST when the
    # IDX files are available, otherwise the synthetic image generator),
    # sigmoid layers, squared reconstruction error.
    "ae-mnist-desk": {
        "name": "ae-mnist-desk",
        "dataset": {
            "kind": "mnist10x10",
            "n": 4096,
            "side": 10,
            "seed": 7,
            "val_size": 512,
            "autoencode": True,
            "fallback_synthetic": True,
        },
        "model": {
            "sizes": [100, 200, 100, 50, 16, 50, 100, 200, 100],
            "hidden": "sigmoid",
            "head": "sigmoid",
            "loss": "squared_error",
        },
        "optimizer": "prong",
        "train": {
            "learning_rate": 0.001,
            "momentum": 0.9,
            "batch_size": 64,
            "reparam_period": 200,
            "stat_samples": 100,
            "eigen_epsilon": 1e-4,
            "seed": 0,
            "max_updates": 1000,
            "eval_interval": 50,
        },
    },
    # The full-width architecture; kept runnable but far outside desk
    # runtime budgets, and not part of any gated number.
    "ae-mnist-paper": {
        "name": "ae-mnist-paper",
        "long_running": True,
        "dataset": {
            "kind": "mnist",
            "seed": 7,
            "val_size": 10000,
            "autoencode": True,
            "fallback_synthetic": False,
        },
        "model": {
            "sizes": [784, 1000, 500, 250, 30, 250, 500, 1000, 784],
            "hidden": "sigmoid",
            "head": "sigmoid",
            "loss": "squared_error",
        },
        "optimizer": "prong",
        "train": {
            "learning_rate": 0.01,
            "momentum": 0.9,
            "batch_size": 128,
            "reparam_period": 1000,
            "stat_samples": 100,
            "eigen_epsilon": 0.01,
            "seed": 0,
            "max_updates": 20000,
            "eval_interval": 500,
        },
    },
    # Conditioning diagnostics: small tanh classifier on 10x10 inputs, the
    # model size keeps every Fisher block tractable for the middle layer.
    "cond-mlp-desk": {
        "name": "cond-mlp-desk",
        "dataset": {
            "kind": "mnist10x10",
            "n": 2048,
            "side": 10,
            "n_classes": 2,
            "seed": 11,
            "val_size": 256,
            "autoencode": False,
            "fallback_synthetic": True,
        },
        "model": {
            "sizes": [100, 32, 32, 1],
            "hidden": "tanh",
            "head": "sigmoid",
            "loss": "binary_cross_entropy",
        },
        "optimizer": "prong",
        "train": {
            "learning_rate": 0.05,
            "momentum": 0.0,
            "batch_size": 32,
            "reparam_period": 500,
            "stat_samples": 512,
            "eigen_epsilon": 1e-2,
            "seed": 3,
            "max_updates": 2000,
            "eval_interval": 200,
        },
    },
}


def resolve_config(preset: str | None, config_path=None, overrides: dict | None = None) -> dict:
    cfg: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        cfg = copy.deepcopy(PRESETS[preset])
    if config_path is not None:
        cfg = deep_merge(cfg, load_config_file(config_path))
    if overrides:
        for dotted, value in overrides.items():
            set_dotted(cfg, dotted, value)
    return validate_config(cfg)
