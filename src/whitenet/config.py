"""Experiment configuration: a JSON document validated against the schema
below before any compute. Unknown keys are rejected by name.

SCHEMA maps each section to {key: (type, required, allowed-or-None)}.
Nested sections are dicts of the same shape. The same document drives
``train``, ``diagnose-fisher`` and ``grid``; the optional top-level
``grid`` section maps dotted config paths to value lists. Values the schema's
types admit but no run can use (an empty layer, a softmax hidden layer, a
dataset of no rows) are refused by ``_value_errors``.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .net import LOSS_KINDS, NONLINEARITIES
from .optim import OPTIMIZERS, AnnealPolicy, TrainConfig

DATASET_KINDS = (
    "synthetic_gaussian",
    "synthetic_images",
    "synthetic_classification",
    "mnist",
    "mnist10x10",
)

SCHEMA = {
    "name": (str, True, None),
    "dataset": {
        "kind": (str, True, DATASET_KINDS),
        "n": (int, False, None),
        "dim": (int, False, None),
        "side": (int, False, None),
        "n_classes": (int, False, None),
        "spectrum_decay": (float, False, None),
        "seed": (int, False, None),
        "val_size": (int, False, None),
        "images": (str, False, None),
        "labels": (str, False, None),
        "autoencode": (bool, False, None),
        "fallback_synthetic": (bool, False, None),
    },
    "model": {
        "sizes": (list, True, None),
        "hidden": (str, False, NONLINEARITIES),
        "head": (str, False, NONLINEARITIES),
        "loss": (str, False, LOSS_KINDS),
    },
    "optimizer": (str, True, OPTIMIZERS),
    "train": {
        "learning_rate": (float, True, None),
        "momentum": (float, False, None),
        "batch_size": (int, False, None),
        "reparam_period": (int, False, None),
        "stat_samples": (int, False, None),
        "eigen_epsilon": (float, False, None),
        "rmsprop_decay": (float, False, None),
        "rmsprop_damping": (float, False, None),
        "seed": (int, False, None),
        "max_updates": (int, False, None),
        "eval_interval": (int, False, None),
        "reset_momentum_on_reparam": (bool, False, None),
        "freeze_whitening": (bool, False, None),
        "anneal": {
            "eval_interval": (int, True, None),
            "patience": (int, False, None),
            "min_relative_improvement": (float, False, None),
            "divisor": (float, False, None),
        },
    },
    "long_running": (bool, False, None),
    "grid": (dict, False, None),
}


def _validate_section(section, schema, path, bad, missing):
    for key in section:
        if key not in schema:
            bad.append(f"{path}{key}")
    for key, rule in schema.items():
        here = f"{path}{key}"
        if isinstance(rule, dict):
            if key in section:
                if not isinstance(section[key], dict):
                    bad.append(here)
                else:
                    _validate_section(section[key], rule, here + ".", bad, missing)
            elif path == "" and key in ("dataset", "model", "train"):
                missing.append(here)
            continue
        typ, required, allowed = rule
        if key not in section:
            if required:
                missing.append(here)
            continue
        value = section[key]
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
            section[key] = value
        if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
            bad.append(here)
        elif allowed is not None and value not in allowed:
            bad.append(here)


DATASET_MINIMA = {"n": 1, "side": 1, "dim": 1, "val_size": 0, "n_classes": 2}


def _value_errors(cfg: dict) -> dict:
    """Config key -> the rule its value breaks, for a config whose keys and
    types have passed the schema."""
    errors = {}
    model = cfg["model"]
    sizes = model["sizes"]
    if len(sizes) < 2 or not all(type(size) is int and size >= 1 for size in sizes):
        errors["model.sizes"] = "a list of at least two integers >= 1"
    if model.get("hidden") == "softmax":
        errors["model.hidden"] = "softmax is only a head"
    for key, minimum in DATASET_MINIMA.items():
        if cfg["dataset"].get(key, minimum) < minimum:
            errors[f"dataset.{key}"] = f"an integer >= {minimum}"
    return errors


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict against SCHEMA; returns a deep copy with
    ints promoted to floats where the schema says float."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = copy.deepcopy(raw)
    bad, missing = [], []
    _validate_section(cfg, SCHEMA, "", bad, missing)
    if bad:
        raise ConfigError("invalid config keys", bad)
    if missing:
        raise ConfigError("missing required config keys", missing)
    errors = _value_errors(cfg)
    if errors:
        raise ConfigError("invalid config values", errors)
    return cfg


def build_train_config(cfg: dict) -> TrainConfig:
    section = dict(cfg["train"])
    anneal = section.pop("anneal", None)
    policy = AnnealPolicy(**anneal) if anneal else None
    return TrainConfig(anneal=policy, **section)


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
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def load_config_file(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


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
