"""The benchmark's child process (perfbench/child.py) traces whitenet
functions by name and calls some of them itself. These tests load that file
as it is and check that the names, argument orders and span layout it relies
on still hold, so a rename cannot silently zero a span or break its
function-preservation probe."""

import importlib
import importlib.util
import inspect
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from whitenet import cli, data, fisher, net, optim
from whitenet.config import validate_config
from whitenet.data import Dataset
from whitenet.net import Model, NetSpec, WhiteningCoeffs, init_fan_in, project_to_whitened

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def whitened_model(seed=3):
    spec = NetSpec.mlp([6, 5, 2], hidden="tanh", head="softmax")
    phi = WhiteningCoeffs.identity(spec)
    model = Model(spec, project_to_whitened(init_fan_in(spec, seed), phi), phi=phi)
    stats = np.random.default_rng(seed).standard_normal((80, 6))
    optim.prong_reparametrize(model.params, model.phi, spec, stats, 1e-2)
    return model, stats


def test_every_span_has_a_member(child):
    for span, members in child.SPANS.items():
        present = [
            f"{m}.{a}" for m, a in members
            if callable(getattr(importlib.import_module(f"whitenet.{m}"), a, None))
        ]
        assert present, f"span {span} has no member left in whitenet"


def test_reparametrize_leads_with_the_probe_arguments():
    names = list(inspect.signature(optim.prong_reparametrize).parameters)[:4]
    assert names == ["omega", "phi", "spec", "stats_inputs"]


def test_probe_forward_runs_on_whitened_model(child):
    model, stats = whitened_model()
    tracer = child.Tracer()
    tracer.forward_whitened = net.forward_whitened  # the binding install() takes
    args = (model.params, model.phi, model.spec, stats, 1e-2)  # a prong_reparametrize call
    outputs = tracer._probe_outputs(args)
    expected = model.forward(stats[: child.PROBE_ROWS]).outputs
    assert np.array_equal(outputs, expected)


@pytest.mark.parametrize("span", ["net.forward", "net.backward"])
def test_span_members_do_not_nest(child, span, monkeypatch):
    # the tracer sums its members' total times, so a member that calls
    # another would count the inner call twice
    members = [a for m, a in child.SPANS[span] if callable(getattr(net, a, None))]
    calls = dict.fromkeys(members, 0)
    depth = [0]

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            depth[0] += 1
            try:
                assert depth[0] == 1, f"{name} runs inside another {span} member"
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in members:
        monkeypatch.setattr(net, name, wrap(name, getattr(net, name)))

    whitened, x = whitened_model()
    spec = whitened.spec
    y = np.eye(2)[np.random.default_rng(5).integers(0, 2, size=x.shape[0])]
    for model in (whitened, Model(spec, init_fan_in(spec, 6)),
                  Model.batch_norm(spec, init_fan_in(spec, 7))):
        trace = model.forward(x, training=True)
        _, grad = net.loss("categorical_cross_entropy", trace.outputs, y)
        model.backward(trace, grad)
    fisher.class_sweep(whitened, x)
    assert all(calls.values()), calls


@pytest.mark.parametrize("optimizer, step_name", [
    ("sgd", "sgd_step"), ("momentum", "sgd_step"), ("bn", "sgd_step"),
    ("prong", "sgd_step"), ("rmsprop", "rmsprop_step"),
])
def test_train_steps_through_the_traced_names(child, optimizer, step_name, monkeypatch):
    # the optim.step span wraps these module attributes, so train() must call
    # them through the module on every update, whatever the optimizer
    assert ("optim", step_name) in child.SPANS["optim.step"]
    calls = []
    original = getattr(optim, step_name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(optim, step_name, counting)
    spec = NetSpec.mlp([6, 5, 2], hidden="tanh", head="softmax")
    theta = init_fan_in(spec, 8)
    if optimizer == "prong":
        phi = WhiteningCoeffs.identity(spec)
        model = Model(spec, project_to_whitened(theta, phi), phi=phi)
    elif optimizer == "bn":
        model = Model.batch_norm(spec, theta)
    else:
        model = Model(spec, theta)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((64, 6))
    data = Dataset(x, np.eye(2)[rng.integers(0, 2, size=64)])
    momentum = 0.0 if optimizer in ("sgd", "rmsprop") else 0.9
    cfg = optim.TrainConfig(learning_rate=0.05, momentum=momentum, batch_size=8, max_updates=12,
                            eval_interval=6, reparam_period=5, stat_samples=32)
    optim.train(model, data, cfg, optimizer=optimizer, loss_kind="categorical_cross_entropy")
    assert len(calls) == 12


def test_mnist10x10_loads_through_the_traced_data_names(child, tmp_path, monkeypatch):
    # the data.load_idx and data.downsample spans wrap these module
    # attributes, and data.idx_bytes sizes the files named by load_idx's
    # first two positional arguments
    assert ("data", "load_idx") in child.SPANS["data.load_idx"]
    assert ("data", "downsample") in child.SPANS["data.downsample"]
    assert child.UNITS["data.load_idx"] is child._file_bytes
    n = 24
    pixels = np.random.default_rng(10).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, n, 28, 28) + pixels.tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, n) + bytes(n))
    calls = {"load_idx": [], "downsample": []}
    for name in calls:
        original = getattr(data, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(data, name, counting)
    cfg = validate_config({
        "name": "contract",
        "dataset": {"kind": "mnist10x10", "images": str(ip), "labels": str(lp),
                    "val_size": 4, "autoencode": True},
        "model": {"sizes": [100, 8, 100]},
        "optimizer": "momentum",
        "train": {"learning_rate": 0.01},
    })
    cli.build_dataset(cfg)
    assert [args[:2] for args in calls["load_idx"]] == [(str(ip), str(lp))]
    assert calls["downsample"]
    assert child._file_bytes(calls["load_idx"][0], None) == ip.stat().st_size + lp.stat().st_size


# the spans perfbench/run.py's workloads expect --trace 1 to record calls in;
# a name that is not a span is one function, as run.py reads it
AE_DESK_PRONG_EXPECT = ["linalg.eig", "linalg.moments", "linalg.invert", "optim.reparam",
                        "net.project"]
COND_FISHER_EXPECT = ["fisher.report", "fisher.factorized", "fisher.exact", "linalg.eig",
                      "optim.reparam", "optim.rmsprop_step"]


def count_span_calls(child, spans, monkeypatch):
    """Counts calls of every member of ``spans``, rebinding each member
    wherever whitenet binds it, as the tracer does; returns
    {(span, attr): calls}, filled in as the program runs."""
    calls = {}
    for span in spans:
        members = child.SPANS.get(span, [tuple(span.split("."))])
        for module_name, attr in members:
            original = getattr(importlib.import_module(f"whitenet.{module_name}"), attr, None)
            if not callable(original):
                continue
            calls[span, attr] = 0

            def counting(*args, _key=(span, attr), _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name == "whitenet" or name.startswith("whitenet."):
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, binding, counting)
    return calls


def assert_every_span_called(calls, spans):
    for span in spans:
        assert sum(n for (s, _), n in calls.items() if s == span), (span, calls)


def test_prong_train_calls_every_expected_span(child, tmp_path, monkeypatch):
    # a span whose members are never called reads 0 and fails the traced
    # run's coverage check
    calls = count_span_calls(child, AE_DESK_PRONG_EXPECT, monkeypatch)
    cfg = {
        "name": "contract-prong",
        "dataset": {"kind": "synthetic_images", "n": 96, "side": 6, "val_size": 16,
                    "autoencode": True},
        "model": {"sizes": [36, 8, 36], "hidden": "sigmoid", "head": "sigmoid"},
        "optimizer": "prong",
        "train": {"learning_rate": 0.01, "momentum": 0.9, "batch_size": 16, "max_updates": 12,
                  "eval_interval": 6, "reparam_period": 5, "stat_samples": 32},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert_every_span_called(calls, AE_DESK_PRONG_EXPECT)


def test_diagnose_fisher_calls_every_expected_span(child, tmp_path, monkeypatch):
    # conditioning reports take their spectra without eigenvectors, outside
    # linalg.eig: the span must still be fed by the prong run's
    # reparametrizations
    calls = count_span_calls(child, COND_FISHER_EXPECT, monkeypatch)
    cfg = {
        "name": "contract-fisher",
        "dataset": {"kind": "synthetic_classification", "n": 160, "dim": 12, "n_classes": 2,
                    "seed": 3, "val_size": 32},
        "model": {"sizes": [12, 6, 6, 1], "hidden": "tanh", "head": "sigmoid",
                  "loss": "binary_cross_entropy"},
        "optimizer": "prong",
        "train": {"learning_rate": 0.05, "batch_size": 16, "max_updates": 12,
                  "eval_interval": 6, "reparam_period": 5, "stat_samples": 64,
                  "eigen_epsilon": 1e-2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "diag"
    assert cli.main(["diagnose-fisher", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert_every_span_called(calls, COND_FISHER_EXPECT)
    # the two heatmaps are the only exact blocks
    assert calls["fisher.exact", "exact_fisher_block"] == 2


def test_conditioning_report_builds_each_factorized_block_through_the_module(child, monkeypatch):
    # the fisher.factorized span and the fisher.blocks count see one call per
    # layer only while the report calls the block function by its module name
    calls = count_span_calls(child, ["fisher.factorized", "fisher.exact"], monkeypatch)
    spec = NetSpec.mlp([6, 5, 4, 1], hidden="tanh", head="sigmoid")
    x = np.random.default_rng(8).standard_normal((32, 6))
    assert len(fisher.conditioning_report(Model(spec, init_fan_in(spec, 9)), x)) == 3
    assert calls == {("fisher.factorized", "factorized_fisher_block"): 3,
                     ("fisher.exact", "exact_fisher_block"): 0}
