"""scripts/compare_runs.py: two run directories match when only the
wall-clock measurements differ."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from whitenet.checkpoint import save_checkpoint
from whitenet.metrics import MetricsRow, write_metrics
from whitenet.net import Model, NetSpec, init_fan_in

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"


@pytest.fixture(scope="module")
def compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_run(root: Path, wallclock=0.5, timing=1.0):
    run = root / "sgd"
    run.mkdir(parents=True)
    rows = [MetricsRow(step=s, wallclock_seconds=wallclock * s, train_loss=1.0 / (s + 1),
                       eval_loss=0.5, learning_rate=0.1) for s in range(3)]
    write_metrics(run / "metrics.csv", rows)
    spec = NetSpec([3, 2])
    save_checkpoint(run / "checkpoint.bin", Model(spec, init_fan_in(spec, 0)), seed=0, step=2)
    manifest = {"seed": 0, "status": "completed", "timing": {"total_seconds": timing}}
    (run / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    np.save(root / "fisher_middle_before.npy", np.arange(6.0).reshape(2, 3))
    (root / "conditioning_sgd.csv").write_text("step,cond\n0,1.5\n")
    (root / "summary.json").write_text(json.dumps({"sgd": 0.25}))
    return root


def test_identical_apart_from_wall_clock(compare_runs, tmp_path, capsys):
    a = make_run(tmp_path / "a")
    b = make_run(tmp_path / "b", wallclock=0.75, timing=2.0)
    assert (a / "sgd" / "metrics.csv").read_bytes() != (b / "sgd" / "metrics.csv").read_bytes()
    assert compare_runs.main([str(a), str(b)]) == 0
    assert "0 difference(s) in 6 file(s)" in capsys.readouterr().out


@pytest.mark.parametrize("mutate", [
    lambda d: (d / "sgd" / "metrics.csv").write_text(
        (d / "sgd" / "metrics.csv").read_text().replace("0.33333333333333331", "0.3")),
    lambda d: np.save(d / "fisher_middle_before.npy", np.arange(6.0).reshape(3, 2)),
    lambda d: (d / "sgd" / "checkpoint.bin").write_bytes(
        (d / "sgd" / "checkpoint.bin").read_bytes()[:-1] + b"\x01"),
    lambda d: (d / "conditioning_sgd.csv").write_text("step,cond\n0,1.6\n"),
    lambda d: (d / "summary.json").write_text(json.dumps({"sgd": 0.5})),
    lambda d: (d / "sgd" / "manifest.json").write_text(
        json.dumps({"seed": 1, "status": "completed", "timing": {}})),
    lambda d: (d / "extra.txt").write_text("x"),
    lambda d: (d / "summary.json").unlink(),
], ids=["metrics", "npy", "checkpoint", "csv", "summary", "manifest", "extra", "missing"])
def test_any_other_difference_fails(compare_runs, tmp_path, capsys, mutate):
    a = make_run(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    mutate(b)
    assert compare_runs.main([str(a), str(b)]) == 1
    assert "difference(s)" in capsys.readouterr().out


def write_grid_summary(root: Path, cells=("cell_0", "cell_1"), loss="0.5"):
    root.mkdir(parents=True, exist_ok=True)
    lines = ["cell,train.learning_rate,final_train_loss,out_dir"]
    lines += [f"{i},0.01,{loss},{root / name}" for i, name in enumerate(cells)]
    (root / "summary.csv").write_text("\n".join(lines) + "\n")
    return root


def test_grids_under_two_out_prefixes_match(compare_runs, tmp_path, capsys):
    # each summary.csv names its cells under its own --out
    a = write_grid_summary(tmp_path / "a")
    b = write_grid_summary(tmp_path / "elsewhere" / "b")
    assert (a / "summary.csv").read_bytes() != (b / "summary.csv").read_bytes()
    assert compare_runs.main([str(a), str(b)]) == 0
    assert "0 difference(s) in 1 file(s)" in capsys.readouterr().out


@pytest.mark.parametrize("change", [
    {"cells": ("cell_0", "cell_2")},
    {"loss": "0.6"},
], ids=["cell-name", "loss"])
def test_grid_summaries_still_differ_by_cell_and_value(compare_runs, tmp_path, capsys, change):
    a = write_grid_summary(tmp_path / "a")
    b = write_grid_summary(tmp_path / "b", **change)
    assert compare_runs.main([str(a), str(b)]) == 1
    assert "differs: summary.csv" in capsys.readouterr().out


def test_not_a_directory(compare_runs, tmp_path):
    a = make_run(tmp_path / "a")
    assert compare_runs.main([str(a), str(tmp_path / "nope")]) == 2
