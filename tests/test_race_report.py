"""scripts/run_autoencoder_race.py: the race report read from metrics.csv
files."""

import importlib.util
from pathlib import Path

import pytest

from whitenet.metrics import MetricsRow, read_metrics, write_metrics

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_autoencoder_race.py"


@pytest.fixture(scope="module")
def race():
    spec = importlib.util.spec_from_file_location("run_autoencoder_race", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def metrics_file(path, eval_losses, seconds_per_step=0.01, interval=50):
    rows = [MetricsRow(step=i * interval, wallclock_seconds=seconds_per_step * i * interval,
                       train_loss=loss, eval_loss=loss, learning_rate=0.01,
                       reparam_event=i == 0)
            for i, loss in enumerate(eval_losses)]
    write_metrics(path, rows)
    return read_metrics(path)


def test_tuned_cell_has_the_lowest_final_eval_loss(race, tmp_path):
    slow = metrics_file(tmp_path / "a.csv", [3.0, 2.5, 2.2])
    fast = metrics_file(tmp_path / "b.csv", [3.0, 2.0, 2.1])
    assert race.tuned([(0.1, slow), (0.01, fast)]) == (0.01, fast)


def test_race_lines_report_first_hits_against_momentum_target(race, tmp_path):
    # momentum's last eval (2.31) is a low draw from its plateau; the target
    # is the mean of its last five evals, 2.3206
    momentum = metrics_file(tmp_path / "momentum.csv",
                            [3.0, 2.5, 2.33, 2.318, 2.32, 2.325, 2.31])
    prong = metrics_file(tmp_path / "prong.csv", [3.0, 2.6, 2.5, 1.0, 0.7, 0.6, 0.5],
                         seconds_per_step=0.02)
    rmsprop = metrics_file(tmp_path / "rmsprop.csv", [3.0, 2.9, 2.8, 2.5, 2.4, 2.35, 2.3127])
    bn = metrics_file(tmp_path / "bn.csv", [3.0, 2.9, 2.8, 2.7, 2.6, 2.5, 2.4])
    lines = race.race_lines({"momentum": (0.01, momentum), "prong": (0.001, prong),
                             "rmsprop": (0.1, rmsprop), "bn": (0.01, bn)})
    assert lines[0] == "target: tuned momentum's mean eval loss over steps 100-300 = 2.3206"
    assert lines[2].split() == ["momentum", "0.01", "150", "1.50", "2.31"]
    assert lines[3].split() == ["prong", "0.001", "150", "3.00", "0.5"]
    assert lines[4].split() == ["rmsprop", "0.1", "300", "3.00", "2.3127"]
    assert lines[5].split() == ["bn", "0.01", "never", "-", "2.4"]
