import csv
import json
import struct

import numpy as np
import pytest

from whitenet import cli, fisher
from whitenet.checkpoint import load_checkpoint
from whitenet.cli import main
from whitenet.config import (
    PRESETS,
    config_hash,
    deep_merge,
    resolve_config,
    validate_config,
)
from whitenet.errors import ConfigError
from whitenet.metrics import read_metrics
from whitenet.optim import prong_reparametrize


def small_train_config(tmp_path, **train_overrides):
    cfg = {
        "name": "tiny",
        "dataset": {
            "kind": "synthetic_images",
            "n": 256,
            "side": 6,
            "seed": 5,
            "val_size": 64,
            "autoencode": True,
        },
        "model": {
            "sizes": [36, 16, 8, 16, 36],
            "hidden": "sigmoid",
            "head": "sigmoid",
            "loss": "squared_error",
        },
        "optimizer": "prong",
        "train": {
            "learning_rate": 0.005,
            "momentum": 0.9,
            "batch_size": 32,
            "reparam_period": 50,
            "stat_samples": 128,
            "eigen_epsilon": 1e-4,
            "seed": 1,
            "max_updates": 100,
            "eval_interval": 25,
            **train_overrides,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return cfg, path


class TestSchema:
    def test_unknown_keys_rejected_by_name(self):
        raw = {
            "name": "x",
            "dataset": {"kind": "synthetic_images", "bogus_key": 1},
            "model": {"sizes": [4, 2]},
            "optimizer": "sgd",
            "train": {"learning_rate": 0.1, "warp_speed": True},
        }
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert "dataset.bogus_key" in exc.value.keys
        assert "train.warp_speed" in exc.value.keys

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError) as exc:
            validate_config({"name": "x", "optimizer": "sgd"})
        assert "dataset" in exc.value.keys
        assert "model" in exc.value.keys

    def test_bad_enum_rejected(self):
        raw = {
            "name": "x",
            "dataset": {"kind": "synthetic_images"},
            "model": {"sizes": [4, 2]},
            "optimizer": "adam",
            "train": {"learning_rate": 0.1},
        }
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert "optimizer" in exc.value.keys

    def test_presets_validate(self):
        for name in PRESETS:
            validate_config(PRESETS[name])

    def test_paper_preset_marked_long_running(self):
        assert PRESETS["ae-mnist-paper"]["long_running"] is True
        sizes = PRESETS["ae-mnist-paper"]["model"]["sizes"]
        assert sizes == [784, 1000, 500, 250, 30, 250, 500, 1000, 784]
        # the published amortization configuration for this benchmark
        assert PRESETS["ae-mnist-paper"]["train"]["reparam_period"] == 1000
        assert PRESETS["ae-mnist-paper"]["train"]["stat_samples"] == 100

    def test_config_hash_stable_and_order_free(self):
        a = {"b": 1, "a": {"y": 2.0, "x": [1, 2]}}
        b = {"a": {"x": [1, 2], "y": 2.0}, "b": 1}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 40

    def test_resolve_merges_preset_and_overrides(self, tmp_path):
        override = {"train": {"max_updates": 7}}
        path = tmp_path / "o.json"
        path.write_text(json.dumps(override))
        cfg = resolve_config("ae-mnist-desk", path, {"train.seed": 42})
        assert cfg["train"]["max_updates"] == 7
        assert cfg["train"]["seed"] == 42
        assert cfg["model"]["sizes"][0] == 100


class TestTrainCommand:
    def test_artifacts_written(self, tmp_path):
        _, cfg_path = small_train_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("metrics.csv", "config.json", "manifest.json", "checkpoint.bin"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert len(manifest["config_hash"]) == 40
        assert manifest["reparam_steps"] == [0, 50]

    def test_deterministic_metrics_modulo_wallclock(self, tmp_path):
        _, cfg_path = small_train_config(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(read_metrics(out / "metrics.csv"))
        for ra, rb in zip(*outs):
            assert ra.step == rb.step
            assert ra.train_loss == rb.train_loss
            assert ra.eval_loss == rb.eval_loss
            assert ra.learning_rate == rb.learning_rate
            assert ra.reparam_event == rb.reparam_event

    def test_reparam_rows_at_period(self, tmp_path):
        _, cfg_path = small_train_config(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        rows = read_metrics(out / "metrics.csv")
        assert [r.step for r in rows if r.reparam_event] == [0, 50]

    def test_divergent_run_exits_nonzero(self, tmp_path):
        cfg, cfg_path = small_train_config(tmp_path, learning_rate=1e9, momentum=0.0)
        cfg["optimizer"] = "sgd"
        cfg["model"]["head"] = "identity"  # unbounded outputs so the loss blows up
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert code == 2
        assert manifest["status"] == "diverged"
        assert "divergence" in manifest
        # the checkpoint records the updates applied before the divergence
        _, meta = load_checkpoint(out / "checkpoint.bin")
        assert meta["step"] == manifest["divergence"]["step"] < cfg["train"]["max_updates"]

    def test_cond_preset_prong_ends_below_chance(self, tmp_path):
        # the preset's whitened run must learn, not saturate: its final
        # eval BCE sits below that of predicting 1/2 everywhere
        out = tmp_path / "run"
        assert main(["train", "--preset", "cond-mlp-desk", "--out", str(out)]) == 0
        rows = read_metrics(out / "metrics.csv")
        assert rows[-1].step == PRESETS["cond-mlp-desk"]["train"]["max_updates"]
        assert rows[-1].eval_loss < np.log(2.0)


class TestGridCommand:
    def test_one_by_one_grid_matches_train(self, tmp_path):
        cfg, cfg_path = small_train_config(tmp_path)
        gcfg = dict(cfg)
        gcfg["grid"] = {"train.learning_rate": [0.005]}
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(gcfg))
        out_grid = tmp_path / "grid"
        assert main(["grid", "--config", str(gpath), "--out", str(out_grid)]) == 0
        out_train = tmp_path / "single"
        main(["train", "--config", str(cfg_path), "--out", str(out_train)])
        grid_rows = read_metrics(out_grid / "cell_0" / "metrics.csv")
        single_rows = read_metrics(out_train / "metrics.csv")
        assert [r.train_loss for r in grid_rows] == [r.train_loss for r in single_rows]
        best = json.loads((out_grid / "best.json").read_text())
        assert best["cell"] == 0

    def test_epsilon_grid_exposed_and_ordered(self, tmp_path):
        """The trust-region grid: at a small step size, a small damping term
        must do at least as well as heavy damping (final training loss)."""
        cfg, _ = small_train_config(tmp_path, learning_rate=0.001, max_updates=200)
        gcfg = dict(cfg)
        gcfg["grid"] = {"train.eigen_epsilon": [1.0, 1e-1, 1e-2, 1e-3]}
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(gcfg))
        out = tmp_path / "grid"
        assert main(["grid", "--config", str(gpath), "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        eps_i = header.index("train.eigen_epsilon")
        loss_i = header.index("final_train_loss")
        by_eps = {float(line.split(",")[eps_i]): float(line.split(",")[loss_i])
                  for line in summary[1:]}
        assert by_eps[1e-2] <= by_eps[1.0] + 1e-12


class TestReplayCommand:
    def test_merge_two_runs(self, tmp_path):
        _, cfg_path = small_train_config(tmp_path)
        for tag in ("a", "b"):
            main(["train", "--config", str(cfg_path), "--out", str(tmp_path / tag)])
        out = tmp_path / "replay"
        code = main([
            "replay",
            str(tmp_path / "a" / "metrics.csv"),
            str(tmp_path / "b" / "metrics.csv"),
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "replay_by_step.csv").read_text().splitlines()
        assert lines[0] == "step,a,b"
        assert len(lines) > 1
        assert (out / "replay_by_wallclock.csv").exists()


class TestDiagnoseFisher:
    def test_diagnose_writes_conditioning_and_heatmaps(self, tmp_path, monkeypatch):
        cfg = {
            "name": "diag",
            "dataset": {
                "kind": "synthetic_classification",
                "n": 512,
                "dim": 16,
                "n_classes": 2,
                "seed": 3,
                "val_size": 64,
                "spectrum_decay": 1.5,
            },
            "model": {
                "sizes": [16, 8, 8, 1],
                "hidden": "tanh",
                "head": "sigmoid",
                "loss": "binary_cross_entropy",
            },
            "optimizer": "prong",
            "train": {
                "learning_rate": 0.05,
                "batch_size": 32,
                "reparam_period": 100,
                "stat_samples": 256,
                "eigen_epsilon": 0.0,
                "seed": 2,
                "max_updates": 200,
                "eval_interval": 100,
            },
        }
        cfg_path = tmp_path / "diag.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "diag"
        builds = []
        build_dataset = cli.build_dataset

        def counted_build(c):
            builds.append(c)
            return build_dataset(c)

        monkeypatch.setattr(cli, "build_dataset", counted_build)
        assert main(["diagnose-fisher", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(builds) == 1  # the three runs share one dataset
        for opt in ("sgd", "rmsprop", "prong"):
            assert (out / f"conditioning_{opt}.csv").exists()
            rows = read_metrics(out / opt / "metrics.csv")
            if opt != "prong":
                assert all(not r.reparam_event for r in rows)
        before = np.load(out / "fisher_middle_before.npy")
        after = np.load(out / "fisher_middle_after.npy")
        # the heatmaps are the exact 8x8-layer blocks, stored bit for bit
        assert before.shape == after.shape == (64, 64)
        assert np.array_equal(before, before.T)
        assert np.array_equal(after, after.T)
        resolved = resolve_config(None, cfg_path)
        probe = build_dataset(resolved)[0].inputs[:512]
        baseline = cli.build_model({**resolved, "optimizer": "sgd"})
        expected = fisher.exact_fisher_block(baseline, probe, 1).matrix
        assert before.tobytes() == expected.tobytes()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["prong"] < 0.1
        with open(out / "conditioning_prong.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert list(table[0])[-1] == "flag"
        middle = [r for r in table if r["layer"] == "1" and r["flag"] != "floored"]
        assert summary["prong"] == min(float(r["cond_ratio_to_initial"]) for r in middle)
        # each metrics row carries its middle row's ratio, left empty where
        # that row is floored (prong's rows at steps 100 and 200 here)
        floored = 0
        for opt in ("sgd", "rmsprop", "prong"):
            with open(out / f"conditioning_{opt}.csv", newline="") as fh:
                by_step = {int(r["step"]): r for r in csv.DictReader(fh) if r["layer"] == "1"}
            for row in read_metrics(out / opt / "metrics.csv"):
                mid = by_step[row.step]
                if mid["flag"] == "floored":
                    floored += 1
                    assert row.cond_ratio is None
                else:
                    assert row.cond_ratio == float(mid["cond_ratio_to_initial"])
        assert floored

    def test_after_heatmap_whitens_at_the_runs_default_epsilon(self, tmp_path):
        # no train.eigen_epsilon: the heatmap uses TrainConfig's default, as
        # the prong run does
        cfg, _ = small_train_config(tmp_path, max_updates=4, eval_interval=2)
        del cfg["train"]["eigen_epsilon"]
        cfg["dataset"].update(kind="synthetic_classification", dim=16, n_classes=2,
                              autoencode=False)
        cfg["model"].update(sizes=[16, 8, 8, 1], hidden="tanh", loss="binary_cross_entropy")
        cfg_path = tmp_path / "diag.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "diag"
        assert main(["diagnose-fisher", "--config", str(cfg_path), "--out", str(out)]) == 0
        resolved = resolve_config(None, cfg_path)
        probe = cli.build_dataset(resolved)[0].inputs[:512]
        white = cli.build_model(resolved)
        prong_reparametrize(white.params, white.phi, white.spec, probe, 1e-2)
        expected = fisher.exact_fisher_block(white, probe, 1).matrix
        assert np.load(out / "fisher_middle_after.npy").tobytes() == expected.tobytes()

    def test_best_middle_ratio_skips_floored_rows(self):
        def row(layer, ratio, flag=""):
            return fisher.ConditioningRow(layer, 1.0, 1e-3, 1e3, ratio, flag)

        rows = [row(1, 0.5), row(1, 1e-3, "floored"), row(0, 1e-4), row(1, None), row(1, 0.2)]
        assert cli.best_middle_ratio(rows, 1) == 0.2
        assert cli.best_middle_ratio([row(1, 1e-3, "floored"), row(0, 0.5)], 1) is None

    def test_unknown_preset_rejected(self, tmp_path):
        # argparse validates the preset name against the published list
        with pytest.raises(SystemExit) as exc:
            main(["train", "--preset", "nope", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


def write_idx_files(tmp_path, count=40, seed=0):
    """A 28x28 IDX image/label pair of random pixels."""
    rng = np.random.default_rng(seed)
    imgs = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, count, 28, 28) + imgs.tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, count) + rng.integers(0, 10, size=count, dtype=np.uint8).tobytes())
    return ip, lp


def idx_config(tmp_path, ip, lp):
    cfg, path = small_train_config(tmp_path, max_updates=4, eval_interval=2)
    cfg["dataset"] = {"kind": "mnist10x10", "images": str(ip), "labels": str(lp),
                      "seed": 2, "val_size": 8, "autoencode": True}
    cfg["model"]["sizes"] = [100, 16, 100]
    path.write_text(json.dumps(cfg))
    return cfg, path


class TestTypedErrors:
    """Typed boundary errors end the command with one line on stderr and
    exit code 2, never a traceback."""

    def one_line(self, capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("n, batch_size, rows", [(257, 32, 193), (256, 1, 192)])
    def test_bn_one_row_batch_refused(self, tmp_path, capsys, n, batch_size, rows):
        cfg, cfg_path = small_train_config(tmp_path, batch_size=batch_size, momentum=0.0)
        cfg["optimizer"] = "bn"
        cfg["dataset"]["n"] = n
        cfg_path.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        err = self.one_line(capsys, "config error: ")
        assert f"n={rows}" in err and f"batch_size={batch_size}" in err
        self.assert_refused(tmp_path / "run", err)

    def assert_refused(self, run_dir, err):
        """The run directory says the run was refused, and why."""
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "manifest.json"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "refused"
        assert err == f"config error: {manifest['error']}\n"

    def test_prong_one_training_row_refused(self, tmp_path, capsys):
        # the reparametrization's moments need two rows
        cfg, cfg_path = small_train_config(tmp_path)
        cfg["dataset"].update(n=2, val_size=1)
        cfg_path.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        err = self.one_line(capsys, "config error: ")
        assert "at least 2 training rows" in err and "n=1" in err
        self.assert_refused(tmp_path / "run", err)

    def test_singular_whitening_leaves_a_failed_manifest(self, tmp_path, capsys):
        # two statistics rows give a rank-one covariance, singular at epsilon 0
        _, cfg_path = small_train_config(tmp_path, eigen_epsilon=0.0, stat_samples=2)
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--out", str(run_dir)])
        assert code == 2
        err = self.one_line(capsys, "numerical error: ")
        assert "singular with epsilon=0" in err
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "manifest.json"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert err == f"numerical error: {manifest['error']}\n"

    def test_input_width_mismatch_refused_before_training(self, tmp_path, capsys):
        # 4x4 images against the paper autoencoder's 784-wide input
        rng = np.random.default_rng(3)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 40, 4, 4)
                       + rng.integers(0, 256, size=640, dtype=np.uint8).tobytes())
        lp.write_bytes(struct.pack(">II", 0x801, 40) + bytes(40))
        cfg_path = tmp_path / "idx.json"
        cfg_path.write_text(json.dumps({"dataset": {"images": str(ip), "labels": str(lp)}}))
        code = main(["train", "--preset", "ae-mnist-paper", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = self.one_line(capsys, "config error: ")
        assert "input width 16" in err and "784" in err
        self.assert_refused(tmp_path / "run", err)

    def test_target_width_mismatch_refused(self, tmp_path, capsys):
        # a 4-class dataset against a 3-output head
        cfg, cfg_path = small_train_config(tmp_path, max_updates=4, eval_interval=2)
        cfg["dataset"] = {"kind": "synthetic_classification", "n": 64, "dim": 36,
                          "n_classes": 4, "val_size": 8}
        cfg["model"].update(sizes=[36, 8, 3], head="softmax", loss="categorical_cross_entropy")
        cfg_path.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        err = self.one_line(capsys, "config error: ")
        assert "target width 4" in err and "output width 3" in err
        self.assert_refused(tmp_path / "run", err)

    @pytest.mark.parametrize("model, words", [
        ({"head": "relu", "loss": "squared_error"}, "'relu'"),
        ({"sizes": [100, 64, 64, 1]}, "4096x4096"),
    ])
    def test_diagnose_fisher_refuses_unsupported_model_up_front(self, tmp_path, capsys, monkeypatch,
                                                                 model, words):
        monkeypatch.setattr(cli, "build_dataset", None)  # refused before any work
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": model}))
        out = tmp_path / "diag"
        code = main(["diagnose-fisher", "--preset", "cond-mlp-desk", "--config", str(cfg_path),
                     "--out", str(out)])
        assert code == 2
        assert words in self.one_line(capsys, "config error: diagnose-fisher cannot use")
        assert not out.exists()

    def test_garbage_idx_file(self, tmp_path, capsys):
        ip, lp = write_idx_files(tmp_path)
        ip.write_bytes(np.random.default_rng(1).bytes(300))
        _, cfg_path = idx_config(tmp_path, ip, lp)
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "byte offset" in self.one_line(capsys, "IDX format error: ")

    @pytest.mark.parametrize("section, values, key", [
        ("model", {"sizes": [100, 0, 100]}, "model.sizes"),
        ("model", {"sizes": [100]}, "model.sizes"),
        ("model", {"sizes": [100, "a", 100]}, "model.sizes"),
        ("model", {"sizes": [100, 50.5, 100]}, "model.sizes"),
        ("model", {"sizes": [100, True, 100]}, "model.sizes"),
        ("model", {"hidden": "softmax"}, "model.hidden"),
        ("dataset", {"n": 0}, "dataset.n"),
        ("dataset", {"val_size": -5}, "dataset.val_size"),
        ("dataset", {"side": 0}, "dataset.side"),
        ("dataset", {"kind": "synthetic_gaussian", "dim": 0}, "dataset.dim"),
        ("dataset", {"kind": "synthetic_classification", "dim": 36, "n_classes": 0},
         "dataset.n_classes (an integer >= 2)"),
    ])
    def test_bad_config_value_refused_by_name(self, tmp_path, capsys, monkeypatch,
                                              section, values, key):
        monkeypatch.setattr(cli, "build_dataset", None)  # refused before any work
        cfg, cfg_path = small_train_config(tmp_path)
        cfg[section].update(values)
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert key in self.one_line(capsys, "config error: invalid config values: ")
        assert not out.exists()

    @pytest.mark.parametrize("change, key", [
        ({"optimizer": "prong_plus"}, "optimizer"),
        ({"train": {"rescale_decay": 0.9}}, "train.rescale_decay"),
        ({"train": {"rescale_floor": 1e-6}}, "train.rescale_floor"),
    ])
    def test_removed_prong_plus_names_refused_by_key(self, tmp_path, capsys, monkeypatch,
                                                     change, key):
        # the row-rescaled whitened optimizer and its two settings are gone
        monkeypatch.setattr(cli, "build_dataset", None)  # refused before any work
        cfg, cfg_path = small_train_config(tmp_path)
        cfg_path.write_text(json.dumps(deep_merge(cfg, change)))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert key in self.one_line(capsys, "config error: invalid config keys: ")
        assert not out.exists()

    def test_out_dir_key_refused_by_name(self, tmp_path, capsys, monkeypatch):
        # --out names the run directory; a config key for it would be ignored
        monkeypatch.setattr(cli, "build_dataset", None)  # refused before any work
        cfg, cfg_path = small_train_config(tmp_path)
        cfg["out_dir"] = str(tmp_path / "elsewhere")
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "out_dir" in self.one_line(capsys, "config error: invalid config keys")
        assert not out.exists() and not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("axis", [0.1, [], "0.1"])
    def test_grid_axis_must_be_a_non_empty_list(self, tmp_path, capsys, monkeypatch, axis):
        monkeypatch.setattr(cli, "_run_one", None)  # no cell runs
        cfg, cfg_path = small_train_config(tmp_path)
        cfg["grid"] = {"train.eigen_epsilon": [1e-2, 1e-3], "train.learning_rate": axis}
        cfg_path.write_text(json.dumps(cfg))
        code = main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "grid")])
        assert code == 2
        err = self.one_line(capsys, "config error: grid axes must be non-empty lists")
        assert "train.learning_rate" in err and "train.eigen_epsilon" not in err
        assert not (tmp_path / "grid").exists()

    def test_missing_metrics_csv_in_replay(self, tmp_path, capsys):
        missing = tmp_path / "nowhere" / "metrics.csv"
        code = main(["replay", str(missing), "--out", str(tmp_path / "replay")])
        assert code == 2
        assert str(missing) in self.one_line(capsys, "metrics error: cannot read ")

    def test_bad_metrics_csv_in_replay(self, tmp_path, capsys):
        bad = tmp_path / "metrics.csv"
        bad.write_text("step,loss\n1,2\n")
        code = main(["replay", str(bad), "--out", str(tmp_path / "replay")])
        assert code == 2
        assert "line 1" in self.one_line(capsys, "metrics error: ")


def test_idx_autoencoder_targets_are_the_inputs(tmp_path):
    ip, lp = write_idx_files(tmp_path)
    cfg, _ = idx_config(tmp_path, ip, lp)
    train, val, name = cli.build_dataset(validate_config(cfg))
    assert name == "idx-10x10"
    assert (train.n, val.n) == (32, 8)
    for part in (train, val):
        assert part.targets is part.inputs and part.inputs.shape[1] == 100
