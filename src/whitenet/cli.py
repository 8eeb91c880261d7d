"""Experiment driver.

Commands:
  train            one training run -> metrics.csv, config.json,
                   manifest.json, checkpoint.bin
  diagnose-fisher  conditioning experiment: sgd / rmsprop / prong runs with
                   per-layer condition-number series and the exact
                   middle-layer Fisher block before/after whitening as
                   float64 .npy heatmaps (read them with np.load); each is
                   streamed to disk a row of tiles at a time, and the dense
                   block is never held
  grid             Cartesian product over the config's "grid" axes
  replay           merge metrics files into plot-ready LOCF tables
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, data as data_mod, fisher, net
from .checkpoint import save_checkpoint
from .config import (
    PRESETS,
    build_train_config,
    config_hash,
    resolve_config,
    set_dotted,
    validate_config,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    FisherSizeError,
    IdxFormatError,
    MetricsParseError,
    SingularMatrixError,
)
from .metrics import read_metrics, replay, write_metrics, write_table
from .optim import train as run_train


def build_dataset(cfg: dict):
    """Materialize (train, val, name) from the dataset section. MNIST kinds
    fall back to the seeded synthetic generators when the IDX files are not
    configured and ``fallback_synthetic`` is set."""
    d = cfg["dataset"]
    kind = d["kind"]
    autoencode = d.get("autoencode", False)
    seed = d.get("seed", 0)
    n = d.get("n", 4096)

    if kind in ("mnist", "mnist10x10"):
        images, labels = d.get("images"), d.get("labels")
        if images and labels and Path(images).exists() and Path(labels).exists():
            ds = data_mod.load_idx(images, labels, side=10 if kind == "mnist10x10" else 28)
            if not autoencode and d.get("n_classes", 10) == 2:
                # binary heads: digits 5-9 vs 0-4
                digit = ds.targets.argmax(axis=1)
                ds = data_mod.Dataset(
                    ds.inputs, (digit >= 5).astype(float)[:, None], name=ds.name + "-binary"
                )
        elif d.get("fallback_synthetic", False):
            side = d.get("side", 10)
            if autoencode:
                ds = data_mod.synthetic_images(n, side, seed)
            else:
                ds = data_mod.synthetic_classification(
                    n,
                    side * side,
                    seed,
                    spectrum_decay=d.get("spectrum_decay", 1.0),
                    n_classes=d.get("n_classes", 2),
                )
        else:
            raise ConfigError(
                f"dataset kind {kind!r} needs 'images'/'labels' paths "
                "(or fallback_synthetic: true)"
            )
    elif kind == "synthetic_images":
        ds = data_mod.synthetic_images(n, d.get("side", 10), seed)
    elif kind == "synthetic_gaussian":
        dim = d.get("dim", 16)
        ds = data_mod.synthetic_gaussian(n, dim, 0.0, np.eye(dim), seed)
    else:  # synthetic_classification
        ds = data_mod.synthetic_classification(
            n,
            d.get("dim", 16),
            seed,
            spectrum_decay=d.get("spectrum_decay", 1.0),
            n_classes=d.get("n_classes", 2),
        )
    if autoencode and ds.targets is not ds.inputs:
        ds = data_mod.Dataset(ds.inputs, ds.inputs, name=ds.name)
    val_size = d.get("val_size", 0)
    train_ds, val_ds = data_mod.split_train_val(ds, min(val_size, ds.n - 1), seed)
    return train_ds, val_ds, ds.name


def build_model(cfg: dict) -> net.Model:
    m = cfg["model"]
    spec = net.NetSpec.mlp(m["sizes"], hidden=m.get("hidden", "tanh"), head=m.get("head", "sigmoid"))
    seed = cfg["train"].get("seed", 0)
    theta = net.init_fan_in(spec, seed)
    optimizer = cfg["optimizer"]
    if optimizer == "prong":
        phi = net.WhiteningCoeffs.identity(spec)
        return net.Model(spec, net.project_to_whitened(theta, phi), phi=phi)
    if optimizer == "bn":
        return net.Model.batch_norm(spec, theta)
    return net.Model(spec, theta)


def _write_manifest(out, cfg, *, seed, status, result=None, extra=None):
    manifest = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "seed": seed,
        "status": status,
    }
    if result is not None:
        manifest["timing"] = result.timing
        manifest["reparam_steps"] = result.reparam_steps
        if result.divergence:
            manifest["divergence"] = result.divergence
    if extra:
        manifest.update(extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _run_one(cfg: dict, out: Path, dataset, *, row_callback=None):
    """Train one configuration on ``dataset``, the ``(train, val, name)``
    that ``build_dataset(cfg)`` returns, and write its run directory."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))
    train_ds, val_ds, ds_name = dataset
    model = build_model(cfg)
    tcfg = build_train_config(cfg)
    loss_kind = cfg["model"].get("loss", "squared_error")
    status, result = "completed", None
    try:
        result = run_train(
            model,
            train_ds,
            tcfg,
            optimizer=cfg["optimizer"],
            loss_kind=loss_kind,
            val_data=val_ds,
            row_callback=row_callback,
        )
    except DivergenceError as exc:
        status = "diverged"
        result = exc.result
    except (ConfigError, SingularMatrixError) as exc:
        _write_manifest(out, cfg, seed=tcfg.seed,
                        status="refused" if isinstance(exc, ConfigError) else "failed",
                        extra={"dataset": ds_name, "error": str(exc)})
        raise
    write_metrics(out / "metrics.csv", result.rows)
    # the updates applied: max_updates for a completed run, fewer for a diverged one
    save_checkpoint(out / "checkpoint.bin", model, seed=tcfg.seed, step=result.state.step)
    _write_manifest(out, cfg, seed=tcfg.seed, status=status, result=result,
                    extra={"dataset": ds_name})
    return status, result


def cmd_train(cfg: dict, out: Path) -> int:
    status, result = _run_one(cfg, out, build_dataset(cfg))
    last = result.rows[-1] if result.rows else None
    if last is not None:
        print(
            f"{cfg['name']}: {status} at step {last.step}, train_loss "
            f"{last.train_loss:.6g}, eval_loss {last.eval_loss:.6g}"
        )
    frac = result.timing.get("reparam_fraction", 0.0)
    if frac:
        print(f"whitening reparametrization fraction of runtime: {frac:.1%}")
    return 0 if status == "completed" else 2


def best_middle_ratio(rows, middle):
    """The smallest cond ratio of the middle layer's rows, skipping rows
    without a ratio and floored ones; None when no row is left."""
    ratios = [r.cond_ratio for r in rows
              if r.layer == middle and r.cond_ratio is not None and r.flag != "floored"]
    return min(ratios) if ratios else None


def cmd_diagnose_fisher(cfg: dict, out: Path) -> int:
    """Conditioning experiment across sgd, rmsprop and prong.

    Every run starts from the same seeded model. Condition numbers are
    measured on a fixed probe subset, relative to the initial (pre-whitening)
    values. Every run's metrics rows carry the middle-layer ratio, left
    empty where that row is floored."""
    baseline_model = build_model({**cfg, "optimizer": "sgd"})
    middle = baseline_model.spec.depth // 2
    try:  # refused before any work: the head, and the middle heatmap's size
        fisher.check_enumerable(baseline_model)
        fisher.exact_block_size(baseline_model, middle)
    except (ConsistencyError, FisherSizeError) as exc:
        raise ConfigError(f"diagnose-fisher cannot use this model: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(cfg)  # every run varies only the optimizer
    train_ds = dataset[0]
    probe = train_ds.inputs[: min(512, train_ds.n)]
    baselines = {r.layer: r.cond for r in fisher.conditioning_report(baseline_model, probe)}

    # Fig-style heatmaps: exact middle-layer block before/after whitening,
    # stored bit for bit and streamed to disk a row of tiles at a time
    fisher.exact_fisher_block(baseline_model, probe, middle).save(
        out / "fisher_middle_before.npy")
    white = build_model({**cfg, "optimizer": "prong"})
    from .optim import prong_reparametrize

    prong_reparametrize(white.params, white.phi, white.spec, probe,
                        build_train_config(cfg).eigen_epsilon)
    fisher.exact_fisher_block(white, probe, middle).save(out / "fisher_middle_after.npy")

    summary = {}
    for optimizer in ("sgd", "rmsprop", "prong"):
        run_cfg = validate_config({**cfg, "optimizer": optimizer, "name": f"{cfg['name']}-{optimizer}"})
        if optimizer != "prong":
            run_cfg["train"]["momentum"] = 0.0
        series = []

        def on_row(model, step, _series=series):
            rows = fisher.conditioning_report(model, probe, baselines=baselines)
            for r in rows:
                _series.append((step, r))
            mid = [r for r in rows if r.layer == middle][0]
            # a floored ratio is the floor's, not a measurement: left empty
            return {"cond_ratio": None if mid.flag == "floored" else mid.cond_ratio}

        status, _ = _run_one(run_cfg, out / optimizer, dataset, row_callback=on_row)
        header = ["step", "layer", "kind", "lambda_max", "lambda_min", "cond",
                  "cond_ratio_to_initial", "flag"]
        table = [
            [step, r.layer, "factorized", r.lambda_max, r.lambda_min, r.cond, r.cond_ratio, r.flag]
            for step, r in series
        ]
        write_table(out / f"conditioning_{optimizer}.csv", header, table)
        best = summary[optimizer] = best_middle_ratio([r for _, r in series], middle)
        print(f"{optimizer}: best middle-layer cond ratio "
              + ("none (no unfloored row)" if best is None else f"{best:.3e}"))
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return 0


def cmd_grid(cfg: dict, out: Path) -> int:
    axes = cfg.get("grid") or {}
    if not axes:
        raise ConfigError("grid command needs a non-empty 'grid' section")
    keys = sorted(axes)
    bad = [k for k in keys if not isinstance(axes[k], list) or not axes[k]]
    if bad:  # refused before any cell runs
        raise ConfigError("grid axes must be non-empty lists of values", bad)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    best = None
    for i, values in enumerate(itertools.product(*(axes[k] for k in keys))):
        cell_cfg = {k: v for k, v in cfg.items() if k != "grid"}
        cell_cfg = json.loads(json.dumps(cell_cfg))  # deep copy
        for key, value in zip(keys, values):
            set_dotted(cell_cfg, key, value)
        cell_cfg["name"] = f"{cfg['name']}-cell{i}"
        cell_cfg = validate_config(cell_cfg)
        cell_out = out / f"cell_{i}"
        status, result = _run_one(cell_cfg, cell_out, build_dataset(cell_cfg))
        train_losses = [r.train_loss for r in result.rows] or [float("nan")]
        record = {
            "cell": i,
            **dict(zip(keys, values)),
            "final_train_loss": train_losses[-1],
            "best_train_loss": min(train_losses),
            "final_eval_loss": result.rows[-1].eval_loss if result.rows else float("nan"),
            "diverged": int(status == "diverged"),
            "out_dir": str(cell_out),
        }
        rows.append(record)
        if not record["diverged"] and (best is None or record["best_train_loss"] < best["best_train_loss"]):
            best = record
    header = list(rows[0].keys())
    write_table(out / "summary.csv", header, [[r[k] for k in header] for r in rows])
    (out / "best.json").write_text(json.dumps(best, indent=2))
    if best is not None:
        axis_desc = ", ".join(f"{k}={best[k]}" for k in keys)
        print(f"best cell {best['cell']}: {axis_desc} "
              f"(best train loss {best['best_train_loss']:.6g})")
    return 0


def cmd_replay(paths, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    runs = [(Path(p).parent.name or Path(p).stem, read_metrics(p)) for p in paths]
    by_step, by_time = replay(runs)
    write_table(out / "replay_by_step.csv", by_step[0], by_step[1])
    write_table(out / "replay_by_wallclock.csv", by_time[0], by_time[1])
    print(f"merged {len(runs)} runs -> {out}/replay_by_step.csv, replay_by_wallclock.csv")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="whitenet",
        description="Whitened-network training lab: amortized natural-gradient "
        "descent, first-order baselines, and Fisher conditioning diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config file (merged over --preset)")
            p.add_argument("--preset", choices=sorted(PRESETS), help="named preset")
            p.add_argument("--seed", type=int, help="override train.seed")
        p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("train", help="run one training configuration"))
    common(sub.add_parser("diagnose-fisher", help="conditioning experiment"))
    common(sub.add_parser("grid", help="grid search over config['grid'] axes"))
    rp = sub.add_parser("replay", help="merge metrics.csv files")
    rp.add_argument("inputs", nargs="+", help="metrics.csv paths")
    common(rp, config=False)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return cmd_replay(args.inputs, Path(args.out))
        overrides = {}
        if args.seed is not None:
            overrides["train.seed"] = args.seed
        cfg = resolve_config(args.preset, args.config, overrides)
        out = Path(args.out)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "diagnose-fisher":
            return cmd_diagnose_fisher(cfg, out)
        if args.command == "grid":
            return cmd_grid(cfg, out)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IdxFormatError as exc:
        print(f"IDX format error: {exc}", file=sys.stderr)
        return 2
    except MetricsParseError as exc:
        print(f"metrics error: {exc}", file=sys.stderr)
        return 2
    except SingularMatrixError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
