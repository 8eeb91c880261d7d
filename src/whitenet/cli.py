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

Every command builds and checks all of its runs (``_prepare``) before it
writes anything, so a run that cannot start leaves no output directory.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import sys
from pathlib import Path

from . import __version__, data as data_mod, fisher, net
from .checkpoint import save_checkpoint
from .config import PRESETS, config_hash, resolve_config, set_dotted, validate_config
from .errors import (
    ConfigError,
    ConsistencyError,
    FisherSizeError,
    IdxFormatError,
    SingularMatrixError,
)
from .metrics import write_metrics, write_table
from .optim import TrainConfig, check_run, prong_reparametrize, train as run_train


def build_dataset(cfg: dict):
    """Materialize (train, val, name) from the dataset section.

    An MNIST kind reads its ``images`` and ``labels`` IDX files; a path
    that cannot be read is an IdxFormatError, never a fallback. With
    neither path and ``fallback_synthetic`` set it runs as the synthetic
    kind of its task at the kind's image side (28 for ``mnist``, 10 for
    ``mnist10x10``): ``synthetic_images``, or ``synthetic_classification``
    at ``dim = side ** 2``. One path without the other is a ConfigError
    naming the missing key."""
    d = data_mod.DatasetConfig(**cfg["dataset"])
    kind, dim, side = d.kind, d.dim, d.side
    if kind in data_mod.MNIST_KINDS:
        side = 10 if kind == "mnist10x10" else 28
        missing = [f"dataset.{key}" for key in ("images", "labels") if not getattr(d, key)]
        if len(missing) == 2 and d.fallback_synthetic:
            kind = "synthetic_images" if d.autoencode else "synthetic_classification"
            dim = side ** 2
        elif missing:
            raise ConfigError(f"dataset kind {kind!r} needs both IDX paths "
                              "(or neither, with fallback_synthetic: true)", missing)
    if kind in data_mod.MNIST_KINDS:
        ds = data_mod.load_idx(d.images, d.labels, side=side)
        if not d.autoencode and d.n_classes == 2:
            # binary heads: digits 5-9 vs 0-4; load_idx's inputs and
            # these 0/1 targets need none of Dataset's checks
            digit = ds.targets.argmax(axis=1)
            ds = data_mod.Dataset._unchecked(
                ds.inputs, (digit >= 5).astype(float)[:, None], ds.name + "-binary"
            )
    elif kind == "synthetic_images":
        ds = data_mod.synthetic_images(d.n, side, d.seed)
    else:  # synthetic_classification
        ds = data_mod.synthetic_classification(
            d.n, dim, d.seed, spectrum_decay=d.spectrum_decay, n_classes=d.n_classes)
    if d.autoencode and ds.targets is not ds.inputs:
        # the inputs are validated already: no second finiteness check
        ds = data_mod.Dataset._unchecked(ds.inputs, ds.inputs, ds.name)
    train_ds, val_ds = data_mod.split_train_val(ds, d.val_size, d.seed)
    return train_ds, val_ds, ds.name


def build_model(cfg: dict) -> net.Model:
    spec = net.NetSpec(**cfg["model"])
    theta = net.init_fan_in(spec, TrainConfig(**cfg["train"]).seed)
    optimizer = cfg["optimizer"]
    if optimizer == "prong":
        return net.Model(spec, theta, phi=net.WhiteningCoeffs.identity(spec))
    if optimizer == "bn":
        return net.Model.batch_norm(spec, theta)
    return net.Model(spec, theta)


def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded. Where none is found (another BLAS, or no /proc/self/maps), get
    returns None and set does nothing."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    # a maps line is: address perms offset device inode path (which may hold spaces)
    for lib in sorted({line.split(maxsplit=5)[-1] for line in maps if "openblas" in line.lower()}):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            if hasattr(handle, name.format("set")):
                return getattr(handle, name.format("get")), getattr(handle, name.format("set"))
    return (lambda: None), (lambda threads: None)


def _write_manifest(out, cfg, *, seed, status, result=None, extra=None):
    manifest = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "seed": seed,
        "status": status,
        "blas_threads": _openblas()[0](),  # the live count, None without OpenBLAS
    }
    if result is not None:
        manifest["timing"] = result.timing
        manifest["reparam_steps"] = result.reparam_steps
        if result.divergence:
            manifest["divergence"] = result.divergence
    if extra:
        manifest.update(extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _variant(cfg: dict, suffix: str, overrides: dict) -> dict:
    """A run derived from ``cfg``: a copy without its ``grid`` section, with
    the dotted ``overrides`` set and ``suffix`` added to its name,
    validated."""
    run = json.loads(json.dumps({k: v for k, v in cfg.items() if k != "grid"}))  # deep copy
    for key, value in overrides.items():
        set_dotted(run, key, value)
    run["name"] = cfg["name"] + suffix
    return validate_config(run)


def _prepare(runs):
    """``[(cfg, out)]`` -> ``[(cfg, out, dataset)]``, every run checked by
    ``optim.check_run`` before any is written. ``dataset`` is the ``(train,
    val, name)`` of ``build_dataset``, built once per distinct ``dataset``
    section and held by the returned list alone; each check builds the
    run's model and drops it."""
    datasets, prepared = {}, []
    for cfg, out in runs:
        key = json.dumps(cfg["dataset"], sort_keys=True)
        dataset = datasets[key] = datasets.get(key) or build_dataset(cfg)
        check_run(build_model(cfg), *dataset[:2], TrainConfig(**cfg["train"]), cfg["optimizer"])
        prepared.append((cfg, out, dataset))
    return prepared


def _run_one(cfg: dict, out: Path, dataset, *, row_callback=None):
    """Train the run's model, built again by the seeded ``build_model``, on
    ``dataset`` from ``_prepare`` and write its run directory."""
    model = build_model(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))
    train_ds, val_ds, ds_name = dataset
    tcfg = TrainConfig(**cfg["train"])
    try:
        result = run_train(model, train_ds, tcfg, optimizer=cfg["optimizer"],
                           val_data=val_ds, row_callback=row_callback)
    except SingularMatrixError as exc:  # the run started: its manifest says why it stopped
        _write_manifest(out, cfg, seed=tcfg.seed, status="failed",
                        extra={"dataset": ds_name, "error": str(exc)})
        raise
    status = "completed" if result.divergence is None else "diverged"
    write_metrics(out / "metrics.csv", result.rows)
    # the updates applied: max_updates for a completed run, fewer for a diverged one
    save_checkpoint(out / "checkpoint.bin", model, seed=tcfg.seed, step=result.state.step)
    _write_manifest(out, cfg, seed=tcfg.seed, status=status, result=result,
                    extra={"dataset": ds_name})
    return status, result


def cmd_train(cfg: dict, out: Path) -> int:
    [(_, _, dataset)] = _prepare([(cfg, out)])
    status, result = _run_one(cfg, out, dataset)
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


def cmd_diagnose_fisher(cfg: dict, out: Path) -> int:
    """Conditioning experiment across sgd, rmsprop and prong.

    Every run starts from the same seeded model. Condition numbers are
    measured on a fixed probe subset, relative to the initial (pre-whitening)
    values. Every run's metrics rows carry the middle-layer ratio, left
    empty where that row is floored."""
    lanes = [(_variant(cfg, f"-{optimizer}", {"optimizer": optimizer} if optimizer == "prong"
                       else {"optimizer": optimizer, "train.momentum": 0.0}), out / optimizer)
             for optimizer in ("sgd", "rmsprop", "prong")]
    baseline_model = build_model(lanes[0][0])
    middle = baseline_model.spec.depth // 2
    try:  # refused before any work: the head, and the middle heatmap's size
        fisher.check_enumerable(baseline_model)
        fisher.exact_block_size(baseline_model, middle)
    except (ConsistencyError, FisherSizeError) as exc:
        raise ConfigError(f"diagnose-fisher cannot use this model: {exc}") from exc
    lanes = _prepare(lanes)  # every lane varies only the optimizer: one dataset
    out.mkdir(parents=True, exist_ok=True)
    probe = lanes[0][2][0].inputs[:512]  # the first rows of the lanes' training set
    baselines = {r.layer: r.cond for r in fisher.conditioning_report(baseline_model, probe)}

    # Fig-style heatmaps: exact middle-layer block before/after whitening,
    # stored bit for bit and streamed to disk a row of tiles at a time
    fisher.exact_fisher_block(baseline_model, probe, middle).save(
        out / "fisher_middle_before.npy")
    white = build_model(lanes[2][0])
    prong_reparametrize(white.params, white.phi, white.spec, probe,
                        TrainConfig(**cfg["train"]).eigen_epsilon)
    fisher.exact_fisher_block(white, probe, middle).save(out / "fisher_middle_after.npy")

    summary = {}
    for run_cfg, run_out, dataset in lanes:
        series = []

        def on_row(model, step, _series=series):
            rows = fisher.conditioning_report(model, probe, baselines=baselines)
            for r in rows:
                _series.append((step, r))
            mid = [r for r in rows if r.layer == middle][0]
            # a floored ratio is the floor's, not a measurement: left empty
            return None if mid.flag == "floored" else mid.cond_ratio

        _, result = _run_one(run_cfg, run_out, dataset, row_callback=on_row)
        optimizer = run_cfg["optimizer"]
        header = ["step", "layer", "kind", "lambda_max", "lambda_min", "cond",
                  "cond_ratio_to_initial", "flag"]
        table = [
            [step, r.layer, "factorized", r.lambda_max, r.lambda_min, r.cond, r.cond_ratio, r.flag]
            for step, r in series
        ]
        write_table(out / f"conditioning_{optimizer}.csv", header, table)
        ratios = [r.cond_ratio for r in result.rows if r.cond_ratio is not None]
        best = summary[optimizer] = min(ratios) if ratios else None
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
    if bad:  # refused before any cell is built
        raise ConfigError("grid axes must be non-empty lists of values", bad)
    cells = list(itertools.product(*(axes[k] for k in keys)))
    runs = _prepare([(_variant(cfg, f"-cell{i}", dict(zip(keys, values))), out / f"cell_{i}")
                     for i, values in enumerate(cells)])
    rows = []
    for i, values in enumerate(cells):
        # off the list, a dataset no later cell reads is freed once its last cell ends
        cell_cfg, cell_out, dataset = runs.pop(0)
        status, result = _run_one(cell_cfg, cell_out, dataset)
        train_losses = [r.train_loss for r in result.rows] or [float("nan")]
        rows.append({
            "cell": i,
            **dict(zip(keys, values)),
            "final_train_loss": train_losses[-1],
            "best_train_loss": min(train_losses),
            "final_eval_loss": result.rows[-1].eval_loss if result.rows else float("nan"),
            "diverged": int(status == "diverged"),
            "out_dir": str(cell_out),
        })
    header = list(rows[0].keys())
    write_table(out / "summary.csv", header, [[r[k] for k in header] for r in rows])
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="whitenet",
        description="Whitened-network training lab: amortized natural-gradient "
        "descent, first-order baselines, and Fisher conditioning diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (merged over --preset)")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named preset")
        p.add_argument("--seed", type=int, help="override train.seed")
        p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("train", help="run one training configuration"))
    common(sub.add_parser("diagnose-fisher", help="conditioning experiment"))
    common(sub.add_parser("grid", help="grid search over config['grid'] axes"))
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    get_threads, set_threads = _openblas()
    threads = get_threads()
    set_threads(1)  # one BLAS thread: a (config, seed) pair then determines every output
    try:
        overrides = {}
        if args.seed is not None:
            overrides["train.seed"] = args.seed
        cfg = resolve_config(args.preset, args.config, overrides)
        command = {"train": cmd_train, "diagnose-fisher": cmd_diagnose_fisher,
                   "grid": cmd_grid}[args.command]  # argparse allows no other
        return command(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IdxFormatError as exc:
        print(f"IDX format error: {exc}", file=sys.stderr)
        return 2
    except SingularMatrixError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    finally:  # a Python caller's process keeps its thread count
        set_threads(threads)


if __name__ == "__main__":
    sys.exit(main())
