#!/usr/bin/env python3
"""Convergence race on the desk autoencoder.

momentum-SGD, RMSprop, batch norm and PRONG each run the same number of
updates at every learning rate in {1e-1, 1e-2, 1e-3}; an optimizer's tuned
run is its completed one with the lowest final eval loss. The target is
the mean of tuned momentum's last ``TARGET_EVALS`` eval losses: momentum
ends on a plateau, and its last eval alone is one draw from it. For each
optimizer the script prints the tuned learning rate, the first step and the
first ``wallclock_seconds`` at which the eval loss is at or below the target
(momentum's own first hit among them), and the final eval loss.

Usage: python scripts/run_autoencoder_race.py [--out runs/race] [--steps 2000]

Run as a script, it pins BLAS to one thread before numpy is imported, so
the ``first s`` column is timed as the README's table was. Imported (as the
tests do), it leaves the environment alone.
"""

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from whitenet.cli import main as cli_main  # noqa: E402
from whitenet.metrics import read_metrics  # noqa: E402

LEARNING_RATES = [0.1, 0.01, 0.001]
TARGET_EVALS = 5  # momentum's last evals averaged into the target
# momentum per optimizer; rmsprop's step takes none
LANES = {"momentum": 0.9, "rmsprop": 0.0, "bn": 0.9, "prong": 0.9}


def run_grid(optimizer, momentum, steps, out):
    """Train every learning rate; returns (learning_rate, rows) per
    completed cell."""
    cfg = {
        "grid": {"train.learning_rate": LEARNING_RATES},
        "optimizer": optimizer,
        "train": {"max_updates": steps, "momentum": momentum},
    }
    cfg_path = Path(out) / f"{optimizer}_grid.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(cfg))
    grid_out = Path(out) / optimizer
    code = cli_main(["grid", "--preset", "ae-mnist-desk", "--config", str(cfg_path),
                     "--out", str(grid_out)])
    if code != 0:
        raise SystemExit(code)
    with open(grid_out / "summary.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    return [(float(c["train.learning_rate"]), read_metrics(Path(c["out_dir"]) / "metrics.csv"))
            for c in cells if c["diverged"] == "0"]


def tuned(cells):
    """The (learning_rate, rows) cell with the lowest final eval loss."""
    return min(cells, key=lambda cell: cell[1][-1].eval_loss)


def race_lines(lanes):
    """Report lines for ``{optimizer: (learning_rate, rows)}``, momentum's
    among them; the mean of its last ``TARGET_EVALS`` eval losses is the
    target."""
    plateau = lanes["momentum"][1][-TARGET_EVALS:]
    target = sum(r.eval_loss for r in plateau) / len(plateau)
    lines = [f"target: tuned momentum's mean eval loss over steps {plateau[0].step}-"
             f"{plateau[-1].step} = {target:.5g}",
             f"{'optimizer':<10} {'lr':>6} {'first step':>10} {'first s':>8} {'final eval':>11}"]
    for optimizer, (lr, rows) in lanes.items():
        hit = next((r for r in rows if r.eval_loss <= target), None)
        step, seconds = ("never", "-") if hit is None else (hit.step, f"{hit.wallclock_seconds:.2f}")
        lines.append(f"{optimizer:<10} {lr:>6g} {step:>10} {seconds:>8} "
                     f"{rows[-1].eval_loss:>11.5g}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/race")
    parser.add_argument("--steps", type=int, default=2000)
    args = parser.parse_args()

    lanes = {}
    for optimizer, momentum in LANES.items():
        cells = run_grid(optimizer, momentum, args.steps, args.out)
        if not cells:
            print(f"{optimizer}: every learning rate diverged")
            continue
        lanes[optimizer] = tuned(cells)
    if "momentum" not in lanes:
        return 1
    print("\n".join(race_lines(lanes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
