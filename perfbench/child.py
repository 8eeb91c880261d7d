"""Runs one `whitenet` command in its own process for the benchmark.

    python3 perfbench/child.py --src SRC --marker FILE [--trace FILE] -- <whitenet arguments>

The command goes through ``whitenet.cli.main``, the function behind the
``whitenet`` console script. The only hook of an untraced run is a wrapper
on ``cli.run_train`` that notes ``time.monotonic()`` and the process's CPU
time at the first training call (the end of set-up), and sums the CPU time
spent inside training calls. When the command returns, those times, the
process's CPU time at the end and its peak resident memory (``VmHWM``) go to
``--marker`` as JSON. The parent cannot use ``ru_maxrss`` for this: Linux
carries the parent's resident size at spawn into the child's high-water mark.

With ``--trace`` the public functions of each ``whitenet`` module are wrapped
from here, and ``src/`` is left as it is. A wrapper replaces every binding of
its function in every loaded ``whitenet`` module, so functions imported by
name (``cli.run_train``, ``cli.save_checkpoint``, ``optim.next_batch``) are
traced where they are looked up. Per function the tracer keeps calls, total
and self seconds (total minus traced callees) and a unit count; it writes
them as JSON to the trace file when the command returns. A function that no
longer exists is listed as absent.

The wrapper around ``optim.prong_reparametrize`` also evaluates a fixed probe
batch before and after each call, outside the timed span, and records the
largest change of the network output: the function-preservation check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# span name -> (module, function) pairs it covers
SPANS = {
    "cli.command": [("cli", "main")],
    "config.resolve": [("config", "resolve_config")],
    "data.load_idx": [("data", "load_idx")],
    "data.downsample": [("data", "downsample")],
    "data.batch": [("data", "next_batch")],
    "net.forward": [("net", "forward_canonical"), ("net", "forward_whitened"), ("net", "forward_bn")],
    "net.backward": [
        ("net", "backward_canonical"),
        ("net", "backward_whitened"),
        ("net", "backward_bn"),
        ("net", "backpropagate_deltas"),
    ],
    "net.loss": [("net", "loss")],
    "net.project": [("net", "project_to_canonical"), ("net", "project_to_whitened")],
    "linalg.eig": [("linalg", "sym_eig")],
    "linalg.moments": [("linalg", "estimate_moments")],
    "linalg.invert": [("linalg", "invert_whitening")],
    "optim.train": [("optim", "train")],
    "optim.step": [("optim", "sgd_step"), ("optim", "rmsprop_step")],
    "optim.reparam": [("optim", "prong_reparametrize")],
    "fisher.report": [("fisher", "conditioning_report")],
    "fisher.factorized": [("fisher", "factorized_fisher_block")],
    "fisher.exact": [("fisher", "exact_fisher_block")],
    "checkpoint.save": [("checkpoint", "save_checkpoint")],
    "metrics.write": [("metrics", "write_metrics"), ("metrics", "write_table")],
}

PROBE_ROWS = 64


def _forward_rows(args, result):
    return result.inputs.shape[0]


def _file_bytes(args, result):
    return sum(os.path.getsize(p) for p in args[:2])


def _checkpoint_bytes(args, result):
    return os.path.getsize(args[0])


UNITS = {
    "net.forward_canonical": _forward_rows,
    "net.forward_whitened": _forward_rows,
    "net.forward_bn": _forward_rows,
    "data.load_idx": _file_bytes,
    "checkpoint.save_checkpoint": _checkpoint_bytes,
}


class Tracer:
    def __init__(self):
        self.stats = {}  # "module.function" -> {"calls", "total", "child", "units"}
        self.absent = []
        self.stack = []  # [function key, seconds spent in traced callees]
        self.probe = None  # fixed batch for the function-preservation check
        self.probe_deltas = []
        self.reparam_in_train = 0.0

    def install(self):
        import whitenet

        # probe forwards use the unwrapped function so they stay out of the spans
        self.forward_whitened = getattr(whitenet.net, "forward_whitened", None)
        for functions in SPANS.values():
            for module_name, attr in functions:
                module = getattr(whitenet, module_name)
                original = getattr(module, attr, None)
                key = f"{module_name}.{attr}"
                if not callable(original):
                    self.absent.append(key)
                    continue
                self.stats[key] = {"calls": 0, "total": 0.0, "child": 0.0, "units": 0}
                self._rebind(original, self._wrap(key, original))

    def _rebind(self, original, wrapped):
        for name, module in list(sys.modules.items()):
            if name == "whitenet" or name.startswith("whitenet."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def _wrap(self, key, fn):
        rec = self.stats[key]
        units = UNITS.get(key)
        is_reparam = key == "optim.prong_reparametrize"
        is_train = key == "optim.train"
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_train:
                train_data = args[1] if len(args) > 1 else kwargs["train_data"]
                self.probe = train_data.inputs[:PROBE_ROWS].copy()
            before = self._probe_outputs(args) if is_reparam else None
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec["calls"] += 1
                rec["total"] += dt
                rec["child"] += frame[1]
                if stack:
                    stack[-1][1] += dt
            if is_reparam:
                if any(f[0] == "optim.train" for f in stack):
                    self.reparam_in_train += dt
                after = self._probe_outputs(args)
                self.probe_deltas.append(float(abs(after - before).max()))
            if units is not None:
                rec["units"] += units(args, result)
            return result

        return wrapper

    def _probe_outputs(self, args):
        """Outputs on the probe batch; the time counts as traced work so it
        stays out of the caller's self time."""
        t0 = time.perf_counter()
        omega, phi, spec, stats_inputs = args[:4]
        probe = self.probe if self.probe is not None else stats_inputs[:PROBE_ROWS]
        outputs = self.forward_whitened(omega, phi, spec, probe).outputs
        if self.stack:
            self.stack[-1][1] += time.perf_counter() - t0
        return outputs

    def dump(self, path):
        doc = {
            "functions": {
                k: {"calls": r["calls"], "total_s": r["total"], "self_s": r["total"] - r["child"],
                    "units": r["units"]}
                for k, r in self.stats.items()
            },
            "spans": {name: [f"{m}.{a}" for m, a in fns] for name, fns in SPANS.items()},
            "absent": self.absent,
            "probe_deltas": self.probe_deltas,
            "reparam_in_train_s": self.reparam_in_train,
        }
        Path(path).write_text(json.dumps(doc))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--marker", required=True)
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import whitenet
    import whitenet.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(whitenet.__file__).resolve().parents:
        sys.exit(f"whitenet was imported from {whitenet.__file__}, not from {src}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    inner = cli.run_train
    marker = {"train_cpu_s": 0.0}

    def run_train(*a, **k):
        marker.setdefault("train_start", time.monotonic())
        marker.setdefault("train_start_cpu", time.process_time())
        t0 = time.process_time()
        try:
            return inner(*a, **k)
        finally:
            marker["train_cpu_s"] += time.process_time() - t0

    cli.run_train = run_train
    rc = cli.main(argv)
    end_cpu = time.process_time()
    if tracer is not None:
        tracer.dump(args.trace)
    if "train_start" in marker:
        marker["end_cpu"] = end_cpu
        marker["peak_rss_kb"] = _peak_rss_kb()
        Path(args.marker).write_text(json.dumps(marker))
    return rc


def _peak_rss_kb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return None


if __name__ == "__main__":
    sys.exit(main())
