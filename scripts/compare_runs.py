#!/usr/bin/env python3
"""Compare two whitenet output directories file by file.

Usage: python scripts/compare_runs.py RUN_A RUN_B

Both directories must hold the same files, and every file must be
byte-identical except for what a run measures on the wall clock: the
``wallclock_seconds`` column of a ``metrics.csv`` and the ``timing`` object
of a ``manifest.json``. Metrics, checkpoints, conditioning CSVs, ``.npy``
heatmaps and ``summary.json`` are compared byte for byte. Prints one line
per difference and exits 1 if there is any, 0 if there is none and 2 if an
argument is not a directory.
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

WALLCLOCK_COLUMN = "wallclock_seconds"


def _metrics_without_wallclock(raw: bytes):
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    if not rows or WALLCLOCK_COLUMN not in rows[0]:
        return rows
    col = rows[0].index(WALLCLOCK_COLUMN)
    return [row[:col] + row[col + 1 :] for row in rows]


def _manifest_without_timing(raw: bytes):
    doc = json.loads(raw)
    if isinstance(doc, dict):
        doc.pop("timing", None)
    return doc


def _comparable(path: Path, raw: bytes):
    """The part of a file's content that must match."""
    if path.name == "metrics.csv":
        return _metrics_without_wallclock(raw)
    if path.name == "manifest.json":
        return _manifest_without_timing(raw)
    return raw


def compare(a: Path, b: Path) -> list[str]:
    """Differences between the two directories, one line each."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = [f"only in {a}: {p}" for p in sorted(files_a - files_b)]
    diffs += [f"only in {b}: {p}" for p in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        raw_a, raw_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if raw_a == raw_b:
            continue
        try:
            same = _comparable(rel, raw_a) == _comparable(rel, raw_b)
        except (UnicodeDecodeError, ValueError):  # not CSV or JSON after all
            same = False
        if not same:
            diffs.append(f"differs: {rel}")
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.run_a, args.run_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    diffs = compare(args.run_a, args.run_b)
    for line in diffs:
        print(line)
    checked = sum(1 for p in args.run_a.rglob("*") if p.is_file())
    print(f"{len(diffs)} difference(s) in {checked} file(s) of {args.run_a}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
