"""Training metrics: the per-interval log row, its CSV serialization and
parsing, and the CSV tables the commands write beside it."""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .errors import MetricsParseError

COLUMNS = (
    "step",
    "wallclock_seconds",
    "train_loss",
    "eval_loss",
    "learning_rate",
    "cond_ratio",
    "reparam_event",
)


@dataclass
class MetricsRow:
    step: int
    wallclock_seconds: float
    train_loss: float
    eval_loss: float
    learning_rate: float
    cond_ratio: float | None = None
    reparam_event: bool = False


def write_metrics(path, rows):
    write_table(path, COLUMNS, [
        [r.step, r.wallclock_seconds, r.train_loss, r.eval_loss, r.learning_rate,
         r.cond_ratio, int(r.reparam_event)]
        for r in rows
    ])


def read_metrics(path):
    """Rows of a metrics CSV; a malformed, missing or unreadable file raises
    MetricsParseError."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            return _parse_metrics(reader)
    except OSError as exc:
        raise MetricsParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise MetricsParseError(f"{path} is not a text file") from None
    except csv.Error as exc:  # e.g. a field above csv's size limit
        raise MetricsParseError(f"malformed CSV: {exc}", reader.line_num) from None


def _parse_metrics(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise MetricsParseError("empty metrics file", 1) from None
    if tuple(header) != COLUMNS:
        raise MetricsParseError(f"unexpected header {header}", 1)
    rows = []
    last_step = None
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != len(COLUMNS):
            raise MetricsParseError(f"expected {len(COLUMNS)} fields, got {len(rec)}", lineno)
        try:
            row = MetricsRow(
                step=int(rec[0]),
                wallclock_seconds=float(rec[1]),
                train_loss=float(rec[2]),
                eval_loss=float(rec[3]),
                learning_rate=float(rec[4]),
                cond_ratio=float(rec[5]) if rec[5] != "" else None,
                reparam_event=bool(int(rec[6])),
            )
        except ValueError as exc:
            raise MetricsParseError(f"bad field: {exc}", lineno) from None
        if last_step is not None and row.step <= last_step:
            raise MetricsParseError("steps are not strictly increasing", lineno)
        last_step = row.step
        rows.append(row)
    return rows


def write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for rec in rows:
            w.writerow(["" if v is None else (f"{v:.17g}" if isinstance(v, float) else v)
                        for v in rec])
