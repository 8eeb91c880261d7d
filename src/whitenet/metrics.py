"""Training metrics: the per-interval log row, its CSV serialization and
parsing, and the CSV tables the commands write beside it.

``MetricsRow``'s fields are the one declaration of ``metrics.csv``: its
columns are the field names in order, and each field's type picks the rule
that writes and reads it. A float is written with 17 significant digits, an
optional float that is None as an empty field, and a flag as 0/1."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

from .errors import MetricsParseError


@dataclass
class MetricsRow:
    step: int
    wallclock_seconds: float
    train_loss: float
    eval_loss: float
    learning_rate: float
    cond_ratio: float | None = None
    reparam_event: bool = False


COLUMNS = tuple(f.name for f in fields(MetricsRow))
# text -> value, one rule per field type (annotations are strings here)
_PARSERS = {"int": int, "float": float, "bool": lambda text: bool(int(text)),
            "float | None": lambda text: float(text) if text != "" else None}
_FIELD_PARSERS = [_PARSERS[f.type] for f in fields(MetricsRow)]
_FLAGS = {f.name for f in fields(MetricsRow) if f.type == "bool"}  # written as 0/1


def write_metrics(path, rows):
    write_table(path, COLUMNS, [[int(getattr(r, c)) if c in _FLAGS else getattr(r, c)
                                 for c in COLUMNS] for r in rows])


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
            row = MetricsRow(*(parse(text) for parse, text in zip(_FIELD_PARSERS, rec)))
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
