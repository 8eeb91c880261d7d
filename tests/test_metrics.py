import csv
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from whitenet.errors import MetricsParseError
from whitenet.metrics import COLUMNS, MetricsRow, read_metrics, write_metrics


def rows_fixture():
    return [
        MetricsRow(0, 0.0, 2.0, 2.1, 0.1, cond_ratio=1.0, reparam_event=True),
        MetricsRow(50, 1.5, 1.0, 1.2, 0.1),
        MetricsRow(100, 3.0, 0.5, 0.7, 0.01, cond_ratio=0.05),
    ]


class TestRoundTrip:
    def test_bit_faithful_floats(self, tmp_path):
        rows = rows_fixture()
        rows[1].train_loss = 1.0 / 3.0  # needs all 17 digits
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows)
        back = read_metrics(path)
        assert len(back) == 3
        assert back[1].train_loss == rows[1].train_loss
        assert back[0].cond_ratio == 1.0
        assert back[1].cond_ratio is None
        assert back[0].reparam_event is True

    def test_written_bytes(self, tmp_path):
        # 17 significant digits, an empty cond_ratio, 0/1 reparam flags
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows_fixture())
        assert path.read_bytes() == (
            b"step,wallclock_seconds,train_loss,eval_loss,learning_rate,cond_ratio,reparam_event\r\n"
            b"0,0,2,2.1000000000000001,0.10000000000000001,1,1\r\n"
            b"50,1.5,1,1.2,0.10000000000000001,,0\r\n"
            b"100,3,0.5,0.69999999999999996,0.01,0.050000000000000003,0\r\n")

    def test_columns_are_the_row_fields(self, tmp_path):
        # the header is MetricsRow's field names in order, and a read row
        # equals the written one field for field
        assert COLUMNS == tuple(f.name for f in dataclasses.fields(MetricsRow))
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows_fixture())
        assert read_metrics(path) == rows_fixture()

    def test_header_mandatory(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows_fixture())
        first_line = path.read_text().splitlines()[0]
        assert first_line.startswith("step,wallclock_seconds,train_loss")


class TestParseErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MetricsParseError) as exc:
            read_metrics(path)
        assert exc.value.line == 1

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("step,loss\n1,2\n")
        with pytest.raises(MetricsParseError, match="unexpected header") as exc:
            read_metrics(path)
        assert exc.value.line == 1

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_metrics(path, rows_fixture())
        with open(path, "a") as fh:
            fh.write("not,a,valid,row\n")
        with pytest.raises(MetricsParseError) as exc:
            read_metrics(path)
        assert exc.value.line == 5

    def test_non_increasing_steps(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = rows_fixture()
        rows[2].step = 50
        write_metrics(path, rows)
        with pytest.raises(MetricsParseError):
            read_metrics(path)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-text"])
    def test_unreadable_file(self, tmp_path, kind):
        path = tmp_path / "metrics.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-text":
            path.write_bytes(b"\xff\xfe\x00step")
        with pytest.raises(MetricsParseError, match="metrics.csv") as exc:
            read_metrics(path)
        assert exc.value.line is None


# one character above csv's default field size limit
OVERSIZED_FIELD = "7" * (csv.field_size_limit() + 1)


def test_oversized_field_is_a_parse_error(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics(path, rows_fixture())
    with open(path, "a") as fh:
        fh.write(f"{OVERSIZED_FIELD},0,0,0,0,,0\n")
    with pytest.raises(MetricsParseError, match="field larger than field limit") as exc:
        read_metrics(path)
    assert exc.value.line == 5


def damaged_csv(draw, blob):
    """``blob``, a metrics file's bytes, truncated, with flipped bytes, or
    with a run of arbitrary text put in."""
    blob = bytearray(blob)
    damage = draw(st.sampled_from(["truncate", "flip", "insert"]))
    if damage == "truncate":
        return bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    if damage == "flip":
        for at in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            blob[at] ^= draw(st.integers(1, 255))
        return bytes(blob)
    at = draw(st.integers(0, len(blob)))
    text = draw(st.one_of(st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
                          st.just(OVERSIZED_FIELD))).encode()
    return bytes(blob[:at]) + text + bytes(blob[at:])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_metrics_file_loads_or_is_refused(tmp_path, data):
    # every outcome is rows of strictly increasing steps or a MetricsParseError
    path = tmp_path / "metrics.csv"
    write_metrics(path, rows_fixture())
    path.write_bytes(damaged_csv(data.draw, path.read_bytes()))
    try:
        rows = read_metrics(path)
    except MetricsParseError:
        return
    steps = [r.step for r in rows]
    assert steps == sorted(set(steps))
    assert all(isinstance(r.reparam_event, bool) for r in rows)
