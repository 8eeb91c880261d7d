import pytest

from whitenet.errors import MetricsParseError
from whitenet.metrics import MetricsRow, read_metrics, write_metrics


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
