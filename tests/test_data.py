import gzip
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from whitenet import data
from whitenet.data import (
    BatchPlan,
    Dataset,
    downsample,
    load_idx,
    next_batch,
    split_train_val,
    synthetic_classification,
    synthetic_gaussian,
    synthetic_images,
)
from whitenet.errors import DimensionError, IdxFormatError, NumericError


def write_idx_pair(tmp_path, images, labels, *, gz=False, images_magic=0x803, labels_magic=0x801):
    """Test-suite IDX writer: the independent side of the read/write oracle."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_blob = struct.pack(">IIII", images_magic, n, rows, cols) + images.tobytes()
    lab_blob = struct.pack(">II", labels_magic, len(labels)) + bytes(labels)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    if gz:
        img_blob = gzip.compress(img_blob)
        lab_blob = gzip.compress(lab_blob)
    ip.write_bytes(img_blob)
    lp.write_bytes(lab_blob)
    return ip, lp


class TestLoadIdx:
    def test_round_trip_two_images(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(2, 28, 28)).astype(np.uint8)
        ip, lp = write_idx_pair(tmp_path, imgs, [3, 7])
        ds = load_idx(ip, lp)
        assert ds.inputs.shape == (2, 784)
        np.testing.assert_array_equal(ds.inputs * 255.0, imgs.reshape(2, 784))
        assert ds.targets.shape == (2, 10)
        assert ds.targets[0, 3] == 1.0 and ds.targets[1, 7] == 1.0
        assert ds.targets.sum() == 2.0

    @pytest.mark.parametrize("side", [28, 10])
    def test_dataset_is_what_validated_construction_builds(self, tmp_path, side):
        # load_idx skips the checks of __post_init__: its arrays must pass them
        imgs = np.random.default_rng(4).integers(0, 256, size=(3, 28, 28)).astype(np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, imgs, [0, 9, 4]), side=side)
        ref = Dataset(ds.inputs, ds.targets, name=ds.name)
        assert type(ds) is Dataset and ds.name == ref.name
        for got, want in ((ds.inputs, ref.inputs), (ds.targets, ref.targets)):
            assert got.dtype == np.float64 and got.ndim == 2
            assert np.array_equal(got, want)

    def test_gzip_transparent(self, tmp_path):
        imgs = np.zeros((1, 28, 28), dtype=np.uint8)
        imgs[0, 5, 5] = 255
        ip, lp = write_idx_pair(tmp_path, imgs, [1], gz=True)
        ds = load_idx(ip, lp)
        assert ds.inputs[0].max() == 1.0

    def test_bad_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0],
                                images_magic=0x999)
        with pytest.raises(IdxFormatError) as exc:
            load_idx(ip, lp)
        assert exc.value.offset == 0

    def test_truncated_reports_offset(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 4, 4), dtype=np.uint8), [0, 1])
        blob = ip.read_bytes()
        ip.write_bytes(blob[:-5])
        with pytest.raises(IdxFormatError) as exc:
            load_idx(ip, lp)
        assert exc.value.offset == len(blob) - 5

    def test_count_mismatch(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1, 1])
        with pytest.raises(IdxFormatError) as exc:
            load_idx(ip, lp)
        assert exc.value.offset == 4

    def test_zero_pixel_header_refused_before_decoding(self, tmp_path, monkeypatch):
        # 2^32 - 1 images of 0x28 pixels: a 16-byte file whose payload check
        # passes; nothing may be decoded before the refusal
        def no_decode(*args):
            raise AssertionError("_decode called before the header was refused")

        monkeypatch.setattr(data, "_decode", no_decode)
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        ip.write_bytes(struct.pack(">IIII", 0x803, 2**32 - 1, 0, 28))
        with pytest.raises(IdxFormatError, match="0x28") as exc:
            load_idx(ip, lp)
        assert exc.value.offset == 8

    def test_corrupt_gzip_is_a_format_error(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0], gz=True)
        blob = ip.read_bytes()
        ip.write_bytes(blob[:12])  # cut inside the deflate stream
        with pytest.raises(IdxFormatError, match="gzip") as exc:
            load_idx(ip, lp)
        assert exc.value.offset == 0

    def test_unopenable_path_names_no_offset(self, tmp_path):
        # no byte of any file was read, so the error carries no offset
        _, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        missing = tmp_path / "absent.idx"
        with pytest.raises(IdxFormatError) as exc:
            load_idx(missing, lp)
        assert exc.value.offset is None
        assert str(exc.value) == f"cannot read {missing}: No such file or directory"


class TestLoadIdxSide10:
    @pytest.mark.parametrize("count, block", [(20, 7), (1, 7), (14, 7), (600, None), (0, 7)])
    def test_bitwise_equal_to_downsampling_the_full_load(self, tmp_path, monkeypatch,
                                                         count, block):
        if block is not None:  # row blocks that do not divide the count
            monkeypatch.setattr(data, "DOWNSAMPLE_BLOCK", block)
        rng = np.random.default_rng(count)
        imgs = rng.integers(0, 256, size=(count, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=count).tolist()
        ip, lp = write_idx_pair(tmp_path, imgs, labels)
        full = load_idx(ip, lp)
        small = load_idx(ip, lp, side=10)
        assert small.inputs.shape == (count, 100)
        assert np.array_equal(small.inputs.view(np.int64),
                              downsample(full.inputs).view(np.int64))
        assert np.array_equal(small.targets, full.targets)
        assert (full.name, small.name) == ("idx", "idx-10x10")

    def test_needs_28x28_images(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 4, 4), dtype=np.uint8), [0, 1])
        with pytest.raises(IdxFormatError, match="28x28") as exc:
            load_idx(ip, lp, side=10)
        assert exc.value.offset == 8

    def test_other_sides_refused(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), [0])
        with pytest.raises(DimensionError):
            load_idx(ip, lp, side=14)


class TestDownsample:
    def _image_rows(self, img):
        return np.asarray(img, dtype=np.float64).reshape(1, 784)

    def test_constant_image_preserved(self):
        out = downsample(self._image_rows(np.ones((28, 28))))
        assert out.shape == (1, 100)
        np.testing.assert_allclose(out, 1.0)

    def test_single_lit_pixel_pools_to_quarter(self):
        img = np.zeros((28, 28))
        img[10, 11] = 1.0  # inside the crop
        grid = downsample(self._image_rows(img)).reshape(10, 10)
        # cropped coords (6, 7) -> pooled cell (3, 3)
        assert grid[3, 3] == pytest.approx(0.25)
        assert grid.sum() == pytest.approx(0.25)

    def test_border_cropped_losslessly(self):
        img = np.zeros((28, 28))
        img[:4, :] = 1.0
        img[:, :4] = 1.0
        img[24:, :] = 1.0
        img[:, 24:] = 1.0
        np.testing.assert_allclose(downsample(self._image_rows(img)), 0.0)

    def test_contractive(self):
        rng = np.random.default_rng(1)
        flat = rng.uniform(0, 1, size=(5, 784))
        out = downsample(flat)
        assert out.max() <= flat.max() + 1e-12
        assert out.min() >= flat.min() - 1e-12

    def test_wrong_dim(self):
        with pytest.raises(DimensionError):
            downsample(np.zeros((1, 100)))


class TestSyntheticGaussian:
    def test_monte_carlo_identity_covariance(self):
        ds = synthetic_gaussian(10_000, 4, mean=0.0, covariance=np.eye(4), seed=3)
        cov = np.cov(ds.inputs.T, bias=True)
        assert np.abs(cov - np.eye(4)).max() < 0.1

    def test_seed_determinism(self):
        a = synthetic_gaussian(50, 3, 1.0, np.eye(3), seed=5)
        b = synthetic_gaussian(50, 3, 1.0, np.eye(3), seed=5)
        assert np.array_equal(a.inputs, b.inputs)

    def test_first_rows_stable_across_n(self):
        a = synthetic_gaussian(1, 3, 0.0, np.eye(3), seed=9)
        b = synthetic_gaussian(6, 3, 0.0, np.eye(3), seed=9)
        np.testing.assert_array_equal(a.inputs[0], b.inputs[0])

    def test_seeded_draw_keeps_its_bits(self):
        # a non-diagonal covariance whose LAPACK eigenvectors include one
        # with a negative leading component; the root E sqrt(lam) E^T does
        # not depend on the signs, so the draw is the same bit for bit
        cov = np.array([[2.0, 0.6, 0.0, 0.1], [0.6, 1.0, -0.3, 0.0],
                        [0.0, -0.3, 0.5, 0.2], [0.1, 0.0, 0.2, 0.8]])
        ds = synthetic_gaussian(3, 4, [1.0, -2.0, 0.5, 0.0], cov, seed=7)
        assert ds.inputs.view(np.int64).tolist() == [
            [4607343372966320222, -4613166099301084470, 4594394871578592888, -4617807000719126348],
            [4595273705665869648, -4609303211412248283, 4606207437257906048, 4607930423276638159],
            [4595691442748479040, -4609873037860855898, 4607009597149167863, 4600039670476844248],
        ]

    def test_non_psd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError):
            synthetic_gaussian(10, 2, 0.0, bad, seed=0)


class TestSyntheticImages:
    def test_range_and_determinism(self):
        a = synthetic_images(64, 10, seed=21)
        b = synthetic_images(64, 10, seed=21)
        assert np.array_equal(a.inputs, b.inputs)
        assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0
        assert a.inputs.shape == (64, 100)

    def test_covariance_is_ill_conditioned(self):
        ds = synthetic_images(800, 10, seed=22)
        cov = np.cov(ds.inputs.T, bias=True)
        lam = np.linalg.eigvalsh(cov)
        assert lam.max() / np.maximum(lam.min(), 1e-18) > 1e3


class TestBatching:
    def _dataset(self, n=10, dim=3):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, dim))
        return Dataset(x, x.copy())

    def test_full_batch_identity(self):
        ds = self._dataset(8)
        plan = BatchPlan(seed=1, batch_size=8)
        batch = next_batch(ds, plan)
        assert sorted(batch.inputs.tolist()) == sorted(ds.inputs.tolist())

    def test_same_seed_same_sequence(self):
        ds = self._dataset(10)
        seqs = []
        for _ in range(2):
            plan = BatchPlan(seed=7, batch_size=3)
            seqs.append([next_batch(ds, plan).inputs.tolist() for _ in range(8)])
        assert seqs[0] == seqs[1]

    def test_epoch_covers_dataset_exactly_once(self):
        ds = self._dataset(10)
        plan = BatchPlan(seed=2, batch_size=3)
        seen = []
        for _ in range(4):  # 3+3+3+1 covers one epoch
            seen.extend(map(tuple, next_batch(ds, plan).inputs.tolist()))
        assert sorted(seen) == sorted(map(tuple, ds.inputs.tolist()))
        assert len(seen) == 10

    def test_epochs_reshuffle(self):
        ds = self._dataset(32)
        plan = BatchPlan(seed=3, batch_size=32)
        first = next_batch(ds, plan).inputs.tolist()
        second = next_batch(ds, plan).inputs.tolist()
        assert first != second  # overwhelmingly likely for 32!


class TestTake:
    def test_take_matches_validated_construction(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.standard_normal((12, 4)), rng.standard_normal((12, 2)), name="d")
        idx = np.array([5, 0, 11, 5])
        sub = ds.take(idx)
        ref = Dataset(ds.inputs[idx], ds.targets[idx], name="d")
        assert type(sub) is Dataset
        assert np.array_equal(sub.inputs, ref.inputs)
        assert np.array_equal(sub.targets, ref.targets)
        assert sub.name == ref.name
        assert sub.inputs.dtype == sub.targets.dtype == np.float64
        assert sub.inputs.ndim == sub.targets.ndim == 2
        sub.inputs[0, 0] = 99.0  # fancy indexing copies the rows
        assert ds.inputs[5, 0] != 99.0

    def test_construction_still_validates(self):
        with pytest.raises(NumericError, match="non-finite"):
            Dataset(np.array([[0.0, np.nan]]), np.zeros((1, 1)))
        with pytest.raises(NumericError, match="non-finite"):
            Dataset(np.zeros((1, 2)), np.array([[np.inf]]))
        with pytest.raises(DimensionError):
            Dataset(np.zeros(3), np.zeros((3, 1)))
        with pytest.raises(DimensionError):
            Dataset(np.zeros((3, 2)), np.zeros((2, 1)))


class TestSharedTargets:
    def test_autoencoder_generators_share_one_array(self):
        for ds in (synthetic_images(20, 4, seed=1),
                   synthetic_gaussian(20, 3, 0.0, np.eye(3), seed=2)):
            assert ds.targets is ds.inputs

    def test_take_and_split_keep_the_sharing(self):
        ds = synthetic_images(40, 4, seed=3)
        sub = ds.take(np.array([3, 1, 3]))
        assert sub.targets is sub.inputs
        assert np.array_equal(sub.inputs, ds.inputs[[3, 1, 3]])
        train, val = split_train_val(ds, 10, seed=4)
        for part in (train, val):
            assert part.targets is part.inputs

    def test_construction_keeps_and_checks_a_shared_array(self):
        x = [[0.0, 1.0], [2.0, 3.0]]
        ds = Dataset(x, x)  # converted once, still one array
        assert ds.targets is ds.inputs and ds.inputs.dtype == np.float64
        bad = np.array([[0.0, np.nan]])
        with pytest.raises(NumericError, match="non-finite"):
            Dataset(bad, bad)


class TestSplit:
    def test_split_sizes_and_disjoint(self):
        ds = synthetic_gaussian(100, 2, 0.0, np.eye(2), seed=1)
        train, val = split_train_val(ds, 25, seed=4)
        assert train.n == 75 and val.n == 25
        all_rows = {tuple(r) for r in ds.inputs.tolist()}
        got = {tuple(r) for r in train.inputs.tolist()} | {
            tuple(r) for r in val.inputs.tolist()
        }
        assert got == all_rows

    def test_deterministic(self):
        ds = synthetic_gaussian(50, 2, 0.0, np.eye(2), seed=1)
        t1, v1 = split_train_val(ds, 10, seed=5)
        t2, v2 = split_train_val(ds, 10, seed=5)
        assert np.array_equal(t1.inputs, t2.inputs)
        assert np.array_equal(v1.inputs, v2.inputs)


def test_classification_labels_deterministic():
    a = synthetic_classification(200, 10, seed=6)
    b = synthetic_classification(200, 10, seed=6)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert set(np.unique(a.targets)) <= {0.0, 1.0}


# any value of a count or dimension word: small, the MNIST side, and far
# beyond what any file holds
HEADER_WORDS = st.one_of(st.integers(0, 40), st.sampled_from([784, 60000, 2**31, 2**32 - 1]))


def damaged_idx(draw, blob, words):
    """``blob``, an IDX file's bytes with ``words`` 4-byte header words,
    truncated, with flipped bytes, or with a count or dimension word
    replaced; gzip-compressed or not."""
    blob = bytearray(blob)
    damage = draw(st.sampled_from(["truncate", "flip", "header"]))
    if damage == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif damage == "flip":
        for at in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            blob[at] ^= draw(st.integers(1, 255))
    else:
        struct.pack_into(">I", blob, 4 * draw(st.integers(1, words - 1)), draw(HEADER_WORDS))
    return gzip.compress(bytes(blob), mtime=0) if draw(st.booleans()) else bytes(blob)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_idx_pair_loads_or_is_refused(tmp_path, data):
    # every outcome is a finite dataset of one row per label, or an IdxFormatError
    pixels = np.random.default_rng(4).integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, pixels, [1, 7, 9])
    target = data.draw(st.sampled_from(["images", "labels", "both"]))
    if target != "labels":
        ip.write_bytes(damaged_idx(data.draw, ip.read_bytes(), 4))
    if target != "images":
        lp.write_bytes(damaged_idx(data.draw, lp.read_bytes(), 2))
    side = data.draw(st.sampled_from([10, 28]))
    try:
        ds = load_idx(ip, lp, side=side)
    except IdxFormatError:
        return
    assert ds.inputs.shape[0] == ds.targets.shape[0] and ds.targets.shape[1] == 10
    assert np.isfinite(ds.inputs).all() and ((0 <= ds.inputs) & (ds.inputs <= 1)).all()
    assert (ds.targets.sum(axis=1) == 1).all()
