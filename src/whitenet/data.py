"""Dataset ingestion and synthesis.

IDX files (the MNIST container format) are parsed with strict header
validation; gzip-compressed files are decompressed transparently. Synthetic
generators produce seeded, bit-reproducible datasets for hermetic tests and
for running the experiment presets without the MNIST files on disk.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (ConfigError, DegenerateSpectrumError, DimensionError, IdxFormatError,
                     NumericError)

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
DOWNSAMPLE_BLOCK = 128  # rows per float64 conversion in load_idx, at either side
DATASET_KINDS = ("synthetic_images", "synthetic_classification", "mnist", "mnist10x10")
MNIST_KINDS = ("mnist", "mnist10x10")


@dataclass
class DatasetConfig:
    """The ``dataset`` section. An MNIST kind reads the ``images`` and
    ``labels`` IDX files; ``n``, ``dim`` and ``spectrum_decay`` size the
    synthetic kinds, ``side`` the ``synthetic_images`` kind (an MNIST
    kind's synthetic fallback takes its kind's side). ``n_classes`` is 10,
    MNIST's digits, for every kind; an MNIST kind takes 2 (digits 5-9
    against 0-4) or 10. A value that breaks its rule is refused by name."""

    kind: str
    n: int = 4096
    dim: int = 16
    side: int = 10
    n_classes: int = 10
    spectrum_decay: float = 1.0
    seed: int = 0
    val_size: int = 0
    images: str = ""
    labels: str = ""
    autoencode: bool = False
    fallback_synthetic: bool = False

    def __post_init__(self):
        mnist = self.kind in MNIST_KINDS
        ConfigError.check("dataset", {
            "kind": (self.kind in DATASET_KINDS, f"one of {', '.join(DATASET_KINDS)}"),
            "n": (self.n >= 1, "an integer >= 1"),
            "dim": (self.dim >= 1, "an integer >= 1"),
            "side": (self.side >= 1, "an integer >= 1"),
            "n_classes": (self.n_classes in (2, 10) if mnist else self.n_classes >= 2,
                          "2 or 10 for an MNIST kind" if mnist else "an integer >= 2"),
            "seed": (self.seed >= 0, "an integer >= 0"),
            "val_size": (self.val_size >= 0, "an integer >= 0"),
        })


@dataclass
class Dataset:
    """Named rows of inputs and targets. An autoencoder's targets are its
    inputs array itself (``targets is inputs``): one array, never a copy.
    Nothing writes into a dataset's arrays, and its row subsets (``take``)
    keep its name."""

    inputs: np.ndarray  # (n, features)
    targets: np.ndarray  # (n, target_dim); the inputs array for autoencoding
    name: str = ""

    def __post_init__(self):
        shared = self.targets is self.inputs
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = self.inputs if shared else np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise DimensionError("inputs and targets must be 2-D row stacks")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DimensionError(
                f"row count mismatch: {self.inputs.shape[0]} inputs vs "
                f"{self.targets.shape[0]} targets"
            )
        if not (np.isfinite(self.inputs).all()
                and (shared or np.isfinite(self.targets).all())):
            raise NumericError("dataset contains non-finite values")

    @property
    def n(self):
        return self.inputs.shape[0]

    @classmethod
    def _unchecked(cls, inputs, targets, name):
        """A dataset of float64 arrays already known to be 2-D, row-matched
        and finite, built without the checks of ``__post_init__``."""
        ds = object.__new__(cls)
        ds.inputs, ds.targets, ds.name = inputs, targets, name
        return ds

    def take(self, indices):
        """The rows ``indices`` (a 1-D index array, slice or mask) as a new
        dataset, with shared targets kept shared. A row subset of a
        validated dataset is 2-D and finite, so it skips the checks of
        ``__post_init__``."""
        inputs = self.inputs[indices]
        targets = inputs if self.targets is self.inputs else self.targets[indices]
        return self._unchecked(inputs, targets, self.name)


def _read_file(path):
    """The bytes of an IDX file, gunzipped when they are gzip. A path that
    cannot be opened is an IdxFormatError with no offset; a corrupt gzip
    stream is one at offset 0."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IdxFormatError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            try:
                with gzip.open(fh) as gz:
                    return gz.read()
            except (OSError, EOFError, zlib.error) as exc:
                raise IdxFormatError(f"corrupt gzip stream: {exc}", 0) from None
        return fh.read()


def _read_be_u32(buf, offset, what):
    if offset + 4 > len(buf):
        raise IdxFormatError(f"truncated file while reading {what}", offset)
    return struct.unpack_from(">I", buf, offset)[0]


def _decode(pixels, side):
    """uint8 pixel rows scaled to [0, 1] in float64, through ``downsample``
    for side 10, converted ``DOWNSAMPLE_BLOCK`` rows at a time into the one
    output array. Each row block is dropped on return, before the caller
    builds the dataset."""
    inputs = np.empty((pixels.shape[0], pixels.shape[1] if side == 28 else 100))
    for start in range(0, pixels.shape[0], DOWNSAMPLE_BLOCK):
        block = pixels[start : start + DOWNSAMPLE_BLOCK].astype(np.float64)
        block /= 255.0
        inputs[start : start + DOWNSAMPLE_BLOCK] = block if side == 28 else downsample(block)
    return inputs


def load_idx(images_path, labels_path, *, classes: int = 10, side: int = 28) -> Dataset:
    """Parse an IDX image/label file pair into a dataset.

    Pixels are scaled to [0, 1]; labels become one-hot rows. ``side=28``
    keeps the images at the file's own resolution. ``side=10`` needs 28x28
    images and returns them through ``downsample``. Either way the pixels
    are decoded a row block at a time (``_decode``), so no second full-size
    float array ever exists. Pixels decoded from uint8 are finite, so the
    dataset is built without the payload-sized mask of a finiteness check.
    Malformed headers, truncated payloads, and image/label count mismatches
    raise IdxFormatError with the failing byte offset.
    """
    if side not in (10, 28):
        raise DimensionError(f"load_idx side must be 10 or 28, got {side}")
    img = _read_file(images_path)
    magic = _read_be_u32(img, 0, "images magic")
    if magic != IMAGES_MAGIC:
        raise IdxFormatError(f"bad images magic 0x{magic:08x}", 0)
    count = _read_be_u32(img, 4, "image count")
    rows = _read_be_u32(img, 8, "image rows")
    cols = _read_be_u32(img, 12, "image cols")
    if rows * cols == 0:  # refused before count empty rows are decoded
        raise IdxFormatError(f"images of {rows}x{cols} hold no pixels", 8)
    payload = count * rows * cols
    if len(img) != 16 + payload:
        raise IdxFormatError(
            f"images payload is {len(img) - 16} bytes, header promises {payload}",
            min(len(img), 16 + payload),
        )
    if side == 10 and rows * cols != 784:
        raise IdxFormatError(f"side=10 needs 28x28 images, file has {rows}x{cols}", 8)
    pixels = np.frombuffer(img, dtype=np.uint8, count=payload, offset=16)
    pixels = pixels.reshape(count, rows * cols)
    inputs = _decode(pixels, side)

    lab = _read_file(labels_path)
    magic = _read_be_u32(lab, 0, "labels magic")
    if magic != LABELS_MAGIC:
        raise IdxFormatError(f"bad labels magic 0x{magic:08x}", 0)
    lcount = _read_be_u32(lab, 4, "label count")
    if lcount != count:
        raise IdxFormatError(f"{lcount} labels for {count} images", 4)
    if len(lab) != 8 + lcount:
        raise IdxFormatError(
            f"labels payload is {len(lab) - 8} bytes, header promises {lcount}",
            min(len(lab), 8 + lcount),
        )
    labels = np.frombuffer(lab, dtype=np.uint8, count=lcount, offset=8)
    if labels.size and labels.max() >= classes:
        raise IdxFormatError(f"label {labels.max()} out of range for {classes} classes", 8)
    targets = np.zeros((count, classes))
    targets[np.arange(count), labels] = 1.0
    return Dataset._unchecked(inputs, targets, "idx" if side == 28 else "idx-10x10")


def downsample(images) -> np.ndarray:
    """(n, 784) rows of 28x28 images -> (n, 100) rows of 10x10: crop the
    4-pixel border to 20x20, then 2x2 average-pool. Linear, contractive,
    and the identity on constants."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2 or images.shape[1] != 784:
        raise DimensionError(f"downsample expects (n, 784) image rows, got {images.shape}")
    crop = images.reshape(-1, 28, 28)[:, 4:24, 4:24]
    return crop.reshape(-1, 10, 2, 10, 2).mean(axis=(2, 4)).reshape(-1, 100)


def synthetic_gaussian(n, dim, mean, covariance, seed) -> Dataset:
    """Seeded draws from N(mean, covariance); the targets are the inputs.

    ``covariance`` is a full dim x dim PSD matrix; ``mean`` broadcasts to
    dim. Rows are mean + S z for the principal square root S = E
    diag(sqrt(lam)) E^T of the covariance. S is unique, so the draws depend
    only on (covariance, seed), not on the eigenvector signs or the order of
    tied eigenvalues a LAPACK build returns; and the first rows of draws
    with the same seed agree regardless of n.
    """
    mean = np.broadcast_to(np.asarray(mean, dtype=np.float64), (dim,))
    cov = np.asarray(covariance, dtype=np.float64)
    if cov.shape != (dim, dim):
        raise DimensionError(f"covariance must be {dim}x{dim}, got {cov.shape}")
    lam, e = linalg.sym_eig(cov)
    if lam.min() < -1e-10 * max(lam.max(), 1.0):
        raise DegenerateSpectrumError("covariance spec is not PSD")
    root = (e * np.sqrt(np.maximum(lam, 0.0))) @ e.T
    z = np.random.default_rng(seed).standard_normal((n, dim))
    inputs = mean + z @ root.T
    return Dataset(inputs, inputs, name="synthetic-gaussian")


def synthetic_images(
    n, side, seed, *, latent_dim=14, decades=2.0, contrast=8.0, noise=0.01
) -> Dataset:
    """Seeded high-contrast random images in [0, 1] whose content lives on a
    latent space with a geometrically decaying scale spectrum.

    Each latent direction is a smooth centered bump pattern; direction j
    carries scale contrast * 10^(-decades * j / (latent_dim-1)). Squashing
    through a sigmoid gives near-binary pixels. The resulting pixel
    covariance is strongly ill-conditioned, which makes reconstruction a
    conditioning-limited problem: first-order methods fit the dominant
    directions quickly and crawl on the tail, the regime where whitening
    the representation pays off. The targets are the inputs (autoencoding).
    """
    dim = side * side
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side]
    basis = np.empty((dim, latent_dim))
    for j in range(latent_dim):
        cy, cx = rng.uniform(0, side - 1, size=2)
        width = rng.uniform(side / 8.0, side / 2.0)
        bump = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))).ravel()
        bump -= bump.mean()
        basis[:, j] = bump / np.linalg.norm(bump) * rng.choice([-1.0, 1.0])
    scales = contrast * (10.0 ** (-decades * np.arange(latent_dim) / max(latent_dim - 1, 1)))
    coeff = rng.standard_normal((n, latent_dim))
    fields = coeff @ (basis * scales).T + noise * rng.standard_normal((n, dim))
    inputs = 1.0 / (1.0 + np.exp(-fields))
    return Dataset(inputs, inputs, name=f"synthetic-images-{side}x{side}")


def synthetic_classification(n, dim, seed, *, spectrum_decay=2.0, n_classes=2) -> Dataset:
    """Correlated Gaussian inputs labelled by a seeded linear teacher; the
    input covariance spectrum decays like k^-decay.

    Binary targets are a single {0,1} column (for sigmoid heads); with
    ``n_classes > 2`` targets are one-hot argmax rows of a teacher map."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = (np.arange(1, dim + 1, dtype=np.float64)) ** (-spectrum_decay)
    cov = (q * lam) @ q.T
    cov = (cov + cov.T) / 2.0
    mean = rng.standard_normal(dim) * 0.5
    base = synthetic_gaussian(n, dim, mean, cov, seed=seed + 1)
    if n_classes == 2:
        teacher = rng.standard_normal(dim)
        logits = (base.inputs - mean) @ teacher
        targets = (logits > 0).astype(np.float64)[:, None]
    else:
        teacher = rng.standard_normal((dim, n_classes))
        labels = ((base.inputs - mean) @ teacher).argmax(axis=1)
        targets = np.zeros((n, n_classes))
        targets[np.arange(n), labels] = 1.0
    return Dataset(base.inputs, targets, name="synthetic-classification")


@dataclass
class BatchPlan:
    """Without-replacement batching; the permutation is reshuffled each
    epoch and fully determined by (seed, epoch)."""

    seed: int
    batch_size: int
    epoch: int = 0
    cursor: int = 0
    _perm: np.ndarray | None = field(default=None, repr=False)

    def next_indices(self, n):
        if self._perm is None or self._perm.shape[0] != n:
            self._perm = self._permutation(n)
        if self.cursor >= n:
            self.epoch += 1
            self.cursor = 0
            self._perm = self._permutation(n)
        idx = self._perm[self.cursor : self.cursor + self.batch_size]
        self.cursor += self.batch_size
        return idx

    def _permutation(self, n):
        return np.random.default_rng([self.seed, self.epoch]).permutation(n)


def next_batch(dataset: Dataset, plan: BatchPlan) -> Dataset:
    return dataset.take(plan.next_indices(dataset.n))


def split_train_val(dataset: Dataset, val_size: int, seed: int):
    """Seeded shuffle, then the last ``val_size`` rows become validation."""
    if not 0 <= val_size < dataset.n:
        raise ConfigError(f"val_size {val_size} out of range for {dataset.n} rows")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    if val_size == 0:
        return dataset.take(perm), None
    return dataset.take(perm[:-val_size]), dataset.take(perm[-val_size:])
