"""Seeded workload inputs, written as gzip IDX files (the MNIST container).

The generators are the benchmark's own numpy code, so a change to
``whitenet.data`` never changes what the benchmark feeds the program. The
program reads the files through ``dataset.images``/``dataset.labels`` with
``kind: mnist10x10``: it crops the 4-pixel border of each 28x28 image and
2x2 average-pools the 20x20 centre, exactly as for real MNIST.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np

SIDE = 28
INNER = 10  # side of the downsampled image the network sees
# The image models (patterns, rotation, teacher) are fixed; the workload
# seed draws only the samples, so every seed poses the same problem.
MODEL_SEED = 20150701
# Autoencoder images: rank-4 sigmoid-squashed fields whose pattern scales span
# one decade, so whitening pays off and eval loss crosses the time-to-target
# line mid-run.
AE_LATENT_DIM = 4
AE_DECADES = 1.0
AE_CONTRAST = 8.0
AE_NOISE = 0.01
# Conditioning images: full-rank Gaussian, eigenvalue k of the pixel
# covariance proportional to k**-COND_DECAY.
COND_DECAY = 1.0
COND_SCALE = 0.9


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> int:
    """Write uint8 images (n, 28, 28) and labels (n,) as gzip IDX; returns
    the number of uncompressed bytes."""
    n = images.shape[0]
    img = struct.pack(">IIII", 0x00000803, n, SIDE, SIDE) + images.astype(np.uint8).tobytes()
    lab = struct.pack(">II", 0x00000801, n) + labels.astype(np.uint8).tobytes()
    # mtime=0 keeps the files byte-identical for a given seed
    with open(images_path, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
        gz.write(img)
    with open(labels_path, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
        gz.write(lab)
    return len(img) + len(lab)


def _embed(inner: np.ndarray) -> np.ndarray:
    """(n, 10, 10) values in [0, 1] -> (n, 28, 28) uint8 images whose 2x2
    blocks repeat each inner pixel inside a black 4-pixel border."""
    n = inner.shape[0]
    pixels = np.rint(np.clip(inner, 0.0, 1.0) * 255.0).astype(np.uint8)
    out = np.zeros((n, SIDE, SIDE), dtype=np.uint8)
    out[:, 4:24, 4:24] = pixels.repeat(2, axis=1).repeat(2, axis=2)
    return out


def autoencoder_images(n: int, seed: int):
    """Low-rank, ill-conditioned images for the autoencoder workloads.

    Each image is a sigmoid-squashed sum of ``AE_LATENT_DIM`` smooth bump
    patterns over the 20x20 centre, with per-pattern scales spanning
    ``AE_DECADES`` orders of magnitude, plus a little pixel noise. Labels are
    uniform digits; the autoencoder never reads them."""
    rng = np.random.default_rng([MODEL_SEED, 1])
    yy, xx = np.mgrid[0:INNER, 0:INNER]
    basis = np.empty((INNER * INNER, AE_LATENT_DIM))
    for j in range(AE_LATENT_DIM):
        cy, cx = rng.uniform(0, INNER - 1, size=2)
        width = rng.uniform(INNER / 8.0, INNER / 2.0)
        bump = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))).ravel()
        bump -= bump.mean()
        basis[:, j] = bump / np.linalg.norm(bump) * rng.choice([-1.0, 1.0])
    k = np.arange(AE_LATENT_DIM)
    scales = AE_CONTRAST * 10.0 ** (-AE_DECADES * k / (AE_LATENT_DIM - 1))
    rng = np.random.default_rng([seed, 1])
    coeff = rng.standard_normal((n, AE_LATENT_DIM))
    fields = coeff @ (basis * scales).T + AE_NOISE * rng.standard_normal((n, INNER * INNER))
    inner = 1.0 / (1.0 + np.exp(-fields))
    labels = rng.integers(0, 10, size=n)
    return _embed(inner.reshape(n, INNER, INNER)), labels


def conditioning_images(n: int, seed: int):
    """Full-rank images with a decaying spectrum for the conditioning run.

    The 10x10 centre is Gaussian with covariance Q diag(k^-COND_DECAY) Q^T for a
    seeded rotation Q, shifted to mid-grey. A seeded linear teacher on the
    downsampled pixels the network sees picks the digit: 5-9 on its positive
    side, 0-4 on the other, so the binary task is exactly learnable."""
    model = np.random.default_rng([MODEL_SEED, 2])
    dim = INNER * INNER
    q, _ = np.linalg.qr(model.standard_normal((dim, dim)))
    teacher = model.standard_normal(dim)
    lam = np.arange(1, dim + 1, dtype=np.float64) ** (-COND_DECAY)
    rng = np.random.default_rng([seed, 2])
    z = rng.standard_normal((n, dim)) * np.sqrt(lam)
    inner = 0.5 + COND_SCALE * (z @ q.T)
    images = _embed(inner.reshape(n, INNER, INNER))
    seen = images[:, 4:24:2, 4:24:2].reshape(n, dim).astype(np.float64) / 255.0
    side = (seen - seen.mean(axis=0)) @ teacher > 0
    labels = np.where(side, rng.integers(5, 10, size=n), rng.integers(0, 5, size=n))
    return images, labels
