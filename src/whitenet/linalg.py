"""Dense symmetric linear algebra for whitening.

Everything runs in float64 on row-major numpy arrays. Eigendecompositions
come from LAPACK (``np.linalg.eigh``) with a fixed ordering and sign
convention, and spectra that need no eigenvectors from ``np.linalg.eigvalsh``;
whitening matrices are PCA whitening, diag(lam + eps)^(-1/2) E^T, and
their inverses the closed form E diag(sqrt(lam + eps)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionError,
    InsufficientSamplesError,
    NumericError,
    SingularMatrixError,
)


COND_FLOOR = 1e-12  # condition_number's floor on lambda_min / lambda_max


@dataclass
class EigenDecomposition:
    """Spectrum of a symmetric matrix: eigenvalues descending, eigenvectors
    as matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class MomentEstimate:
    """Sample mean and centered covariance (population 1/N normalization)."""

    mean: np.ndarray
    covariance: np.ndarray
    sample_count: int


def _symmetrized(a) -> np.ndarray:
    """(A + A^T)/2 of a square, finite matrix that is symmetric up to 1e-9
    relative to its largest entry."""
    s = np.asarray(a, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NumericError("matrix contains non-finite entries")
    scale = float(np.abs(s).max()) if s.size else 0.0
    if scale > 0.0 and float(np.abs(s - s.T).max()) > 1e-9 * scale:
        raise ValueError("matrix is not symmetric within 1e-9 of its scale")
    return (s + s.T) / 2.0


def sym_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix via LAPACK (``np.linalg.eigh``).

    The input may be asymmetric up to 1e-9 relative to its largest entry; it
    is symmetrized as (A + A^T)/2 first. Eigenvalues come back descending
    (a stable sort, so ties keep LAPACK's order) and each eigenvector's sign
    is fixed so that its largest-magnitude component is positive.
    """
    lam, v = np.linalg.eigh(_symmetrized(a))
    order = np.argsort(-lam, kind="stable")
    lam, v = lam[order], v[:, order]
    if v.size:
        lead = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
        v = v * np.where(lead < 0.0, -1.0, 1.0)
    return EigenDecomposition(lam, v)


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, via LAPACK
    (``np.linalg.eigvalsh``): no eigenvectors are computed. The input is
    checked and symmetrized as for ``sym_eig``."""
    return np.linalg.eigvalsh(_symmetrized(a))[::-1]


def estimate_moments(samples) -> MomentEstimate:
    """Sample mean and centered covariance of row vectors.

    The covariance is E[(h - mu)(h - mu)^T] with 1/N normalization; it is
    exactly symmetric by construction.
    """
    try:
        x = np.asarray(samples, dtype=np.float64)
    except ValueError as exc:
        raise DimensionError(f"samples have inconsistent dimensions: {exc}") from exc
    if x.ndim != 2:
        raise DimensionError(f"expected a stack of row vectors, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("samples contain non-finite entries")
    n = x.shape[0]
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    mean = x.mean(axis=0)
    d = x - mean
    cov = d.T @ d / n
    cov = (cov + cov.T) / 2.0
    return MomentEstimate(mean, cov, n)


def _damped_roots(eig: EigenDecomposition, epsilon: float) -> np.ndarray:
    """sqrt(lam + eps) of a numerically PSD spectrum: the reciprocal gains
    of PCA whitening."""
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    lam = np.asarray(eig.eigenvalues, dtype=np.float64)
    lmax = float(lam[0]) if lam.size else 0.0
    if lam.size and float(lam[-1]) < -1e-8 * max(abs(lmax), 1.0):
        raise ValueError("spectrum is not numerically PSD")
    lam = np.maximum(lam, 0.0)
    if epsilon == 0.0 and (lmax <= 0.0 or float(lam[-1]) <= 1e-12 * lmax):
        raise SingularMatrixError(
            "covariance is numerically singular; whitening needs epsilon > 0"
        )
    return np.sqrt(lam + epsilon)


def pca_from_eig(eig: EigenDecomposition, epsilon: float) -> np.ndarray:
    """PCA whitening transform diag(lam + eps)^(-1/2) @ E^T from a precomputed
    spectrum."""
    return (1.0 / _damped_roots(eig, epsilon))[:, None] * eig.eigenvectors.T


def condition_number(spectrum, *, floor_ratio: float = COND_FLOOR) -> float:
    """lambda_max / lambda_min with the minimum floored at floor_ratio*lambda_max.

    Accepts an EigenDecomposition or a bare eigenvalue array.
    """
    lam = np.asarray(getattr(spectrum, "eigenvalues", spectrum), dtype=np.float64)
    if lam.size == 0:
        raise DegenerateSpectrumError("empty spectrum")
    lmax = float(lam.max())
    if lmax <= 0.0:
        raise DegenerateSpectrumError("spectrum has no positive eigenvalue")
    lmin = max(float(lam.min()), floor_ratio * lmax)
    return lmax / lmin


def invert_whitening(eig: EigenDecomposition, epsilon: float) -> np.ndarray:
    """Inverse of ``pca_from_eig(eig, epsilon)`` in closed form,
    E diag(sqrt(lam + eps)): E is orthogonal, so no general inverse is
    needed. Refuses what ``pca_from_eig`` refuses."""
    return eig.eigenvectors * _damped_roots(eig, epsilon)
