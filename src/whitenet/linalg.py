"""Dense symmetric linear algebra for whitening.

Everything runs in float64 on row-major numpy arrays. Eigendecompositions
come from LAPACK (``np.linalg.eigh``) in descending order, and spectra that
need no eigenvectors from ``np.linalg.eigvalsh``. Whitening is rank-aware:
from the range (lam_r, E_r) of a sample covariance Sigma, the
preconditioner of a whitened slot is

    P = (Sigma + eps I)^-1 = a I + E_r diag((lam_r + eps)^-1 - a) E_r^T,

with a = 1/eps when E_r spans fewer than all d directions and a = 0 when it
is complete. P = U^T U for the slot's whitening matrix U, and the ZCA one,
P^1/2, is formed from P only where whitened coordinates are read. A sample
of N < d rows takes its range from the N x N Gram matrix, so no d x d
covariance or eigendecomposition is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateSpectrumError,
    DimensionError,
    InsufficientSamplesError,
    NumericError,
    SingularMatrixError,
)


# condition_number's floor on lambda_min / lambda_max; eigenvalues at or
# below it times lambda_max are outside a covariance's range
COND_FLOOR = 1e-12


@dataclass
class MomentEstimate:
    """Sample mean and the smaller second-moment matrix of the centered
    sample X (N rows of width d, 1/N normalization): the covariance
    X^T X / N when d <= N, else the Gram matrix X X^T / N and X itself,
    which carries the Gram eigenvectors to the covariance's."""

    mean: np.ndarray
    covariance: np.ndarray | None = None
    gram: np.ndarray | None = None
    centered: np.ndarray | None = None


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
        raise ConsistencyError("matrix is not symmetric within 1e-9 of its scale")
    return (s + s.T) / 2.0


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a symmetric matrix via LAPACK
    (``np.linalg.eigh``): eigenvalues descending (a stable sort, so ties
    keep LAPACK's order), eigenvectors as matching orthonormal columns with
    LAPACK's signs.

    The input may be asymmetric up to 1e-9 relative to its largest entry; it
    is symmetrized as (A + A^T)/2 first.
    """
    lam, v = np.linalg.eigh(_symmetrized(a))
    order = np.argsort(-lam, kind="stable")
    return lam[order], v[:, order]


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, via LAPACK
    (``np.linalg.eigvalsh``): no eigenvectors are computed. The input is
    checked and symmetrized as for ``sym_eig``."""
    return np.linalg.eigvalsh(_symmetrized(a))[::-1]


def estimate_moments(samples) -> MomentEstimate:
    """Sample mean and the smaller second-moment matrix of the centered
    rows (see ``MomentEstimate``), exactly symmetric by construction."""
    try:
        x = np.asarray(samples, dtype=np.float64)
    except ValueError as exc:
        raise DimensionError(f"samples have inconsistent dimensions: {exc}") from exc
    if x.ndim != 2:
        raise DimensionError(f"expected a stack of row vectors, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("samples contain non-finite entries")
    n, dim = x.shape
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    mean = x.mean(axis=0)
    d = x - mean
    if dim <= n:
        cov = d.T @ d / n
        return MomentEstimate(mean, covariance=(cov + cov.T) / 2.0)
    gram = d @ d.T / n
    return MomentEstimate(mean, gram=(gram + gram.T) / 2.0, centered=d)


def covariance_range(mom: MomentEstimate, eigenvalues, eigenvectors):
    """The sample covariance's spectrum from ``sym_eig`` of ``mom``'s
    second-moment matrix: its d eigenvalues, descending, with those at or
    below ``COND_FLOOR`` times the largest counted as 0, and E_r, the
    orthonormal eigenvectors of the r above it. Gram eigenvectors Q_r map
    to E_r = X^T Q_r / sqrt(N lam_r)."""
    lam = eigenvalues[:np.count_nonzero(eigenvalues > COND_FLOOR * max(eigenvalues[0], 0.0))]
    e = eigenvectors[:, :lam.size]
    if mom.gram is not None:
        e = mom.centered.T @ (e / np.sqrt(len(mom.centered) * lam))
    return np.pad(lam, (0, mom.mean.size - lam.size)), e


def preconditioner(spectrum, e, epsilon: float) -> np.ndarray:
    """P = (Sigma + eps I)^-1 of a ``covariance_range`` in closed form,
    a I + E_r diag((lam_r + eps)^-1 - a) E_r^T with a = 1/eps when E_r is
    incomplete and 0 when it is not; no general inverse is formed. A
    complete range needs no eps, an incomplete one refuses eps = 0."""
    if epsilon < 0.0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon}")
    dim, r = e.shape
    if epsilon == 0.0 and r < dim:
        raise SingularMatrixError(
            "covariance is numerically singular; whitening needs epsilon > 0"
        )
    a = 1.0 / epsilon if r < dim else 0.0
    out = (e * (1.0 / (spectrum[:r] + epsilon) - a)) @ e.T
    out.flat[:: dim + 1] += a
    return out


def whitening_root(p) -> np.ndarray:
    """U = P^1/2, the symmetric root of a ``preconditioner`` P: the ZCA
    whitening matrix, with U Sigma U = Sigma (Sigma + eps I)^-1 on the
    covariance Sigma that P came from, and U^T U = P."""
    lam, e = sym_eig(p)
    return (e * np.sqrt(lam)) @ e.T


def condition_number(spectrum) -> float:
    """lambda_max / lambda_min of an eigenvalue array, with the minimum
    floored at COND_FLOOR * lambda_max."""
    lam = np.asarray(spectrum, dtype=np.float64)
    if lam.size == 0:
        raise DegenerateSpectrumError("empty spectrum")
    lmax = float(lam.max())
    if lmax <= 0.0:
        raise DegenerateSpectrumError("spectrum has no positive eigenvalue")
    lmin = max(float(lam.min()), COND_FLOOR * lmax)
    return lmax / lmin
