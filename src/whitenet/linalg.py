"""Dense symmetric linear algebra for whitening.

Everything runs in float64 on row-major numpy arrays. Eigendecompositions
come from LAPACK (``np.linalg.eigh``) in descending order, and spectra that
need no eigenvectors from ``np.linalg.eigvalsh``. Whitening is rank-aware:
from the range (lam_r, E_r) of a sample covariance Sigma, which
``covariance_range`` takes from the sample in one call, the
preconditioner of a whitened slot is

    P = (Sigma + eps I)^-1 = a I + E_r diag((lam_r + eps)^-1 - a) E_r^T,

with a = 1/eps when E_r spans fewer than all d directions and a = 0 when it
is complete. P = U^T U for the slot's whitening matrix U, and the ZCA one,
P^1/2, is formed from P only where whitened coordinates are read. A sample
of N < d rows takes its range from the N x N Gram matrix, so no d x d
covariance or eigendecomposition is made.
"""

from __future__ import annotations

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


def estimate_moments(samples):
    """(mean, M, X) of a sample of N rows of width d, 1/N normalization:
    M is the smaller second-moment matrix of the centered rows X, the
    covariance X^T X / N when d <= N (X is then None), else the Gram
    matrix X X^T / N, with X, which carries the Gram eigenvectors to the
    covariance's."""
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
        return mean, d.T @ d / n, None
    return mean, d @ d.T / n, d


def covariance_range(samples):
    """(mean, spectrum, E_r) of a sample's covariance Sigma: the spectrum
    is Sigma's d eigenvalues, descending, with those at or below
    ``COND_FLOOR`` times the largest counted as 0, and E_r holds the
    orthonormal eigenvectors of the r above it. Both come from ``sym_eig``
    of ``estimate_moments``' matrix; Gram eigenvectors Q_r map to
    E_r = X^T Q_r / sqrt(N lam_r)."""
    mean, m, centered = estimate_moments(samples)
    eigenvalues, eigenvectors = sym_eig(m)
    lam = eigenvalues[:np.count_nonzero(eigenvalues > COND_FLOOR * max(eigenvalues[0], 0.0))]
    e = eigenvectors[:, :lam.size]
    if centered is not None:
        e = centered.T @ (e / np.sqrt(len(centered) * lam))
    return mean, np.pad(lam, (0, mean.size - lam.size)), e


def preconditioner(spectrum, e, epsilon: float) -> np.ndarray:
    """P = (Sigma + eps I)^-1 from the spectrum and E_r of a
    ``covariance_range``, in closed form:
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
