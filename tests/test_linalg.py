import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitenet.errors import (
    DegenerateSpectrumError,
    DimensionError,
    InsufficientSamplesError,
    NumericError,
    SingularMatrixError,
)
from whitenet.linalg import (
    MomentEstimate,
    condition_number,
    covariance_range,
    estimate_moments,
    preconditioner,
    sym_eig,
    sym_eigvals,
    whitening_root,
)


def random_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


class TestSymEig:
    def test_identity(self):
        lam, v = sym_eig(np.eye(3))
        np.testing.assert_allclose(lam, np.ones(3))
        np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        lam, v = sym_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(lam, [4.0, 1.0])
        # eigenvectors equal identity columns up to sign
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_reconstruction_random_5x5(self):
        a = random_symmetric(5, seed=7)
        lam, v = sym_eig(a)
        rec = v @ np.diag(lam) @ v.T
        assert np.abs(rec - a).max() < 1e-8 * max(np.abs(a).max(), 1.0)

    def test_descending_order(self):
        lam, _ = sym_eig(random_symmetric(12, seed=3))
        assert np.all(np.diff(lam) <= 0)

    def test_deterministic(self):
        a = random_symmetric(9, seed=11)
        for first, second in zip(sym_eig(a.copy()), sym_eig(a.copy())):
            assert np.array_equal(first, second)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            sym_eig(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            sym_eig(a)

    def test_non_finite_rejected(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(NumericError):
            sym_eig(a)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10_000))
    def test_orthonormality_and_reconstruction(self, n, seed):
        a = random_symmetric(n, seed=seed)
        lam, v = sym_eig(a)
        orth = np.abs(v.T @ v - np.eye(n)).max()
        assert orth <= 1e-10
        rec = v @ np.diag(lam) @ v.T
        assert np.abs(rec - a).max() <= 1e-8 * max(np.abs(a).max(), 1.0)


class TestSymEigvals:
    @pytest.mark.parametrize("rank", [12, 5, 1])
    def test_matches_sym_eig_eigenvalues(self, rank):
        # full rank, and rank-deficient PSD Gram matrices whose trailing
        # eigenvalues are rounding noise around zero
        if rank == 12:
            a = random_symmetric(12, seed=21)
        else:
            g = np.random.default_rng(22).standard_normal((rank, 12))
            a = g.T @ g
        lam = sym_eigvals(a)
        expected = sym_eig(a)[0]
        assert lam.shape == expected.shape
        assert np.all(np.diff(lam) <= 0)
        assert np.abs(lam - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("a, error", [
        (np.ones((2, 3)), DimensionError),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), ValueError),
        (np.diag([1.0, np.nan, 1.0]), NumericError),
        (np.diag([1.0, np.inf]), NumericError),
    ])
    def test_refuses_what_sym_eig_refuses(self, a, error):
        for fn in (sym_eig, sym_eigvals):
            with pytest.raises(error):
                fn(a)


class TestEstimateMoments:
    def test_constant_samples(self):
        c = np.array([2.0, -1.0, 0.5])
        m = estimate_moments(np.tile(c, (6, 1)))
        np.testing.assert_allclose(m.mean, c)
        np.testing.assert_allclose(m.covariance, np.zeros((3, 3)), atol=1e-15)
        assert m.gram is None and m.centered is None

    def test_hand_computed_pair(self):
        # centered second moment of {(0,0),(2,2)}: mean (1,1),
        # deviations (-1,-1),(1,1) -> cov = [[1,1],[1,1]]
        m = estimate_moments(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(m.mean, [1.0, 1.0])
        np.testing.assert_allclose(m.covariance, [[1.0, 1.0], [1.0, 1.0]])

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(42)
        target = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        chol = np.linalg.cholesky(target)
        x = rng.standard_normal((10_000, 3)) @ chol.T
        m = estimate_moments(x)
        assert np.abs(m.covariance - target).max() < 0.1

    def test_population_normalization(self):
        x = np.array([[0.0], [1.0]])
        m = estimate_moments(x)
        # 1/N: var of {0,1} is 0.25, not 0.5
        np.testing.assert_allclose(m.covariance, [[0.25]])

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        m = estimate_moments(rng.standard_normal((50, 8)))
        assert np.array_equal(m.covariance, m.covariance.T)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            estimate_moments(np.ones((1, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            estimate_moments([np.zeros(2), np.zeros(3)])

    def test_non_finite_rejected(self):
        x = np.ones((4, 2))
        x[2, 0] = np.inf
        with pytest.raises(NumericError):
            estimate_moments(x)


    @pytest.mark.parametrize("n, dim", [(100, 200), (100, 100), (2, 3)])
    def test_gram_matrix_when_wider_than_the_sample(self, n, dim):
        # d > N keeps the N x N Gram matrix and the centered sample, d = N
        # the d x d covariance alone
        x = np.random.default_rng(dim).standard_normal((n, dim))
        m = estimate_moments(x)
        centered = x - x.mean(axis=0)
        if dim <= n:
            assert m.gram is None and m.centered is None
            assert m.covariance.shape == (dim, dim)
            return
        assert m.covariance is None
        assert np.array_equal(m.centered, centered)
        np.testing.assert_allclose(m.gram, centered @ centered.T / n, atol=1e-14)
        assert np.array_equal(m.gram, m.gram.T)


def zca_whitening(spectrum, e, epsilon):
    """The ZCA whitening matrix of a range: the root of its preconditioner."""
    return whitening_root(preconditioner(spectrum, e, epsilon))


class TestZcaMatrix:
    def test_identity_covariance(self):
        m = estimate_moments(_seeded_samples(400, 4, seed=1))
        u = zca_whitening(*zca_range(m), epsilon=0.0)
        np.testing.assert_allclose(u @ m.covariance @ u.T, np.eye(4), atol=1e-8)

    def test_diagonal_epsilon_zero(self):
        m = _moments_with_cov(np.diag([4.0, 1.0]))
        u = zca_whitening(*zca_range(m), epsilon=0.0)
        np.testing.assert_allclose(u, np.diag([0.5, 1.0]), atol=1e-12)

    def test_diagonal_epsilon_one(self):
        # gains are 1/sqrt(lam + eps): 1/sqrt(5), 1/sqrt(2)
        m = _moments_with_cov(np.diag([4.0, 1.0]))
        u = zca_whitening(*zca_range(m), epsilon=1.0)
        expected = np.diag([1.0 / np.sqrt(5.0), 1.0 / np.sqrt(2.0)])
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_singular_requires_epsilon(self):
        m = _moments_with_cov(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            zca_whitening(*zca_range(m), epsilon=0.0)
        u = zca_whitening(*zca_range(m), epsilon=0.5)
        # the null direction takes eps^-1/2
        np.testing.assert_allclose(u, np.diag([1.0 / np.sqrt(1.5), np.sqrt(2.0)]), atol=1e-12)

    def test_whitened_samples_have_unit_moments(self):
        x = _seeded_samples(300, 5, seed=9)
        m = estimate_moments(x)
        u = zca_whitening(*zca_range(m), epsilon=0.0)
        a = (x - m.mean) @ u.T
        assert np.abs(a.mean(axis=0)).max() < 1e-9
        cov = a.T @ a / a.shape[0]
        assert np.abs(cov - np.eye(5)).max() < 1e-8

    def test_epsilon_shrinks_whitened_covariance(self):
        # with eps > 0 the whitened covariance is Sigma (Sigma + eps I)^-1,
        # whatever basis the whitening uses
        eps = 0.3
        x = _seeded_samples(500, 4, seed=13)
        m = estimate_moments(x)
        u = zca_whitening(*zca_range(m), epsilon=eps)
        a = (x - m.mean) @ u.T
        cov = a.T @ a / a.shape[0]
        expected = np.linalg.solve(m.covariance + eps * np.eye(4), m.covariance)
        assert np.abs(cov - expected).max() < 1e-8

    @pytest.mark.parametrize("dim, epsilon", [(200, 1e-4), (1000, 1e-2)])
    def test_gram_range_matches_the_dense_preconditioner(self, dim, epsilon):
        # 100 statistics rows, as at desk and paper width: P from the Gram
        # matrix's range against E diag((lam + eps)^-1) E^T from the d x d
        # eigendecomposition
        x = np.random.default_rng(dim).uniform(0.0, 1.0, size=(100, dim))
        m = estimate_moments(x)
        lam, e = zca_range(m)
        p = preconditioner(lam, e, epsilon)
        centered = x - m.mean
        sigma = centered.T @ centered / 100
        dense_lam, dense_e = np.linalg.eigh(sigma)
        dense = (dense_e / (np.maximum(dense_lam, 0.0) + epsilon)) @ dense_e.T
        assert np.abs(p - dense).max() <= 1e-10 * np.abs(dense).max()
        # P's range gains cancel against 1/eps (the a + (g - a) form), so
        # P (Sigma + eps I) reads about 1e-12 off I at desk width
        assert np.abs(p @ (sigma + epsilon * np.eye(dim)) - np.eye(dim)).max() <= 1e-11
        # the spectrum: the covariance's range, then zeros
        assert lam.shape == (dim,) and e.shape == (dim, 99)
        np.testing.assert_allclose(lam[:99], dense_lam[::-1][:99], rtol=1e-10)
        assert not lam[99:].any()

    def test_epsilon_zero_with_as_many_samples_as_width_refused(self):
        # centered, N rows span at most N - 1 directions, so N = d is
        # singular too (N < d: test_epsilon_zero_on_rank_deficient_...)
        m = estimate_moments(np.random.default_rng(40).standard_normal((40, 40)))
        with pytest.raises(SingularMatrixError):
            preconditioner(*zca_range(m), 0.0)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(sym_eig(np.eye(4))[0]) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(sym_eig(np.diag([100.0, 1.0]))[0]) == pytest.approx(100.0)

    def test_floor_applied(self):
        assert condition_number(np.array([1.0, 0.0])) == pytest.approx(1e12)

    def test_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            condition_number(np.array([0.0, 0.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6), st.integers(min_value=0, max_value=1000))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0.1, 10.0, size=5))[::-1]
        assert condition_number(lam * scale) == pytest.approx(condition_number(lam), rel=1e-9)


class TestPreconditioner:
    def test_identity(self):
        p = preconditioner(*zca_range(_moments_with_cov(np.eye(3))), 0.0)
        np.testing.assert_allclose(p, np.eye(3))

    def test_diagonal(self):
        # (Sigma + eps I)^-1 of diag(4, 1) at eps 1: diag(1/5, 1/2)
        p = preconditioner(*zca_range(_moments_with_cov(np.diag([4.0, 1.0]))), 1.0)
        np.testing.assert_allclose(p, np.diag([0.2, 0.5]), atol=1e-15)

    def test_is_the_square_of_its_root(self):
        lam, e = zca_range(estimate_moments(_seeded_samples(200, 6, seed=21)))
        p = preconditioner(lam, e, epsilon=1e-3)
        u = whitening_root(p)
        assert np.abs(u - u.T).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(u @ u - p).max() <= 1e-12 * np.abs(p).max()

    @pytest.mark.parametrize("width", [100, 200, 50, 16])
    def test_inverts_the_damped_covariance_at_desk_widths(self, width):
        # the desk autoencoder's input slots, 100 statistics rows: rank
        # deficient above width 99, so eps carries the null space
        x = np.random.default_rng(width).uniform(0.0, 1.0, size=(100, width))
        m = estimate_moments(x)
        p = preconditioner(*zca_range(m), 1e-2)
        centered = x - m.mean
        damped = centered.T @ centered / 100 + 1e-2 * np.eye(width)
        assert np.abs(p @ damped - np.eye(width)).max() <= 1e-12

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            preconditioner(*zca_range(_moments_with_cov(np.zeros((2, 2)))), 0.0)

    def test_epsilon_zero_on_rank_deficient_covariance_refused(self):
        # 20 samples in 40 dimensions: rank 19
        x = np.random.default_rng(3).standard_normal((20, 40))
        lam, e = zca_range(estimate_moments(x))
        with pytest.raises(SingularMatrixError):
            preconditioner(lam, e, 0.0)
        assert np.isfinite(preconditioner(lam, e, 1e-2)).all()


def zca_range(m):
    """``covariance_range`` of a moment estimate, through ``sym_eig`` of
    its second-moment matrix."""
    return covariance_range(m, *sym_eig(m.covariance if m.gram is None else m.gram))


def _seeded_samples(n, dim, seed):
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((dim, dim))
    return rng.standard_normal((n, dim)) @ mix.T + rng.standard_normal(dim)


def _moments_with_cov(cov):
    cov = np.asarray(cov, dtype=float)
    return MomentEstimate(np.zeros(cov.shape[0]), covariance=cov)
