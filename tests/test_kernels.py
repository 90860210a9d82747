import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcg import (
    GramSystem,
    InvalidInput,
    KernelMatrix,
    MercerKernel,
    estimator_spectrum,
    make_model,
)
from kernelcg.kernels import COSINE_BLOCK_ROWS, SERIES_FEW_ROWS, SERIES_TILE_ROWS
from reference import dense, quad


def series_gram_entry(kernel: MercerKernel, x: float, y: float) -> float:
    """Independent double-loop evaluation of the truncated series."""
    total = 1.0
    for j in range(1, kernel.truncation + 1):
        xi = j ** (-kernel.decay_exponent)
        total += xi * 2.0 * np.cos(j * np.pi * x) * np.cos(j * np.pi * y)
    return total


class TestKernelSpecs:
    def test_mercer_rejects_bad_params(self):
        with pytest.raises(InvalidInput):
            MercerKernel(decay_exponent=1.0, truncation=10)
        with pytest.raises(InvalidInput):
            MercerKernel(decay_exponent=2.0, truncation=0)

    def test_mercer_rejects_nan_decay_and_fractional_truncation(self):
        with pytest.raises(InvalidInput):
            MercerKernel(decay_exponent=float("nan"), truncation=10)
        # inf used to raise a bare OverflowError, NaN a bare ValueError and
        # None a bare TypeError.
        for truncation in (2.5, np.inf, -np.inf, np.nan, None):
            with pytest.raises(InvalidInput, match="truncation must be a positive integer"):
                MercerKernel(decay_exponent=2.0, truncation=truncation)

    def test_integral_float_truncation_becomes_int(self):
        kernel = MercerKernel(decay_exponent=2.0, truncation=10.0)
        assert kernel.truncation == 10 and type(kernel.truncation) is int
        assert kernel.eigenvalues().shape == (11,)

    def test_mercer_eigenvalues_strictly_decreasing(self):
        k = MercerKernel(decay_exponent=2.0, truncation=50)
        xi = k.eigenvalues()
        assert xi[0] == 1.0  # constant mode
        cos_part = xi[1:]
        assert np.all(cos_part > 0)
        assert np.all(np.diff(cos_part) < 0)

    def test_kappa_bound_dominates_diagonal(self):
        rng = np.random.default_rng(7)
        x = rng.random(50)
        for kernel in (
            MercerKernel(decay_exponent=1.5, truncation=100),
            MercerKernel(decay_exponent=2.0, truncation=100),
            MercerKernel(decay_exponent=4.0, truncation=100),
        ):
            diag = np.diag(kernel.gram(x, x))
            assert np.all(diag <= kernel.kappa_bound + 1e-12)

    def test_kappa_tail_shrinks_with_truncation(self):
        small = MercerKernel(decay_exponent=2.0, truncation=100)
        large = MercerKernel(decay_exponent=2.0, truncation=10_000)
        assert large.kappa_tail < small.kappa_tail
        # the bound covers the actual lost mass
        lost = small.kappa_bound
        full = MercerKernel(decay_exponent=2.0, truncation=200_000).kappa_bound
        assert full - lost <= small.kappa_tail


def reference_basis(kernel: MercerKernel, x) -> np.ndarray:
    """The eigenfunction matrix by the plain formula, one temporary per step."""
    x = np.asarray(x, dtype=float).ravel()
    j = np.arange(1, kernel.truncation + 1, dtype=float)
    cos_part = np.sqrt(2.0) * np.cos(np.pi * np.outer(x, j))
    return np.hstack([np.ones((x.size, 1)), cos_part])


def assert_frozen(a: np.ndarray) -> None:
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 99.0


class TestOperatorBuild:
    """The in-place builds agree bit for bit with the plain formulas."""

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=450),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_basis_matches_formula(self, n, truncation, seed):
        kernel = MercerKernel(2.0, truncation)
        x = np.random.default_rng(seed).random(n)
        phi = kernel.basis(x)
        assert phi.shape == (n, truncation + 1)
        assert np.array_equal(phi, reference_basis(kernel, x))

    @pytest.mark.parametrize("n", [1, 2, 37, 1000])
    def test_basis_edge_and_large_sizes(self, n):
        kernel = MercerKernel(1.5, 400)
        x = np.concatenate(([0.0, 1.0], np.random.default_rng(n).random(n)))[:n]
        assert np.array_equal(kernel.basis(x), reference_basis(kernel, x))

    def test_operators_match_formulas_and_are_frozen(self):
        kernel = MercerKernel(2.0, 120)
        x = np.random.default_rng(5).random(64)
        phi, xi, n = reference_basis(kernel, x), kernel.eigenvalues(), x.size
        g = (phi * xi) @ phi.T
        expected = (g + g.T) / (2.0 * n)

        K = dense(kernel, x)
        assert np.array_equal(K.entries, expected)
        assert_frozen(K.entries)

    @pytest.mark.parametrize(
        "entries, n, message",
        [
            (np.zeros((2, 3)), 2, "must be square"),
            (np.zeros(4), 4, "must be square"),
            (np.eye(3), 4, "does not match"),
            # True used to be stored as n, as was a whole float such as 3.0, on
            # which cg_fit raised a bare TypeError.
            (np.eye(3), 2.5, "n must be a positive integer"),
            (np.eye(1), True, "n must be a positive integer"),
        ],
        ids=["rectangular", "vector", "size_mismatch", "fractional_n", "bool_n"],
    )
    def test_kernel_matrix_rejects_misshaped_entries(self, entries, n, message):
        with pytest.raises(InvalidInput, match=message):
            KernelMatrix(entries=entries, n=n)

    def test_constructors_copy_caller_arrays(self):
        rng = np.random.default_rng(6)
        entries = rng.standard_normal((4, 4))
        K = KernelMatrix(entries=entries, n=4)
        kept_entries = entries.copy()
        v = rng.standard_normal(4)
        before = K.matvec(v)
        entries[:] = 0.0
        assert entries.flags.writeable
        assert np.array_equal(K.entries, kept_entries)
        assert np.array_equal(K.matvec(v), before)


class TestDenseKernelMatrix:
    def test_single_point_is_unnormalized_diagonal(self):
        kernel = MercerKernel(decay_exponent=2.0, truncation=20)
        K = dense(kernel, [0.3])
        assert K.n == 1
        expected = series_gram_entry(kernel, 0.3, 0.3)
        assert K.entries[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_mercer_matrix_matches_series_oracle(self):
        kernel = MercerKernel(decay_exponent=2.0, truncation=200)
        pts = np.array([0.1, 0.5, 0.9])
        K = dense(kernel, pts)
        for i in range(3):
            for j in range(3):
                expected = series_gram_entry(kernel, pts[i], pts[j]) / 3
                assert K.entries[i, j] == pytest.approx(expected, rel=1e-12)

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(0)
        pts = rng.random(40)
        for kernel in (
            MercerKernel(decay_exponent=1.5, truncation=40),
            MercerKernel(decay_exponent=2.0, truncation=300),
        ):
            K = dense(kernel, pts)
            assert np.array_equal(K.entries, K.entries.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(1)
        pts = rng.random(30)
        kernel = MercerKernel(decay_exponent=2.0, truncation=100)
        K = dense(kernel, pts)
        eigs = np.linalg.eigvalsh(K.entries)
        assert eigs.min() >= -1e-10 * kernel.kappa_bound

    def test_deterministic_rebuild(self):
        pts = np.random.default_rng(2).random(25)
        kernel = MercerKernel(decay_exponent=2.0, truncation=500)
        a = dense(kernel, pts)
        b = dense(kernel, pts)
        assert np.array_equal(a.entries, b.entries)

    def test_entries_frozen(self):
        kernel = MercerKernel(decay_exponent=2.0, truncation=20)
        K = dense(kernel, [0.1, 0.2])
        with pytest.raises(ValueError):
            K.entries[0, 0] = 99.0


class TestGram:
    """``gram(x, y)`` is the cross matrix k(x_i, y_j), and ``gram(x, X) @ alpha / n``
    evaluates the fitted expansion (1/n) sum_i alpha_i k(X_i, .) at x."""

    KERNEL = MercerKernel(decay_exponent=2.0, truncation=50)

    def test_cross_matrix_matches_series_oracle(self):
        x = np.array([0.0, 0.2, 0.65])
        y = np.array([0.1, 0.5, 0.9, 1.0])
        g = self.KERNEL.gram(x, y)
        assert g.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                expected = series_gram_entry(self.KERNEL, x[i], y[j])
                assert g[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_swapped_arguments_transpose(self):
        rng = np.random.default_rng(8)
        x, y = rng.random(7), rng.random(5)
        np.testing.assert_allclose(
            self.KERNEL.gram(y, x), self.KERNEL.gram(x, y).T, rtol=1e-14, atol=1e-14
        )

    def test_zero_alpha_expansion_vanishes(self):
        out = self.KERNEL.gram([0.2, 0.4], [0.1, 0.5, 0.9]) @ np.zeros(3) / 3
        assert np.array_equal(out, np.zeros(2))

    def test_expansion_at_train_points_is_kernel_matrix_product(self):
        rng = np.random.default_rng(5)
        pts = rng.random(12)
        alpha = rng.standard_normal(12)
        K = dense(self.KERNEL, pts)
        out = self.KERNEL.gram(pts, pts) @ alpha / pts.size
        assert out == pytest.approx(K.entries @ alpha, abs=1e-12)

    def test_diagonal_at_the_ends_is_kappa_bound(self):
        # cos(j pi x)**2 = 1 at x = 0 and x = 1, where k(x, x) attains its sup.
        K = dense(self.KERNEL, [0.0, 1.0])
        np.testing.assert_allclose(np.diag(K.entries), self.KERNEL.kappa_bound / 2, rtol=1e-14)


class TestMercerEigenpairs:
    """On the midpoint grid (i + 1/2) / N the discrete cosine transform is
    orthogonal, so the uniform-measure identities hold exactly for J < N."""

    @staticmethod
    def grid(size):
        return (np.arange(size) + 0.5) / size

    @pytest.mark.parametrize("truncation", [1, 17, 63])
    def test_basis_orthonormal_on_midpoint_grid(self, truncation):
        kernel = MercerKernel(decay_exponent=2.0, truncation=truncation)
        phi = kernel.basis(self.grid(64))
        np.testing.assert_allclose(phi.T @ phi / 64, np.eye(truncation + 1), atol=1e-13)

    def test_kernel_integral_reproduces_eigenfunctions(self):
        # (1/N) sum_i k(x, x_i) phi_j(x_i) = xi_j phi_j(x): the eigen-relation
        # of the integral operator under the uniform measure.
        kernel = MercerKernel(decay_exponent=1.5, truncation=30)
        x_i = self.grid(48)
        x = np.linspace(0.0, 1.0, 11)
        lhs = kernel.gram(x, x_i) @ kernel.basis(x_i) / x_i.size
        rhs = kernel.basis(x) * kernel.eigenvalues()
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestQuadraticForm:
    def test_quadratic_form_nearly_nonnegative(self):
        rng = np.random.default_rng(3)
        pts = rng.random(20)
        K = dense(MercerKernel(decay_exponent=2.0, truncation=50), pts)
        for _ in range(20):
            u = rng.standard_normal(20)
            assert quad(u, u, K) >= -1e-10 * float(u @ u)

    def test_h_norm_identity_against_spectral_route(self):
        # For the series kernel, (1/n) a.T K a equals the squared H-norm of
        # the expanded function, computable independently from the basis.
        rng = np.random.default_rng(4)
        kernel = MercerKernel(decay_exponent=2.0, truncation=400)
        pts = rng.random(15)
        K = dense(kernel, pts)
        alpha = rng.standard_normal(15)
        form = quad(alpha, alpha, K)
        phi = kernel.basis(pts)
        xi = kernel.eigenvalues()
        chat = xi * (phi.T @ alpha) / 15
        spectral = float(np.sum(chat**2 / xi))
        assert form == pytest.approx(spectral, rel=1e-8)


class TestSeries:
    """``series`` against the basis: ``basis(x) @ coeffs`` for one coefficient
    vector, one such row per row of a 2-D array. Up to SERIES_FEW_ROWS rows it
    sums over the modes k first; more rows share tiles of cosines. Each value
    is measured against its row's bound sqrt(2) * sum_j |c_j|. Largest gap in
    3000 draws: 1.6e-14, at J = 400 in both branches; the tolerance is 1e-13."""

    @staticmethod
    def check(kernel, x, coeffs):
        values = kernel.series(x, coeffs)
        ref = (kernel.basis(x) @ coeffs.T).T
        assert values.shape == ref.shape
        bound = np.sqrt(2.0) * np.abs(coeffs).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(values - ref) <= 1e-13 * bound)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 40, 120, 400]),
        st.integers(0, 700),
        st.sampled_from([None, 1, SERIES_FEW_ROWS, SERIES_FEW_ROWS + 1, 65]),
        st.integers(0, 2**32 - 1),
    )
    def test_series_matches_the_basis(self, truncation, n, rows, seed):
        kernel = MercerKernel(2.0, truncation)
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        x[: min(n, 2)] = [0.0, 1.0][:n]
        shape = (truncation + 1,) if rows is None else (rows, truncation + 1)
        coeffs = rng.standard_normal(shape) * kernel.eigenvalues() ** rng.uniform(0.0, 1.0)
        self.check(kernel, x, coeffs)

    @pytest.mark.parametrize("rows, block", [(None, COSINE_BLOCK_ROWS), (65, SERIES_TILE_ROWS)])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_series_at_block_edges(self, rows, block, extra):
        kernel = MercerKernel(2.0, 400)
        rng = np.random.default_rng(block + extra)
        x = rng.random(block + extra)
        shape = (401,) if rows is None else (rows, 401)
        self.check(kernel, x, rng.standard_normal(shape) * kernel.eigenvalues())

    def test_series_rejects_misshaped_coefficients(self):
        kernel = MercerKernel(2.0, 10)
        for coeffs in (np.ones(10), np.ones((2, 12)), np.ones((2, 2, 11)), 1.0):
            with pytest.raises(InvalidInput):
                kernel.series([0.5], coeffs)
        assert kernel.series([], np.ones((3, 11))).shape == (3, 0)


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_series_and_gram_system_refuse_points_outside_the_unit_interval(bad):
    # A NaN point used to make the Gram system all NaN, so the run failed
    # later as a NumericalFailure instead of as invalid input. The basis, and
    # so gram and estimator_spectrum, used to give NaN entries for a NaN
    # point and finite ones for a point outside [0, 1].
    model = make_model(s=0.5, r=1.0, rho=1.0, truncation=10)
    kernel = model.kernel
    x = np.array([0.0, 0.5, bad, 1.0])
    calls = (
        lambda: kernel.series(x, np.ones(11)),
        lambda: GramSystem.from_design(kernel, x, np.ones(4)),
        lambda: kernel.basis(x),
        lambda: kernel.gram([0.5], x),
        lambda: estimator_spectrum(np.ones(4), x, model),
    )
    for call in calls:
        with pytest.raises(InvalidInput, match=r"points must lie in \[0, 1\]"):
            call()
