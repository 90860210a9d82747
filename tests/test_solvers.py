import numpy as np
import pytest

from kernelcg import (
    GramSystem,
    InvalidInput,
    KernelMatrix,
    NumericalFailure,
    cg_fit,
    gram_fit,
    krylov_oracle,
    lanczos_paths,
)
from reference import quad

DIAG = KernelMatrix(entries=np.diag([1.0, 0.5]), n=2)
ONES = np.array([1.0, 1.0])


def random_psd_system(seed: int, n: int, cond: float = 4.0):
    """Well-conditioned random system: Haar basis, log-uniform spectrum."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lo = 2.0 / cond
    lam = np.exp(rng.uniform(np.log(lo), np.log(2.0), n))
    a = (q * lam) @ q.T
    entries = (a + a.T) / 2.0
    y = rng.standard_normal(n)
    return KernelMatrix(entries=entries, n=n), y


class TestCgFitSmall:
    def test_zero_response_breaks_down_immediately(self):
        trace = cg_fit(DIAG, np.zeros(2))
        assert trace.breakdown_at == 1
        assert trace.m_last == 0
        assert trace.residual_norms == [0.0]
        assert np.array_equal(trace.alphas, np.zeros((1, 2)))

    def test_diag_one_step_projection(self):
        # minimizing over span{Y} gives alpha_1 = c*Y with
        # c = (Y K^2 Y) / (Y K^3 Y) = 1.25 / 1.125 = 10/9
        trace = cg_fit(DIAG, ONES, max_iter=1)
        assert trace.alphas[1] == pytest.approx([10 / 9, 10 / 9], rel=1e-14)

    def test_diag_one_step_projection_euclidean(self):
        # same projection in the plain norm: c = (Y K Y) / (Y K^2 Y) = 1.5/1.25
        trace = cg_fit(DIAG, ONES, max_iter=1, mode="euclidean")
        assert trace.alphas[1] == pytest.approx([6 / 5, 6 / 5], rel=1e-14)

    def test_diag_exact_solve_in_two_steps(self):
        trace = cg_fit(DIAG, ONES, max_iter=2)
        assert trace.alphas[2] == pytest.approx([1.0, 2.0], rel=1e-12)
        assert trace.residual_norms[2] <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            cg_fit(DIAG, np.ones(3))

    def test_unknown_mode(self):
        with pytest.raises(InvalidInput):
            cg_fit(DIAG, ONES, mode="spicy")

    def test_nan_input_raises_numerical_failure(self):
        with pytest.raises(NumericalFailure) as exc:
            cg_fit(DIAG, np.array([np.nan, 1.0]))
        assert exc.value.iteration == 1

    def test_alpha_zero_convention(self):
        trace = cg_fit(DIAG, ONES)
        assert np.array_equal(trace.alphas[0], np.zeros(2))


class TestOracleEquivalence:
    def test_oracle_m0_is_zero(self):
        assert np.array_equal(krylov_oracle(DIAG, ONES, 0), np.zeros(2))

    def test_oracle_diag_m1(self):
        got = krylov_oracle(DIAG, ONES, 1)
        assert got == pytest.approx([10 / 9, 10 / 9], rel=1e-12)

    def test_oracle_beyond_rank_returns_terminal(self):
        full = krylov_oracle(DIAG, ONES, 2)
        beyond = krylov_oracle(DIAG, ONES, 6)
        assert beyond == pytest.approx(full, abs=1e-10)

    def test_oracle_rejects_negative_order(self):
        with pytest.raises(InvalidInput, match="m must be nonnegative"):
            krylov_oracle(DIAG, ONES, -1)

    @pytest.mark.parametrize("mode", ["kn_norm", "euclidean"])
    def test_oracle_stops_growing_on_an_invariant_subspace(self, mode):
        # Y = e_1 is an eigenvector of K: K Y lies in span{Y}, so the basis
        # stops at one column and both modes are least at Y / 2.
        K = KernelMatrix(entries=np.diag([1.0, 2.0, 3.0]), n=3)
        y = np.array([0.0, 1.0, 0.0])
        assert krylov_oracle(K, y, 3, mode=mode) == pytest.approx([0.0, 0.5, 0.0], abs=1e-15)

    @pytest.mark.parametrize("mode", ["kn_norm", "euclidean"])
    def test_full_basis_is_the_direct_solve(self, mode):
        # n Krylov vectors span R^n, where both modes are least at K^-1 Y.
        K, y = random_psd_system(29, 6)
        assert np.array_equal(krylov_oracle(K, y, 6, mode=mode), np.linalg.solve(K.entries, y))

    @pytest.mark.parametrize("mode", ["kn_norm", "euclidean"])
    def test_matches_cg_on_random_systems(self, mode):
        for seed in range(25):
            n = 3 + seed % 6
            K, y = random_psd_system(seed, n)
            trace = cg_fit(K, y, mode=mode)
            for m in range(trace.m_last + 1):
                oracle = krylov_oracle(K, y, m, mode=mode)
                diff = trace.alphas[m] - oracle
                gap = np.sqrt(max(quad(diff, diff, K), 0.0))
                assert gap <= 1e-8 * (1 + np.linalg.norm(y)), (seed, m, gap)


class TestTraceInvariants:
    @pytest.mark.parametrize("mode", ["kn_norm", "euclidean"])
    def test_residuals_non_increasing(self, mode):
        for seed in range(10):
            K, y = random_psd_system(seed + 100, 8)
            trace = cg_fit(K, y, mode=mode)
            res = np.array(trace.residual_norms)
            assert np.all(np.diff(res) <= 1e-12 * res[0])

    def test_exact_solve_at_full_rank(self):
        for seed in range(10):
            K, y = random_psd_system(seed + 200, 8)
            trace = cg_fit(K, y)
            assert trace.residual_norms[trace.m_last] <= (
                1e-8 * trace.residual_norms[0] + 1e-12
            )

    def test_krylov_membership(self):
        K, y = random_psd_system(42, 6)
        trace = cg_fit(K, y)
        basis = [y]
        for _ in range(trace.m_last - 1):
            basis.append(K.entries @ basis[-1])
        for m in range(1, trace.m_last + 1):
            v = np.column_stack(basis[:m])
            q, _ = np.linalg.qr(v)
            a = trace.alphas[m]
            proj = q @ (q.T @ a)
            assert np.linalg.norm(a - proj) <= 1e-8 * (1 + np.linalg.norm(a))

    def test_residual_weighted_orthogonality(self):
        # first-order optimality: the image of the residual under the matrix
        # is orthogonal to the image of the lower-order power basis
        K, y = random_psd_system(7, 7)
        kn = K.entries
        trace = cg_fit(K, y)
        base = np.linalg.norm(kn @ y)
        for m in range(2, trace.m_last + 1):
            kr = kn @ (y - kn @ trace.alphas[m])
            power = y.copy()
            for j in range(m - 1):
                kp = kn @ power
                val = abs(float(kr @ kp))
                assert val / (np.linalg.norm(kp) * base) <= 1e-8, (m, j)
                power = kp

    def test_prefix_stability(self):
        K, y = random_psd_system(11, 8)
        full = cg_fit(K, y)
        short = cg_fit(K, y, max_iter=3)
        assert np.array_equal(short.alphas, full.alphas[:4])
        assert short.residual_norms == full.residual_norms[:4]

    def test_stop_at_zero_records_only_the_start(self):
        K, y = random_psd_system(17, 8)
        _, system = gram_of(K, y)
        start = gram_fit(system, max_iter=0).residual_norms[0]
        trace = gram_fit(system, omega=np.nextafter(start, np.inf))
        assert trace.m_last == 0
        assert trace.alphas.shape == (1, 8)
        assert trace.breakdown_at is None

    def test_stop_at_the_first_residual_below_omega(self):
        # The stop is strict: a residual equal to omega runs on. A stopped
        # trace is the full run cut at its stop, bit for bit.
        K, y = random_psd_system(19, 8)
        _, system = gram_of(K, y)
        full = gram_fit(system)
        assert full.m_last > 6
        for omega in (np.nextafter(full.residual_norms[5], np.inf), full.residual_norms[4]):
            trace = gram_fit(system, omega=omega)
            assert trace.m_last == 5
            assert trace.breakdown_at is None
            assert np.array_equal(trace.alphas, full.alphas[:6])
            assert trace.residual_norms == full.residual_norms[:6]

    def test_determinism_bit_identical(self):
        K, y = random_psd_system(13, 8)
        a = cg_fit(K, y)
        b = cg_fit(K, y)
        assert np.array_equal(a.alphas, b.alphas)
        assert a.residual_norms == b.residual_norms


def gram_of(K: KernelMatrix, y) -> tuple[np.ndarray, GramSystem]:
    """A factor B of the dense matrix (K = B B.T) and its Gram system."""
    B = np.linalg.cholesky(K.entries)
    return B, GramSystem(G=B.T @ B, b=B.T @ y, n=K.n)


class TestRidge:
    """``lanczos_paths`` ridge rows are B.T (K + lam I)^-1 Y, checked against dense solves."""

    def test_diag_hand_inversion(self):
        B, system = gram_of(DIAG, ONES)
        (c,), _ = lanczos_paths(system, [1.0])
        assert c == pytest.approx(B.T @ [0.5, 2 / 3], rel=1e-14)

    def test_rejects_nonpositive_lambda(self):
        _, system = gram_of(DIAG, ONES)
        with pytest.raises(InvalidInput):
            lanczos_paths(system, [1.0, 0.0])
        with pytest.raises(InvalidInput):
            lanczos_paths(system, [-0.5])

    def test_huge_lambda_limit(self):
        _, system = gram_of(DIAG, ONES)
        (c,), _ = lanczos_paths(system, [1e12])
        assert np.linalg.norm(c) <= 2 * np.linalg.norm(system.b) / 1e12

    def test_tiny_lambda_approaches_inverse(self):
        K, y = random_psd_system(23, 6)
        B, system = gram_of(K, y)
        (c,), _ = lanczos_paths(system, [1e-12])
        assert c == pytest.approx(B.T @ np.linalg.solve(K.entries, y), rel=1e-6)

    def test_residual_invariant(self):
        for seed in range(5):
            K, y = random_psd_system(seed + 300, 10)
            B, system = gram_of(K, y)
            lam = 10.0 ** (-seed)
            (c,), _ = lanczos_paths(system, [lam])
            resid = (system.G + lam * np.eye(10)) @ c - system.b
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(system.b)
            direct = np.linalg.solve(K.entries + lam * np.eye(10), y)
            assert np.linalg.norm(c - B.T @ direct) <= 1e-10 * np.linalg.norm(B.T @ direct)


#: Each solver's iteration count, by entry point: its name and a call on
#: DIAG and ONES (or their Gram system) returning the iterates.
COUNTS = {
    "cg_fit": ("max_iter", lambda system, v: cg_fit(DIAG, ONES, max_iter=v).alphas),
    "gram_fit": ("max_iter", lambda system, v: gram_fit(system, max_iter=v).alphas),
    "krylov_oracle": ("m", lambda system, v: krylov_oracle(DIAG, ONES, v)),
    "lanczos_paths": ("pls_iter", lambda system, v: lanczos_paths(system, [1.0], v)[1]),
}


@pytest.mark.parametrize("bad", [-1, np.nan, np.inf, 2.5, True])
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_counts_are_nonnegative_whole_numbers(entry, bad):
    # inf and NaN used to raise a bare OverflowError and ValueError, 2.5 was
    # read as 2 and True as 1.
    name, call = COUNTS[entry]
    _, system = gram_of(DIAG, ONES)
    with pytest.raises(InvalidInput, match=f"^{name} must be "):
        call(system, bad)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_whole_float_counts_read_as_ints(entry):
    _, call = COUNTS[entry]
    _, system = gram_of(DIAG, ONES)
    assert np.array_equal(call(system, 2.0), call(system, 2))
