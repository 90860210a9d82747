"""Property tests of the Gram-space solvers against the dense kernel matrix.

Every replicate runs on the (J+1) x (J+1) ``GramSystem`` of the cosine
kernel, built from cosine moments of the design (``GramSystem.from_design``).
That build is checked entry by entry against ``reference.from_basis``, the
same system formed from the basis matrix. ``gram_fit`` is checked against
``cg_fit`` on the dense ``KernelMatrix`` (``reference.dense``);
``lanczos_paths`` against dense solves, the eigendecomposition route
``reference.ridge_eigh``, plain CG on the Gram system (``reference.plain_cg``)
and an explicit-basis minimizer; ``cg_fit`` itself is checked against
``krylov_oracle``. Points are uniform draws, spectra those of the shipped
configs.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelcg import (
    GramSystem,
    InvalidInput,
    MercerKernel,
    cg_fit,
    discrepancy_stop,
    eval_target,
    gram_fit,
    krylov_oracle,
    lanczos_paths,
    spectral_error,
)
from kernelcg.harness import ExperimentConfig, compare_solvers, fit_replicate
from kernelcg.kernels import COSINE_BLOCK_ROWS, _cosine_blocks
from reference import dense, factor, from_basis, from_moments, plain_cg, quad, ridge_eigh

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
SHIPPED = {
    path.stem: ExperimentConfig.from_dict(json.loads(path.read_text())).model()
    for path in CONFIGS
}
MODEL_NAMES = sorted(SHIPPED)


def draw(n: int, seed: int, model):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = eval_target(model, x) + rng.uniform(-0.5, 0.5, n)
    return x, y


def gram_system(x, y, model) -> GramSystem:
    return GramSystem.from_design(model.kernel, x, y)


def rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


cases = st.tuples(
    st.sampled_from(MODEL_NAMES), st.integers(2, 600), st.integers(0, 2**32 - 1)
)


# The stop only ends the loop; the recursion is untouched, so the stopped
# trace must be the unstopped one cut at its stop, bit for bit. The Gram
# system's runs are those of the discrepancy rule and of hold-out; on the
# J=120 and J=400 spectra its traces have more columns than the n <= 300
# rows, so discrepancy_stop must read the trace's n.
@settings(max_examples=25, deadline=None)
@given(cases.filter(lambda c: c[1] <= 300), st.floats(-4.0, 0.2))
def test_stopped_trace_is_a_prefix_of_the_full_run(case, log_scale):
    name, n, seed = case
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    system = gram_system(x, y, model)
    full = gram_fit(system)
    omega = 10.0**log_scale * full.residual_norms[0]
    stopped = gram_fit(system, omega=omega)
    m = stopped.m_last
    assert np.array_equal(stopped.alphas, full.alphas[: m + 1])
    assert np.array_equal(stopped.residual_norms, full.residual_norms[: m + 1])
    if stopped.residual_norms[-1] < omega:
        assert stopped.breakdown_at is None
    else:
        assert m == full.m_last
        assert stopped.breakdown_at == full.breakdown_at
    assert discrepancy_stop(stopped, omega) == discrepancy_stop(full, omega) == m


# 32 iterates on designs of at least 64 points: in 600 draws of 64 to 600
# points the largest gap was 0.2 of the tolerance (1.3 times it when the
# oracle weighted by the symmetric square root of K). Smaller designs are
# compared over 6 iterates, because 32 steps reach or approach their exact
# solve K^-1 Y, where the gap reached 5e4 times the tolerance (n=31). The
# first example is the draw where the symmetric root reached 1.3 times it.
# At n <= 6 the 6 iterates can span R^n, where the oracle solves K alpha = Y
# directly: in the second example its weighted least squares (condition
# cond(K)^1.5) was 1.7e-8 from a 60-digit solve, against CG's 8.3e-12.
@settings(max_examples=25, deadline=None)
@given(cases, st.sampled_from(["kn_norm", "euclidean"]))
@example(("inner_holdout", 118, 828489043), "kn_norm")
@example(("inner_holdout", 6, 306334138), "kn_norm")
def test_oracle_on_dense_matrix_matches_cg(case, mode):
    name, n, seed = case
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    K = dense(model.kernel, x)
    trace = cg_fit(K, y, max_iter=32 if n >= 64 else 6, mode=mode)
    for m in range(trace.m_last + 1):
        oracle = krylov_oracle(K, y, m, mode=mode)
        diff = trace.alphas[m] - oracle
        gap = np.sqrt(max(quad(diff, diff, K), 0.0))
        assert gap <= 1e-8 * (1 + np.linalg.norm(y) / np.sqrt(n)), (m, gap)


# A run that took all n steps has exhausted its Krylov space, so
# discrepancy_stop returns its last index even when no residual beats omega.
# A gram_fit trace has a column per mode, here 121 against n = 12 rows. Near
# the full space either run may instead break down a step early (in up to
# 37% of 200 draws), which also ends in its last index.
def test_exhausted_gram_trace_stops_where_cg_fit_stops():
    model = SHIPPED["inner_small"]
    both_full = 0
    for seed in range(10):
        x, y = draw(12, seed, model)
        ref = cg_fit(dense(model.kernel, x), y)
        fast = gram_fit(gram_system(x, y, model))
        assert discrepancy_stop(fast, 1e-300) == fast.m_last
        assert discrepancy_stop(ref, 1e-300) == ref.m_last
        for trace in (ref, fast):
            assert trace.breakdown_at is not None or trace.m_last == trace.n == 12
        if ref.breakdown_at is None and fast.breakdown_at is None:
            both_full += 1
            assert discrepancy_stop(fast, 1e-300) == discrepancy_stop(ref, 1e-300) == 12
    assert both_full >= 3


# gram_fit's row c_m must equal B.T alpha_m from cg_fit on the dense matrix,
# at every m <= min(64, n/2) both reach: the largest gap over 400 draws of 64
# to 1600 points was 4.5e-8. Both runs reach the rounding floor on the J=120
# spectra at large n and may then end a few steps apart (up to 7 in 400
# draws); the extra steps lower the residual by at most 4.5e-9 of its start.
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.integers(64, 1600), st.integers(0, 2**32 - 1))
def test_gram_fit_matches_cg_fit_on_the_dense_matrix(name, n, seed):
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    system = gram_system(x, y, model)
    budget = min(64, n // 2)
    ref = cg_fit(dense(model.kernel, x), y, max_iter=budget)
    fast = gram_fit(system, max_iter=budget)
    if fast.m_last != ref.m_last:
        short, long = sorted((fast, ref), key=lambda t: t.m_last)
        assert short.breakdown_at == short.m_last + 1
        extra = long.residual_norms[short.m_last] - long.residual_norms[-1]
        assert extra <= 1e-7 * long.residual_norms[0], (short.m_last, long.m_last)
    common = min(fast.m_last, ref.m_last)
    ref_c = ref.alphas[: common + 1] @ factor(x, model)
    for m in range(1, common + 1):
        assert rel(fast.alphas[m], ref_c[m]) <= 1e-7, m
    assert fast.residual_norms[: common + 1] == pytest.approx(
        ref.residual_norms[: common + 1], rel=1e-6, abs=1e-8 * ref.residual_norms[0]
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.booleans(), st.integers(0, 2**32 - 1))
def test_lanczos_paths_ridge_matches_dense_solve(name, wide, seed):
    # wide: fewer points than modes, so K is nonsingular; otherwise K is
    # singular and G = B.T B is, with eigenvalues down to about 1e-18 when n
    # is near the number of modes. The Lanczos rows match the dense solve and
    # the eigendecomposition of G on both sides.
    model = SHIPPED[name]
    modes = model.eigenvalues.size
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, modes)) if wide else int(rng.integers(modes + 1, modes + 200))
    x, y = draw(n, seed, model)
    K = dense(model.kernel, x)
    B = factor(x, model)
    lams = model.kappa * np.logspace(-6.0, 0.0, 20)
    system = gram_system(x, y, model)
    path, _ = lanczos_paths(system, lams)
    assert path.shape == (lams.size, modes)
    assert np.all(np.isfinite(path))
    for lam, c, c_eigh in zip(lams, path, ridge_eigh(system, lams)):
        direct = B.T @ np.linalg.solve(K.entries + lam * np.eye(n), y)
        assert rel(c, direct) <= 1e-8, lam
        assert rel(c, c_eigh) <= 1e-8, lam


@pytest.mark.parametrize("side", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("name", ["inner_small", "inner_r1_s05"])
def test_lanczos_paths_ridge_next_to_a_design_of_modes_points(name, side):
    # At n = modes +- 1 the spectrum of G reaches about 1e-18, and the run
    # needs the most steps. The rows are still the dense solve and the
    # eigendecomposition's to rounding: at most 1.4e-10 relative over these
    # 18 draws.
    model = SHIPPED[name]
    n = model.eigenvalues.size + side
    lams = model.kappa * np.logspace(-6.0, 0.0, 20)
    for seed in range(3):
        x, y = draw(n, seed, model)
        B = factor(x, model)
        system = gram_system(x, y, model)
        K = dense(model.kernel, x).entries
        ridge, _ = lanczos_paths(system, lams)
        for lam, c, c_eigh in zip(lams, ridge, ridge_eigh(system, lams)):
            direct = B.T @ np.linalg.solve(K + lam * np.eye(n), y)
            assert rel(c, c_eigh) <= 1e-9, lam
            assert rel(c, direct) <= 1e-9, lam


def krylov_minimizers(system: GramSystem, m_max: int) -> list[np.ndarray]:
    """Exact plain-CG minimizers over K_m(G, b), m = 0..m_max, by an explicit
    orthonormal basis and a dense solve; independent of any recursion."""
    G, b = system.G, system.b
    cols: list[np.ndarray] = []
    out = [np.zeros(b.size)]
    v = b
    for _ in range(m_max):
        w = v.copy()
        for _ in range(2):
            for q in cols:
                w -= (q @ w) * q
        cols.append(w / np.linalg.norm(w))
        v = G @ cols[-1]
        u = np.column_stack(cols)
        out.append(u @ np.linalg.solve(u.T @ G @ u, u.T @ b))
    return out


# The Lanczos run's unshifted iterates c_m = |b| Q_m T_m^-1 e_1 are plain CG's
# on G c = b (``reference.plain_cg``) by other arithmetic, compared at every m
# both reach. Largest gap over 450 draws of the shipped models on both sides
# of n = J+1: 4.1e-9. Where plain CG ends at its rounding floor, the Lanczos
# run may go on to the exhausted space (in 44 of those draws);
# at that last step G restricted to the space has condition number up to
# about 1e13, and the explicit-basis minimizer is no reference there. Any
# common iterate where the two differ by more than 1e-7 is checked against
# the explicit-basis minimizer instead.
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.booleans(), st.integers(0, 2**32 - 1))
def test_lanczos_pls_iterates_match_plain_cg(name, wide, seed):
    model = SHIPPED[name]
    modes = model.eigenvalues.size
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, modes)) if wide else int(rng.integers(modes + 1, modes + 200))
    x, y = draw(n, seed, model)
    system = gram_system(x, y, model)
    budget = min(64, n)
    ridge, pls = lanczos_paths(system, [model.kappa], budget)
    ref = plain_cg(system, float(y @ y), budget)
    assert ridge.shape == (1, modes)
    assert not np.any(pls[0])
    assert len(pls) - 1 == ref.m_last or (len(pls) - 1 > ref.m_last and ref.breakdown_at)
    exact = None
    for m in range(1, ref.m_last + 1):
        if rel(pls[m], ref.alphas[m]) <= 1e-7:
            continue
        if exact is None:
            exact = krylov_minimizers(system, ref.m_last)
        assert rel(pls[m], exact[m]) <= 1e-10, m


@pytest.mark.parametrize("n", [5, 130], ids=["wide", "tall"])
def test_lanczos_paths_grid_edge_cases(n):
    # An empty grid returns (0, modes); a 2-D grid, a penalty that is not
    # positive, and an infinite or NaN one are refused: an infinite penalty
    # used to return a row of zeros. So is a pls_iter that is not a
    # nonnegative whole number: inf and NaN used to raise OverflowError and
    # ValueError, and 2.5 was read as 2.
    model = SHIPPED["inner_small"]
    x, y = draw(n, n, model)
    system = gram_system(x, y, model)
    assert lanczos_paths(system, [])[0].shape == (0, model.eigenvalues.size)
    for bad in ([[1.0, 2.0]], [1.0, 0.0], [np.inf], [1e309], [1.0, np.nan], [-np.inf]):
        with pytest.raises(InvalidInput):
            lanczos_paths(system, bad)
    for bad in (-1, np.nan, np.inf, 2.5):
        with pytest.raises(InvalidInput, match="pls_iter"):
            lanczos_paths(system, [1.0], bad)
    ridge, pls = lanczos_paths(gram_system(x, np.zeros(n), model), [1.0, 2.0], 10)
    assert ridge.shape == (2, model.eigenvalues.size) and not np.any(ridge)
    assert pls.shape == (1, model.eigenvalues.size) and not np.any(pls)


def test_lanczos_paths_past_a_zero_unshifted_pivot():
    # T_2 of this indefinite G is singular: the pivots of T_k are 1, 0 and
    # then 2 - 1/0. The PLS iterates stop before the zero pivot, the shared
    # pivot recurrence raises no warning (warnings are errors here), and the
    # ridge row, from the whole space, is the dense solve's.
    G = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.array([1.0, 0.0, 0.0])
    (row,), pls = lanczos_paths(GramSystem(G=G, b=b, n=3), [10.0], 3)
    assert np.array_equal(pls, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert rel(row, np.linalg.solve(G + 10.0 * np.eye(3), b)) <= 1e-14


def test_compare_ridge_columns_match_the_eigendecomposition():
    # n_grid straddles n = J+1 = 41: G is nonsingular at 24 and 32 points and
    # singular at 48. Each record must name the best penalty of the
    # eigendecomposition route and its error to rounding.
    d = json.loads((CONFIGS[0].parent / "inner_small.json").read_text())
    d["model"]["J"] = 40
    cfg = replace(ExperimentConfig.from_dict(d), n_grid=(24, 32, 40, 48), replicates=2)
    model = cfg.model()
    report = compare_solvers(cfg)
    lam_grid = report.summary["lambda_grid"]
    assert len(report.records) == 8 and not report.summary["failures"]
    for rec in report.records:
        fit = fit_replicate(cfg, rec.n, rec.rep)
        scale = np.sqrt(model.eigenvalues / rec.n)
        errs = [
            spectral_error(scale * c, model, 0.0) ** 2
            for c in ridge_eigh(fit.system, lam_grid)
        ]
        best = int(np.argmin(errs))
        assert rec.ridge_lambda == lam_grid[best]
        assert rec.ridge_error == pytest.approx(errs[best], rel=1e-10)


def test_compare_never_evaluates_the_basis(monkeypatch):
    # Every solver of compare works on the Gram system, also on designs of
    # fewer than J+1 points, where the ridge grid used to decompose K = B B.T.
    d = json.loads((CONFIGS[0].parent / "inner_small.json").read_text())
    cfg = replace(ExperimentConfig.from_dict(d), n_grid=(24, 96, 200), replicates=1)

    def no_basis(*args):
        raise AssertionError("basis evaluated")

    monkeypatch.setattr(MercerKernel, "basis", no_basis)
    report = compare_solvers(cfg)
    assert len(report.records) == 3 and not report.summary["failures"]


#: The J=40 kernel of the memory test below, and the shipped J=120 and J=400.
KERNELS = {40: MercerKernel(2.0, 40), **{m.kernel.truncation: m.kernel for m in SHIPPED.values()}}

designs = st.tuples(st.integers(1, 1200), st.integers(0, 2**32 - 1), st.integers(0, 6))


def edge_design(n: int, seed: int, near: int):
    """Uniform points, the first ones replaced by exact 0 and 1 and by ``near``
    points within 1e-6 of each end; responses uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    ends = [0.0, 1.0, *(1e-6 * rng.random(near)), *(1.0 - 1e-6 * rng.random(near))]
    x[: min(n, len(ends))] = ends[:n]
    return x, rng.uniform(-1.0, 1.0, n)


def assert_matches_basis(kernel: MercerKernel, x, y) -> None:
    """from_design against from_basis, entry by entry. Each entry is measured
    against sqrt(G_jj G_kk) (b_j against sqrt(G_jj Y.Y), its Cauchy-Schwarz
    bound), with G_jj floored at xi_j, its mean over uniform designs: the
    moments give G_jj as S_0 + S_2j, which cancels where sum_i cos^2(j pi x_i)
    is far below n, as on designs of a few points (relative to G_jj alone the
    gap reached 1e-8 at n = 2, J = 400). Largest gaps in 3000 draws of these
    designs: G 1.3e-13 and b 1.1e-13, both at J = 400 and n < 10; 3.9e-14 and
    2.4e-14 from n = 64 on. The tolerance is 1e-12."""
    fast, ref = GramSystem.from_design(kernel, x, y), from_basis(kernel, x, y)
    diag = np.maximum(np.diag(ref.G), kernel.eigenvalues())
    assert np.all(np.abs(fast.G - ref.G) <= 1e-12 * np.sqrt(np.outer(diag, diag)))
    assert np.all(np.abs(fast.b - ref.b) <= 1e-12 * np.sqrt(diag * float(y @ y)))
    assert fast.n == ref.n
    assert np.array_equal(fast.G, fast.G.T)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KERNELS)), designs)
def test_gram_system_from_design_matches_the_basis_entry_by_entry(J, design):
    assert_matches_basis(KERNELS[J], *edge_design(*design))


def zero_responses(y, zeros: str):
    """Set a run of responses to zero: none, all but the last fifth
    ("leading"), the middle three fifths ("interior"), all past the first
    sixteenth ("trailing", as draw_sample pads an outer-regime design) or every
    one ("all")."""
    n = y.size
    y = y.copy()
    span = {
        "none": slice(0, 0),
        "leading": slice(0, n - max(1, n // 5)),
        "interior": slice(n // 5, n - n // 5),
        "trailing": slice(max(1, n // 16), n),
        "all": slice(0, n),
    }[zeros]
    y[span] = 0.0
    return y


#: Designs whose sizes straddle the edges of blocks and of J = 400's chunks.
edge_sized = st.tuples(
    st.sampled_from([255, 256, 257, 511, 512, 513, 1025]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([40, 400]),
    designs | edge_sized,
    st.sampled_from(["none", "leading", "interior", "trailing", "all"]),
)
@example(400, (1025, 0, 2), "leading")
@example(400, (1025, 0, 2), "interior")
@example(400, (513, 0, 2), "trailing")
@example(400, (257, 0, 2), "all")
@example(40, (511, 0, 2), "trailing")
def test_gram_system_from_design_is_the_outer_product_build_bit_for_bit(J, design, zeros):
    # G is built in place and scaled by w w.T a block of rows at a time; each
    # entry gets the float operations of one full outer product. The cosine
    # powers come a chunk of whole blocks at a time (512 points at J = 400, one
    # block at J = 40), and a block whose responses are all zero adds to S
    # alone. None of it may move a bit, wherever the zero blocks sit; with no
    # nonzero response at all, b is zero.
    x, y = edge_design(*design)
    y = zero_responses(y, zeros)
    fast, ref = GramSystem.from_design(KERNELS[J], x, y), from_moments(KERNELS[J], x, y)
    assert fast.G.tobytes() == ref.G.tobytes()
    assert fast.b.tobytes() == ref.b.tobytes()
    if zeros == "all":
        assert not fast.b.any()


@pytest.mark.parametrize("chunk", [256, 512, 768, 4096])
def test_cosine_blocks_do_not_depend_on_the_chunk(chunk):
    x = np.random.default_rng(5).random(1025)
    for (s0, a0, k0), (s1, a1, k1) in zip(
        _cosine_blocks(x, 800), _cosine_blocks(x, 800, chunk=chunk), strict=True
    ):
        assert s0 == s1
        assert a0.tobytes() == a1.tobytes() and k0.tobytes() == k1.tobytes()


def test_gram_system_from_design_allocates_one_gram_matrix():
    # G is the only (J+1)^2 array of the build: with the Toeplitz + Hankel sum
    # and the full outer product w w.T as temporaries the peak measured 2.30
    # times G's bytes at J = 400, n = 4096; built in place, 1.38.
    kernel = KERNELS[400]
    x, y = edge_design(4096, 4096, 0)
    GramSystem.from_design(kernel, x[:8], y[:8])  # first-call set-up is not the build's
    tracemalloc.start()
    try:
        GramSystem.from_design(kernel, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 401**2 * 8, peak / (401**2 * 8)


# The moments are summed a block of COSINE_BLOCK_ROWS points at a time; a
# point lost or counted twice at a block edge moves G by 1/n of its scale.
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_gram_system_from_design_at_block_edges(blocks, extra):
    n = blocks * COSINE_BLOCK_ROWS + extra
    assert_matches_basis(KERNELS[400], *edge_design(n, n, 3))


def test_negative_weighted_residual_ends_the_run_as_a_breakdown():
    # On this draw the recursively updated r @ K r of the weighted mode turns
    # negative at m=60 (rounding floor); it used to be clipped and recorded
    # as a residual of exactly 0.0.
    model = SHIPPED["inner_small"]
    rng = np.random.default_rng(32)
    n = int(rng.integers(200, 700))
    x = rng.random(n)
    # The target through the basis, as eval_target summed it when this draw
    # was found: its last bits decide where the run meets the floor.
    y = model.kernel.basis(x) @ model.target_coeffs + rng.uniform(-0.5, 0.5, n)
    trace = cg_fit(dense(model.kernel, x), y, max_iter=64)
    assert n == 639
    assert (trace.m_last, trace.breakdown_at) == (59, 60)
    assert min(trace.residual_norms) > 0.0


def test_gram_system_is_frozen_and_validated():
    model = SHIPPED[MODEL_NAMES[0]]
    x, y = [0.1, 0.4, 0.9], [1.0, 2.0, 3.0]
    system = gram_system(x, y, model)
    modes = model.eigenvalues.size
    assert system.G.shape == (modes, modes) and system.b.shape == (modes,)
    assert system.n == 3
    assert np.array_equal(system.G, system.G.T)
    B = factor(x, model)
    assert rel(system.G, B.T @ B) <= 1e-14 and rel(system.b, B.T @ y) <= 1e-14
    with pytest.raises(ValueError):
        system.G[0, 0] = 1.0
    # A caller's arrays are copied and stay writable; copy=False freezes them.
    G, b = np.eye(2), np.ones(2)
    copied = GramSystem(G=G, b=b, n=2)
    assert not np.shares_memory(copied.G, G) and not np.shares_memory(copied.b, b)
    assert G.flags.writeable and b.flags.writeable
    kept = GramSystem(G=G, b=b, n=2, copy=False)
    assert kept.G is G and np.shares_memory(kept.b, b)
    assert not G.flags.writeable and not kept.b.flags.writeable
    for args in ((x, np.ones(4)), ([], [])):
        with pytest.raises(InvalidInput):
            GramSystem.from_design(model.kernel, *args)
    with pytest.raises(InvalidInput):
        GramSystem(G=np.eye(3), b=np.ones(2), n=5)
    with pytest.raises(InvalidInput):
        gram_fit(system, max_iter=-1)
    assert gram_fit(system, max_iter=10).m_last <= 3
    with pytest.raises(ValueError):
        lanczos_paths(system, [0.0])


@pytest.mark.parametrize("n", [2.5, True, 0])
def test_gram_system_rejects_malformed_numbers(n):
    # n=2.5 or n=True used to be stored.
    with pytest.raises(InvalidInput, match="n must be a positive integer"):
        GramSystem(G=np.eye(2), b=np.ones(2), n=n)
    assert GramSystem(G=np.eye(2), b=np.ones(2), n=np.int64(2)).n == 2


@pytest.mark.parametrize(
    "stopping",
    ["discrepancy", {"kind": "holdout", "fraction": 0.2}],
    ids=["discrepancy", "holdout"],
)
def test_replicate_never_forms_an_n_by_n_array(stopping):
    d = json.loads((CONFIGS[0].parent / "inner_small.json").read_text())
    d["model"]["J"] = 40
    d["stopping"] = stopping
    cfg = ExperimentConfig.from_dict(d)
    model = cfg.model()
    n = 1500
    fit_replicate(cfg, 64, 0)  # first-call imports would count as the fit's
    tracemalloc.start()
    try:
        fit = fit_replicate(cfg, n, 0)
        fit.squared_error(0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(fit.system, GramSystem)
    assert peak < n * n * 8 / 4, peak
    # Nor an n x (J+1) one: the design enters through blocks of cosine powers,
    # so the peak stays well below the bytes of the basis. Measured: 0.32
    # (discrepancy) and 0.41 (hold-out, of which 0.16 are the predictions)
    # times those bytes; evaluating the basis once measured 1.32 and 1.30.
    basis_bytes = n * model.eigenvalues.size * 8
    assert peak < 0.5 * basis_bytes, peak / basis_bytes


def test_compare_allocates_no_more_than_its_weighted_fit():
    # The plain-residual run and the ridge grid work on the (J+1) x (J+1)
    # Gram system, and each replicate is freed before the next, so compare's
    # peak is that of its weighted replicate fit; a thin SVD of the factor
    # (or an n-vector CG history) would add n x (J+1) arrays on top.
    # Measured at n=1500, J=40: 1.006 times the fit's peak (3.2 times with
    # the SVD path).
    d = json.loads((CONFIGS[0].parent / "inner_small.json").read_text())
    d["model"]["J"] = 40
    cfg = replace(ExperimentConfig.from_dict(d), n_grid=(1499, 1500), replicates=1)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_fit = lambda: fit_replicate(cfg, 1500, 0).squared_error(0.0)
    run_compare = lambda: compare_solvers(cfg)
    # First calls import modules (numpy.ma for compare's medians, about
    # 0.5 MB), which would count as the runs' own allocations.
    run_fit()
    run_compare()
    fit_peak = peak(run_fit)
    compare_peak = peak(run_compare)
    assert compare_peak <= 1.05 * fit_peak, (compare_peak, fit_peak)
