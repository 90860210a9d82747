"""Property tests of the Gram-space solvers against the dense kernel matrix.

Every replicate runs on the (J+1) x (J+1) ``GramSystem`` of the cosine
kernel, built from cosine moments of the design (``GramSystem.from_design``).
That build is checked entry by entry against ``reference.from_basis``, the
same system formed from the basis matrix. The solvers (``gram_fit``,
``ridge_path``) are checked against ``cg_fit`` on the dense ``KernelMatrix``
(``reference.dense``), against dense solves and against an explicit-basis
minimizer; ``cg_fit`` itself is checked against ``krylov_oracle``. Points
are uniform draws, spectra those of the shipped configs.
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
    ridge_path,
    spectral_error,
)
from kernelcg.harness import ExperimentConfig, compare_solvers, fit_replicate
from kernelcg.kernels import COSINE_BLOCK_ROWS
from reference import dense, factor, from_basis, quad

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
# system's runs are those of compare's PLS run and of hold-out; on the
# J=120 and J=400 spectra its traces have more columns than the n <= 300
# rows, so discrepancy_stop must read the trace's n.
@settings(max_examples=25, deadline=None)
@given(
    cases.filter(lambda c: c[1] <= 300),
    st.sampled_from(["kn_norm", "euclidean"]),
    st.floats(-4.0, 0.2),
)
def test_stopped_trace_is_a_prefix_of_the_full_run(case, mode, log_scale):
    name, n, seed = case
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    system = gram_system(x, y, model)
    full = gram_fit(system, mode=mode)
    omega = 10.0**log_scale * full.residual_norms[0]
    stopped = gram_fit(system, mode=mode, stop=lambda m, res, c: res < omega)
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
# 37% of 200 draws, by run and mode), which also ends in its last index.
@pytest.mark.parametrize("mode", ["kn_norm", "euclidean"])
def test_exhausted_gram_trace_stops_where_cg_fit_stops(mode):
    model = SHIPPED["inner_small"]
    both_full = 0
    for seed in range(10):
        x, y = draw(12, seed, model)
        ref = cg_fit(dense(model.kernel, x), y, mode=mode)
        fast = gram_fit(gram_system(x, y, model), mode=mode)
        assert discrepancy_stop(fast, 1e-300) == fast.m_last
        assert discrepancy_stop(ref, 1e-300) == ref.m_last
        for trace in (ref, fast):
            assert trace.breakdown_at is not None or trace.m_last == trace.n == 12
        if ref.breakdown_at is None and fast.breakdown_at is None:
            both_full += 1
            assert discrepancy_stop(fast, 1e-300) == discrepancy_stop(ref, 1e-300) == 12
    assert both_full >= 3


def krylov_minimizers(system: GramSystem, m_max: int, mode: str) -> list[np.ndarray]:
    """Exact minimizers over K_m(G, b), m = 0..m_max, by an explicit
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
        if mode == "euclidean":
            out.append(u @ np.linalg.solve(u.T @ G @ u, u.T @ b))
        else:
            out.append(u @ np.linalg.lstsq(G @ u, b, rcond=None)[0])
    return out


# gram_fit's row c_m must equal B.T alpha_m from cg_fit on the dense matrix,
# at every m <= min(64, n/2) both reach. Largest gaps over 400 draws of 64 to
# 1600 points: 4.5e-8 in kn_norm mode, and 1.6e-9 in euclidean mode on the
# J=400 spectra. On the J=120 spectra from about n=500, cg_fit's Euclidean
# recursion drifts from the exact Krylov minimizer by up to 9.4e-5 (its
# n-vectors carry the part of Y outside the range of K, which has rank
# J+1 < n and dwarfs the reachable residual), while gram_fit stays within
# 2.9e-13 of it; there the test checks gram_fit against the explicit-basis
# minimizer instead. Both runs reach the rounding floor on the J=120 spectra
# at large n and may then end a few steps apart (up to 7 in 400 draws); the
# extra steps lower the residual by at most 4.5e-9 of its start.
@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(MODEL_NAMES),
    st.integers(64, 1600),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["kn_norm", "euclidean"]),
)
def test_gram_fit_matches_cg_fit_on_the_dense_matrix(name, n, seed, mode):
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    system = gram_system(x, y, model)
    budget = min(64, n // 2)
    ref = cg_fit(dense(model.kernel, x), y, max_iter=budget, mode=mode)
    fast = gram_fit(system, max_iter=budget, mode=mode)
    if fast.m_last != ref.m_last:
        short, long = sorted((fast, ref), key=lambda t: t.m_last)
        assert short.breakdown_at == short.m_last + 1
        extra = long.residual_norms[short.m_last] - long.residual_norms[-1]
        assert extra <= 1e-7 * long.residual_norms[0], (short.m_last, long.m_last)
    common = min(fast.m_last, ref.m_last)
    ref_c = ref.alphas[: common + 1] @ factor(x, model)
    exact = None
    for m in range(1, common + 1):
        gap = rel(fast.alphas[m], ref_c[m])
        if mode == "euclidean" and gap > 1e-7:
            if exact is None:
                exact = krylov_minimizers(system, common, mode)
            assert rel(ref_c[m], exact[m]) > 1e-8, m
            assert rel(fast.alphas[m], exact[m]) <= 1e-10, m
        else:
            assert gap <= 1e-7, m
    assert fast.residual_norms[: common + 1] == pytest.approx(
        ref.residual_norms[: common + 1], rel=1e-6, abs=1e-8 * ref.residual_norms[0]
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.booleans(), st.integers(0, 2**32 - 1))
def test_ridge_path_matches_dense_solve(name, wide, seed):
    # wide: fewer points than modes, so K is nonsingular; otherwise K is
    # singular and G = B.T B is, with eigenvalues down to about 1e-18 when n
    # is near the number of modes.
    model = SHIPPED[name]
    modes = model.eigenvalues.size
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, modes)) if wide else int(rng.integers(modes + 1, modes + 200))
    # Given the factor, a wide design decomposes K instead of G; a tall one
    # keeps the G route bit for bit.
    x, y = draw(n, seed, model)
    K = dense(model.kernel, x)
    B = factor(x, model)
    lams = model.kappa * np.logspace(-6.0, 0.0, 20)
    system = gram_system(x, y, model)
    path = ridge_path(system, lams)
    by_rows = ridge_path(system, lams, (B, y))
    if not wide:
        assert np.array_equal(by_rows, path)
    for p in (path, by_rows):
        assert p.shape == (lams.size, modes)
        assert np.all(np.isfinite(p))
    for lam, c, c_rows in zip(lams, path, by_rows):
        direct = B.T @ np.linalg.solve(K.entries + lam * np.eye(n), y)
        assert rel(c, direct) <= 1e-8, lam
        assert rel(c_rows, direct) <= 1e-8, lam
        assert rel(c_rows, c) <= 1e-8, lam


@pytest.mark.parametrize("n", [5, 130], ids=["wide", "tall"])
def test_ridge_path_grid_edge_cases(n):
    # Both routes return (0, modes) for an empty grid and refuse a 2-D one;
    # a factor that does not fit the system is refused.
    model = SHIPPED["inner_small"]
    x, y = draw(n, n, model)
    system = gram_system(x, y, model)
    rows = (factor(x, model), y)
    for r in (None, rows):
        assert ridge_path(system, [], r).shape == (0, model.eigenvalues.size)
        with pytest.raises(InvalidInput):
            ridge_path(system, [[1.0, 2.0]], r)
        with pytest.raises(InvalidInput):
            ridge_path(system, [1.0, 0.0], r)
    with pytest.raises(InvalidInput):
        ridge_path(system, [1.0], (rows[0][:, 1:], y))
    with pytest.raises(InvalidInput):
        ridge_path(system, [1.0], (rows[0], y[1:]))


def test_compare_ridge_columns_match_the_gram_route():
    # n_grid straddles the 41 modes: 24 and 40 points take the K route, 48 the
    # G route. Each record must equal the G route's best penalty and error.
    d = json.loads((CONFIGS[0].parent / "inner_small.json").read_text())
    d["model"]["J"] = 40
    cfg = replace(ExperimentConfig.from_dict(d), n_grid=(24, 40, 48), replicates=2)
    model = cfg.model()
    report = compare_solvers(cfg)
    assert len(report.records) == 6 and not report.failures
    for rec in report.records:
        fit = fit_replicate(cfg, model, rec.n, rec.rep)
        scale = np.sqrt(model.eigenvalues / rec.n)
        errs = [
            spectral_error(scale * c, model, 0.0) ** 2
            for c in ridge_path(fit.system, report.lambda_grid)
        ]
        best = int(np.argmin(errs))
        assert rec.ridge_lambda == pytest.approx(report.lambda_grid[best], rel=1e-10)
        assert rec.ridge_error == pytest.approx(errs[best], rel=1e-10)


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
    assert np.all(np.abs(fast.b - ref.b) <= 1e-12 * np.sqrt(diag * ref.yy))
    assert fast.yy == pytest.approx(ref.yy, rel=1e-13)
    assert fast.n == ref.n
    assert np.array_equal(fast.G, fast.G.T)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KERNELS)), designs)
def test_gram_system_from_design_matches_the_basis_entry_by_entry(J, design):
    assert_matches_basis(KERNELS[J], *edge_design(*design))


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
    assert (system.yy, system.n) == (14.0, 3)
    assert np.array_equal(system.G, system.G.T)
    B = factor(x, model)
    assert rel(system.G, B.T @ B) <= 1e-14 and rel(system.b, B.T @ y) <= 1e-14
    with pytest.raises(ValueError):
        system.G[0, 0] = 1.0
    # A caller's arrays are copied and stay writable; copy=False freezes them.
    G, b = np.eye(2), np.ones(2)
    copied = GramSystem(G=G, b=b, yy=1.0, n=2)
    assert not np.shares_memory(copied.G, G) and not np.shares_memory(copied.b, b)
    assert G.flags.writeable and b.flags.writeable
    kept = GramSystem(G=G, b=b, yy=1.0, n=2, copy=False)
    assert kept.G is G and np.shares_memory(kept.b, b)
    assert not G.flags.writeable and not kept.b.flags.writeable
    for args in ((x, np.ones(4)), ([], [])):
        with pytest.raises(InvalidInput):
            GramSystem.from_design(model.kernel, *args)
    with pytest.raises(InvalidInput):
        GramSystem(G=np.eye(3), b=np.ones(2), yy=1.0, n=5)
    with pytest.raises(InvalidInput):
        gram_fit(system, mode="plain")
    with pytest.raises(InvalidInput):
        gram_fit(system, max_iter=-1)
    assert gram_fit(system, max_iter=10).m_last <= 3
    with pytest.raises(ValueError):
        ridge_path(system, [0.0])


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
    fit_replicate(cfg, model, 64, 0)  # first-call imports would count as the fit's
    tracemalloc.start()
    try:
        fit = fit_replicate(cfg, model, n, 0)
        fit.squared_error(model, 0.0)
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
    model = cfg.model()

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_fit = lambda: fit_replicate(cfg, model, 1500, 0).squared_error(model, 0.0)
    run_compare = lambda: compare_solvers(cfg)
    # First calls import modules (numpy.ma for compare's medians, about
    # 0.5 MB), which would count as the runs' own allocations.
    run_fit()
    run_compare()
    fit_peak = peak(run_fit)
    compare_peak = peak(run_compare)
    assert compare_peak <= 1.05 * fit_peak, (compare_peak, fit_peak)
