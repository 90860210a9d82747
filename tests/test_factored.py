"""Property tests of the factored kernel operator against the dense matrix.

The factored operator K = B B.T is the operator of every replicate; the
dense ``KernelMatrix`` and ``krylov_oracle`` are the independent
references. Points are uniform draws, spectra those of the shipped configs.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcg import (
    FactoredKernel,
    GaussianKernel,
    NotReached,
    Unsupported,
    build_factored_kernel,
    build_kernel_matrix,
    cg_fit,
    discrepancy_stop,
    eval_target,
    kn_inner,
    krylov_oracle,
    ridge_path,
)
from kernelcg.harness import ExperimentConfig, fit_replicate

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


def operators(x, model):
    return (
        build_factored_kernel(x, model.kernel),
        build_kernel_matrix(x, model.kernel),
    )


def rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


cases = st.tuples(
    st.sampled_from(MODEL_NAMES), st.integers(2, 600), st.integers(0, 2**32 - 1)
)


@settings(max_examples=25, deadline=None)
@given(cases)
def test_matvec_matches_dense(case):
    name, n, seed = case
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    factored, dense = operators(x, model)
    assert factored.n == dense.n == n
    assert rel(factored.matvec(y), dense.matvec(y)) <= 1e-12
    block = np.random.default_rng(seed).standard_normal((n, 3))
    assert rel(factored.matvec(block), dense.matvec(block)) <= 1e-12
    assert kn_inner(y, y, factored) == pytest.approx(kn_inner(y, y, dense), rel=1e-12)


# Coefficient vectors alpha are compared up to m=7 on designs of at least
# 64 points, the smallest size in the shipped grids; the spectral property
# below compares deeper iterates. alpha itself carries the condition number
# of K: on fewer points 8 steps can reach the exact solve K^-1 Y, and
# before reorthogonalization the largest gap over 3200 draws was 2.8e-11 at
# m <= 7 but 2.6e-9 at m=8. Discrepancy stops lie at m <= 5 on every
# shipped config, and the stop index is compared over 8 steps.
@settings(max_examples=25, deadline=None)
@given(cases.filter(lambda c: c[1] >= 64), st.floats(0.05, 2.0))
def test_cg_iterates_and_stop_match_dense(case, scale):
    name, n, seed = case
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    factored, dense = operators(x, model)
    fast = cg_fit(factored, y, max_iter=8)
    ref = cg_fit(dense, y, max_iter=8)
    for m in range(min(fast.m_last, ref.m_last, 7) + 1):
        assert np.linalg.norm(fast.alphas[m] - ref.alphas[m]) <= 1e-9 * np.linalg.norm(
            ref.alphas[m]
        ), m
    omega = scale * model.noise_std
    try:
        expected = discrepancy_stop(ref, omega)
    except NotReached:
        with pytest.raises(NotReached):
            discrepancy_stop(fast, omega)
    else:
        assert discrepancy_stop(fast, omega) == expected


# Factored and dense traces agree at every iterate hold-out reads, compared
# in spectral coefficients Phi.T alpha, which fix the estimator. m is capped
# at n/2: near the full space the minimizer is ill-conditioned in itself
# (n=67, outer_r025_s05 spectrum: a 1e-15 relative change of Y alone moves
# the dense iterate at m=64 by 1.2e-7), so no recursion agrees to 1e-8
# there. Runs on more points than the rank J+1 may reach the rounding floor
# and stop a few steps short of 64. Largest gaps measured on 600 draws of 64
# to 600 points per mode: 1.2e-9 for kn_norm, and 9.1e-6 for euclidean,
# whose alpha is ill-conditioned once n exceeds J+1. CG without
# reorthogonalization differed by up to 0.27 (kn_norm) and 0.21
# (euclidean) on 30 such draws.
SPECTRAL_RTOL = {"kn_norm": 1e-8, "euclidean": 1e-4}


@settings(max_examples=25, deadline=None)
@given(cases.filter(lambda c: c[1] >= 64), st.sampled_from(["kn_norm", "euclidean"]))
def test_deep_iterates_match_dense_in_spectral_coefficients(case, mode):
    name, n, seed = case
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    factored, dense = operators(x, model)
    phi = model.kernel.basis(x)
    fast = cg_fit(factored, y, max_iter=64, mode=mode)
    ref = cg_fit(dense, y, max_iter=64, mode=mode)
    for m in range(1, min(fast.m_last, ref.m_last, 64, n // 2) + 1):
        assert rel(fast.alphas[m] @ phi, ref.alphas[m] @ phi) <= SPECTRAL_RTOL[mode], m


# The stop only ends the loop; the recursion is untouched, so the stopped
# trace must be the unstopped one cut at its stop, bit for bit.
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
    for K in operators(x, model):
        full = cg_fit(K, y, mode=mode)
        omega = 10.0**log_scale * full.residual_norms[0]
        stopped = cg_fit(K, y, mode=mode, stop=lambda m, res, a: res < omega)
        m = stopped.m_last
        assert np.array_equal(stopped.alphas, full.alphas[: m + 1])
        assert np.array_equal(stopped.residual_norms, full.residual_norms[: m + 1])
        if stopped.residual_norms[-1] < omega:
            assert stopped.breakdown_at is None
            assert np.array_equal(stopped.basis_norms, full.basis_norms[:m])
        else:
            assert m == full.m_last
            assert stopped.breakdown_at == full.breakdown_at
            assert np.array_equal(stopped.basis_norms, full.basis_norms)
        assert discrepancy_stop(stopped, omega) == discrepancy_stop(full, omega) == m


# 32 iterates on designs of at least 64 points: in about 1100 draws of 64
# to 600 points the largest gap was 0.4 of the tolerance. Smaller designs are
# compared over 6 iterates, because 32 steps reach or approach their exact
# solve K^-1 Y, where the gap reached 200 times the tolerance (n=28).
@settings(max_examples=25, deadline=None)
@given(cases, st.sampled_from(["kn_norm", "euclidean"]))
def test_oracle_on_factored_operator_matches_cg(case, mode):
    name, n, seed = case
    model = SHIPPED[name]
    x, y = draw(n, seed, model)
    factored = build_factored_kernel(x, model.kernel)
    trace = cg_fit(factored, y, max_iter=32 if n >= 64 else 6, mode=mode)
    for m in range(trace.m_last + 1):
        oracle = krylov_oracle(factored, y, m, mode=mode)
        diff = trace.alphas[m] - oracle
        gap = np.sqrt(max(kn_inner(diff, diff, factored), 0.0))
        assert gap <= 1e-8 * (1 + np.linalg.norm(y) / np.sqrt(n)), (m, gap)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MODEL_NAMES), st.booleans(), st.integers(0, 2**32 - 1))
def test_ridge_path_matches_dense_solve(name, wide, seed):
    # wide: fewer points than modes, so the factor has full row rank;
    # otherwise K is singular and (Y - U U.T Y) / lam carries the null space.
    model = SHIPPED[name]
    modes = model.eigenvalues.size
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, modes)) if wide else int(rng.integers(modes + 1, modes + 200))
    x, y = draw(n, seed, model)
    factored, dense = operators(x, model)
    lams = model.kappa * np.logspace(-6.0, 0.0, 20)
    path = ridge_path(factored, y, lams)
    assert path.shape == (lams.size, n)
    for lam, alpha in zip(lams, path):
        direct = np.linalg.solve(dense.entries + lam * np.eye(n), y)
        assert rel(alpha, direct) <= 1e-8, lam


def test_factored_operator_is_frozen_and_validated():
    model = SHIPPED[MODEL_NAMES[0]]
    K = build_factored_kernel([0.1, 0.4, 0.9], model.kernel)
    assert K.factor.shape == (3, model.eigenvalues.size)
    with pytest.raises(ValueError):
        K.factor[0, 0] = 1.0
    with pytest.raises(ValueError):
        FactoredKernel(factor=np.ones((3, 2)), n=4)
    with pytest.raises(Unsupported):
        build_factored_kernel([0.1, 0.2], GaussianKernel(bandwidth=0.5))
    with pytest.raises(ValueError):
        ridge_path(K, np.ones(3), [0.0])


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
    tracemalloc.start()
    try:
        fit = fit_replicate(cfg, model, n, 0)
        fit.squared_error(model, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(fit.K, FactoredKernel)
    assert peak < n * n * 8 / 4, peak
