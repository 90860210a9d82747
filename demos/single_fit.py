#!/usr/bin/env python3
"""Fit one synthetic sample end to end and show where the iteration stops.

Builds the canonical smooth scenario, draws 256 design points, runs the
weighted-residual solver on the factored kernel operator (the n x 401
factor of K, never the 256 x 256 matrix), and stops at the calibrated
discrepancy threshold. Everything is seeded, so the printed numbers are
reproducible.
"""

import numpy as np

from kernelcg import (
    ThresholdParams,
    UniformBounded,
    build_factored_kernel,
    cg_fit,
    discrepancy_stop,
    draw_sample,
    error_norm,
    make_model,
    threshold_calibrated,
)

N = 256
SEED = 20260801

model = make_model(s=0.5, r=1.0, rho=1.0, truncation=400, noise=UniformBounded(1.0))
sample = draw_sample(model, N, seed=SEED)

K = build_factored_kernel(sample.X_labeled, model.kernel)
trace = cg_fit(K, sample.Y)

params = ThresholdParams(
    M=model.noise.M, kappa=model.kappa, D=model.ed_constant, n=N,
    gamma=0.05, r=model.r, s=model.s, tau_prime=2.0, rho=model.rho,
)
threshold = threshold_calibrated(
    params, model.noise_std, float(np.sum(model.eigenvalues)), n_ref=float(N)
)
m_hat = discrepancy_stop(trace, threshold.omega)

print(f"n = {N}, seed = {SEED}")
print(f"threshold omega = {threshold.omega:.6g}")
print(f"large-sample condition for the confidence guarantee: {threshold.admissible}")
print(f"stopped at iteration m_hat = {m_hat} of {trace.m_last} computed")
print()
print("iter  weighted residual")
for m, res in enumerate(trace.residual_norms[: m_hat + 3]):
    marker = "  <- stop" if m == m_hat else ""
    print(f"{m:4d}  {res:.6g}{marker}")
print()
for theta, label in ((0.0, "prediction norm"), (0.5, "RKHS norm")):
    report = error_norm(trace.alphas[m_hat], sample.X_labeled, model, theta)
    print(f"error at m_hat, theta={theta:g} ({label}): {report.error_value:.6g}")
