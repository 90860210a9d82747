#!/usr/bin/env python3
"""Fit one synthetic sample end to end and show where the iteration stops.

Builds the canonical smooth scenario, draws 256 design points, runs the
weighted-residual solver on the 401 x 401 Gram system of the kernel, built
from cosine moments of the design (never the 256 x 256 matrix, nor the
256 x 401 basis), and stops at the calibrated discrepancy threshold.
Everything is seeded, so the printed numbers are reproducible.
"""

import numpy as np

from kernelcg import (
    GramSystem,
    ThresholdParams,
    UniformBounded,
    discrepancy_stop,
    draw_sample,
    gram_fit,
    make_model,
    spectral_error,
    threshold_calibrated,
)

N = 256
SEED = 20260801

model = make_model(s=0.5, r=1.0, rho=1.0, truncation=400, noise=UniformBounded(1.0))
sample = draw_sample(model, N, seed=SEED)

system = GramSystem.from_design(model.kernel, sample.X_labeled, sample.Y)
trace = gram_fit(system)

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
# Row m of a Gram-space trace is c_m = B.T alpha_m for B = Phi * sqrt(xi / n);
# the estimator's eigen-coefficients are sqrt(xi / n) * c_m.
spectrum = np.sqrt(model.eigenvalues / N) * trace.alphas[m_hat]
for theta, label in ((0.0, "prediction norm"), (0.5, "RKHS norm")):
    error = spectral_error(spectrum, model, theta)
    print(f"error at m_hat, theta={theta:g} ({label}): {error:.6g}")
