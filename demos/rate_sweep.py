#!/usr/bin/env python3
"""Run a convergence-rate sweep through the library API.

Runs the seeded replicate grid for the smooth inner scenario, fits log-log
slopes through the median errors, and compares them with the theoretical
exponents -2(r - theta)/(2r + s). This is the same scenario that
`kernelcg rates --config configs/inner_r1_s05.json` runs from the command
line, which additionally writes CSV/JSON/TSV artifacts.
"""

from kernelcg import ExperimentConfig, UniformBounded, run_experiment

config = ExperimentConfig(
    s=0.5, r=1.0, rho=1.0, J=400,
    noise=UniformBounded(1.0),
    n_grid=(64, 128, 256, 512, 1024, 2048),
    replicates=20,
    gamma=0.05,
    tau_prime=2.0,
    theta_list=(0.0, 0.5),
    master_seed=101,
)

summary = run_experiment(config).summary

print(f"regime: {summary['regime']}, config hash {summary['config_hash'][:12]}...")
print()
print("   n  theta  median error (squared)   median m_hat")
for p in summary["per_point"]:
    print(f"{p['n']:4d}  {p['theta']:5g}  {p['median_error']:22.6g}  {p['median_m_hat']:12g}")
print()
for s in summary["slopes"]:
    print(
        f"theta={s['theta']:g}: fitted slope {s['slope']:+.3f}, "
        f"theory {s['theoretical_exponent']:+.3f}, gap {s['slope_gap']:+.3f}"
    )
