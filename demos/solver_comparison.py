#!/usr/bin/env python3
"""Compare the weighted-residual solver against its plain-residual twin and ridge.

On shared samples, the weighted run stops by the calibrated threshold; the
plain-residual variant reports the first iteration reaching the same accuracy;
ridge reports its best penalty from a 20-point log grid. The plain-residual
iterates and all 20 ridge solutions of a replicate come from one Lanczos run
on the (J+1) x (J+1) Gram matrix G = B.T B of the kernel factor, on either
side of n = J+1 (this J = 200 grid has n = 64 and 128 below it).
"""

from kernelcg import ExperimentConfig, UniformBounded, compare_solvers

config = ExperimentConfig(
    s=0.5, r=1.0, rho=1.0, J=200,
    noise=UniformBounded(1.0),
    n_grid=(64, 128, 256),
    replicates=5,
    gamma=0.05,
    tau_prime=2.0,
    theta_list=(0.0,),
    master_seed=101,
)

summary = compare_solvers(config).summary
lam_grid = summary["lambda_grid"]

print(f"lambda grid: {len(lam_grid)} points [{lam_grid[0]:.2e} .. {lam_grid[-1]:.2e}]")
print()
print("   n  weighted m_hat  error        plain m  matched  ridge error")
for row in summary["medians"]:
    print(
        f"{row['n']:4d}  {row['cg_m_hat']:14g}  {row['cg_error']:.3e}  "
        f"{row['cgme_m']:7g}  {row['match_rate']:7.0%}  {row['ridge_error']:.3e}"
    )
print()
print("errors are squared prediction-norm distances, medians over replicates")
