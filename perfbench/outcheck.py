"""Output check: recompute a seeded subset of replicates independently.

Each checked replicate is redrawn with ``derive_seed`` and ``draw_sample``,
its dense kernel matrix is formed from ``MercerKernel.gram``, and its errors
come from ``error_norm``. Iterates come from ``cg_fit`` on that dense matrix,
and the first ``ORACLE_DEPTH`` of them must match ``krylov_oracle`` (explicit
Krylov basis plus dense least squares, independent of the CG recursion).
The oracle is not used deeper: its power basis loses numerical rank after
about ten steps on these kernels (iterate difference 1e-8 at step 8, 1e-4
at step 10), while the hold-out rule reads up to 64 iterates.

The stop index is re-derived by its rule from independently computed
residuals or validation losses, and it and every squared error must agree
with the CSV the CLI wrote, within ``REL_TOL``. Byte identity with a stored
reference is not required: a correct change to the kernel operator moves
the last bits.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from kernelcg import (
    KernelMatrix,
    ThresholdParams,
    cg_fit,
    derive_seed,
    draw_sample,
    error_norm,
    krylov_oracle,
    padded_total,
    threshold_calibrated,
    threshold_inner,
    threshold_outer,
)

#: Relative tolerance on squared errors and thresholds, and on residuals or
#: validation losses that decide a stop index: CG and the oracle reach the
#: same iterate by different arithmetic and differ far below this.
REL_TOL = 1e-6

#: Iterates compared with ``krylov_oracle``; at this depth the two differ
#: by under 1e-11 relative on the shipped models.
ORACLE_DEPTH = 6

#: Replicates recomputed per run.
N_CHECKS = 3

#: Largest design a checked replicate may have. Every oracle call
#: eigendecomposes the dense matrix, about 0.7 s at 1449 rows on one core.
MAX_CHECK_ROWS = 1536

#: Iterates the hold-out rule chooses among (the harness caps hold-out
#: traces at this many iterations).
HOLDOUT_ITERATIONS = 64

CSV_NAMES = {"rates": "rates.csv", "holdout": "holdout.csv", "compare": "compare.csv"}
REPORT_NAMES = {"rates": "rate_report.json", "holdout": "holdout_report.json"}


@dataclass(frozen=True)
class Outcome:
    failed: int  # listed in the report's failures, or missing from the CSV
    checked: tuple[tuple[int, int], ...]  # (n, rep) recomputed
    mismatches: tuple[str, ...]  # one line per checked replicate that disagreed


class Mismatch(Exception):
    """A checked replicate disagrees with its recomputation."""


def read_rows(path: str) -> list[dict]:
    """CSV rows of a CLI artifact, skipping the provenance comment line."""
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def replicates(rows: list[dict]) -> dict[tuple[int, int], list[dict]]:
    out: dict[tuple[int, int], list[dict]] = {}
    for row in rows:
        out.setdefault((int(row["n"]), int(row["rep"])), []).append(row)
    return out


def design_rows(cfg, kind: str, n: int) -> int:
    if cfg.regime == "outer":
        return padded_total(n, cfg.r, cfg.s)
    if kind == "holdout":
        return n - _n_val(cfg, n)
    return n


def pick(cfg, kind: str, found, seed: int) -> list[tuple[int, int]]:
    """Seeded choice of up to ``N_CHECKS`` replicates small enough to check."""
    small = sorted(k for k in found if design_rows(cfg, kind, k[0]) <= MAX_CHECK_ROWS)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(small), size=min(N_CHECKS, len(small)), replace=False)
    return sorted(small[i] for i in chosen)


def check_outputs(kind: str, cfg, out_dir: str, seed: int) -> Outcome:
    """Count failed replicates and recompute a seeded subset of the rest."""
    found = replicates(read_rows(os.path.join(out_dir, CSV_NAMES[kind])))
    reported = 0
    if kind in REPORT_NAMES:
        with open(os.path.join(out_dir, REPORT_NAMES[kind])) as handle:
            failures = json.load(handle)["failures"]
        reported = sum(1 for f in failures if f.startswith("n="))
    failed = max(reported, len(cfg.n_grid) * cfg.replicates - len(found))
    picks = pick(cfg, kind, found, seed)
    model = cfg.model()
    mismatches = []
    for key in picks:
        try:
            _check_one(kind, cfg, model, key, found[key])
        except Mismatch as exc:
            mismatches.append(f"n={key[0]} rep={key[1]}: {exc}")
    return Outcome(failed, tuple(picks), tuple(mismatches))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _n_val(cfg, n: int) -> int:
    # The holdout subcommand validates on a fifth when the config names no fraction.
    return max(1, round((cfg.holdout_fraction or 0.2) * n))


def _dense(kernel, x) -> KernelMatrix:
    g = kernel.gram(x, x)
    return KernelMatrix(entries=(g + g.T) / (2.0 * x.size), n=x.size)


def _weighted_residual(K: KernelMatrix, y, alpha) -> float:
    r = y - K.entries @ alpha
    return math.sqrt(max(float(r @ (K.entries @ r)), 0.0) / K.n)


def _omega(cfg, model, n: int) -> float:
    params = ThresholdParams(
        M=model.noise.M, kappa=model.kappa, D=model.ed_constant, n=n,
        gamma=cfg.gamma, r=model.r, s=model.s, tau_prime=cfg.tau_prime, rho=model.rho,
    )
    if cfg.threshold == "calibrated":
        n_ref = float(np.exp(np.mean(np.log(np.asarray(cfg.n_grid, dtype=float)))))
        trace_k = float(np.sum(model.eigenvalues))
        return threshold_calibrated(params, model.noise_std, trace_k, n_ref).omega
    if cfg.regime == "inner":
        return threshold_inner(params).omega
    return threshold_outer(params).omega


def _iterates(K: KernelMatrix, y, last: int, mode: str = "kn_norm") -> np.ndarray:
    """CG iterates 0..last on the dense matrix, fewer if CG breaks down; the
    first ``ORACLE_DEPTH + 1`` must match the oracle."""
    trace = cg_fit(K, y, max_iter=last, mode=mode)
    for m in range(min(ORACLE_DEPTH, trace.m_last) + 1):
        ref = krylov_oracle(K, y, m, mode=mode)
        if np.linalg.norm(trace.alphas[m] - ref) > REL_TOL * np.linalg.norm(ref):
            raise Mismatch(f"{mode} CG departs from krylov_oracle at iterate {m}")
    return trace.alphas


def _at(alphas: np.ndarray, m: int) -> np.ndarray:
    if not 0 <= m < len(alphas):
        raise Mismatch(f"stop index {m} outside the {len(alphas)} iterates CG reaches")
    return alphas[m]


def _discrepancy_alpha(K: KernelMatrix, y, omega: float, m_hat: int) -> np.ndarray:
    """Iterate at m_hat, which must be the first whose residual is below omega.

    Residuals of the nested Krylov minimizers never increase, so checking
    m_hat and m_hat - 1 covers every earlier index.
    """
    alphas = _iterates(K, y, m_hat)
    alpha = _at(alphas, m_hat)
    below = _weighted_residual(K, y, alpha) < omega * (1 + REL_TOL)
    if not below or (m_hat > 0 and _weighted_residual(K, y, alphas[m_hat - 1]) < omega * (1 - REL_TOL)):
        raise Mismatch(f"m_hat {m_hat} is not the discrepancy stop for omega={omega!r}")
    return alpha


def _holdout_alpha(K: KernelMatrix, cross, y_train, y_val, clip: float, m_hat: int) -> np.ndarray:
    """Iterate at m_hat, which must have the smallest clipped validation loss,
    the earliest index winning ties."""
    alphas = _iterates(K, y_train, min(K.n, HOLDOUT_ITERATIONS))
    alpha = _at(alphas, m_hat)
    losses = np.mean((np.clip(alphas @ cross.T, -clip, clip) - y_val) ** 2, axis=1)
    best = losses[m_hat]
    if best > losses.min() * (1 + REL_TOL) or np.any(losses[:m_hat] <= best * (1 - REL_TOL)):
        raise Mismatch(f"m_hat {m_hat} is not the hold-out choice")
    return alpha


def _sq_error(model, alpha, anchor, theta: float) -> float:
    return error_norm(alpha, anchor, model, theta).error_value ** 2


def _check_one(kind: str, cfg, model, key, rows: list[dict]) -> None:
    n, rep = key
    seed = derive_seed(cfg.master_seed, n, rep)
    if any(int(row["seed"]) != seed for row in rows):
        raise Mismatch(f"seed column differs from derive_seed ({seed})")
    outer = cfg.regime == "outer"
    sample = draw_sample(model, n, unlabeled=outer, seed=seed)
    if outer:
        x = np.concatenate([sample.X_labeled, sample.X_unlabeled])
        y = sample.Y_padded
    else:
        x, y = sample.X_labeled, sample.Y
    kernel = model.kernel

    if kind == "compare":
        (row,) = rows
        K = _dense(kernel, x)
        cgme_m = int(row["cgme_m"])
        checks = [
            ("cg_error", _discrepancy_alpha(K, y, _omega(cfg, model, n), int(row["cg_m_hat"]))),
            ("cgme_error", _at(_iterates(K, y, cgme_m, mode="euclidean"), cgme_m)),
            ("ridge_error", np.linalg.solve(K.entries + float(row["ridge_lambda"]) * np.eye(K.n), y)),
        ]
        for column, alpha in checks:
            got = _sq_error(model, alpha, x, 0.0)
            if not _close(got, float(row[column])):
                raise Mismatch(f"{column} {row[column]} vs recomputed {got!r}")
        return

    m_hats = {int(row["m_hat"]) for row in rows}
    if len(m_hats) != 1:
        raise Mismatch(f"rows disagree on m_hat: {sorted(m_hats)}")
    (m_hat,) = m_hats
    if kind == "holdout":
        n_train = n - _n_val(cfg, n)
        x_anchor = x[:n_train]
        cross = kernel.gram(x[n_train:], x_anchor) / n_train
        alpha = _holdout_alpha(
            _dense(kernel, x_anchor), cross, y[:n_train], y[n_train:], model.noise.M, m_hat
        )
    else:
        x_anchor = x
        omega = _omega(cfg, model, n)
        if any(not _close(float(row["omega"]), omega) for row in rows):
            raise Mismatch(f"omega {rows[0]['omega']} vs recomputed {omega!r}")
        alpha = _discrepancy_alpha(_dense(kernel, x), y, omega, m_hat)
    for row in rows:
        got = _sq_error(model, alpha, x_anchor, float(row["theta"]))
        if not _close(got, float(row["error"])):
            raise Mismatch(f"error at theta={row['theta']} {row['error']} vs recomputed {got!r}")
