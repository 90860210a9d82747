"""Conjugate-gradient solvers over Krylov spaces, a ridge baseline, and an oracle.

``cg_fit`` runs the normal-equations recursion: at step m it returns the
coefficient vector minimizing the kernel-weighted residual seminorm over the
Krylov space span{Y, KY, ..., K^(m-1)Y}. The ``euclidean`` mode swaps every
weighted inner product for the plain rescaled Euclidean one, which is the
classical minimum-error / partial-least-squares variant. The recursion
reorthogonalizes every new direction against all earlier ones, so late
iterates do not depend on rounding, and two operators for the same matrix
give the same trace up to the conditioning of the solve. ``krylov_oracle``
solves the same minimization by explicit basis construction and dense least
squares; it is deliberately independent of the recursion so the two can
check each other. Both take either kernel operator. ``ridge_fit`` solves one
penalized system on a dense matrix; ``ridge_path`` solves a whole penalty
grid from one thin SVD of a factored kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .kernels import FactoredKernel, KernelMatrix, KernelOperator, KernelSpec

Mode = Literal["kn_norm", "euclidean"]

#: Breakdown is declared when a basis norm falls to this fraction of the first.
BREAKDOWN_RTOL = 1e-12

#: ``krylov_oracle`` treats a new Krylov vector as dependent when its part
#: orthogonal to the basis so far is at most this fraction of its norm.
ORACLE_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class CgTrace:
    """Complete per-iteration record of one conjugate-gradient run.

    Fields
    ------
    alphas : ndarray, shape (m_last + 1, n)
        Row m is the coefficient vector after m iterations; row 0 is zero.
    residual_norms : list of float
        Norm of Y - K @ alpha_m for m = 0..m_last, measured in the norm the
        mode minimizes (kernel-weighted for ``kn_norm``, rescaled Euclidean
        for ``euclidean``). Non-increasing in m.
    basis_norms : list of float
        Norm of each new basis vector before normalization, one entry per
        attempted iteration (including the one at which breakdown was
        declared, when it was).
    breakdown_at : int or None
        Iteration index at which the run stopped early, either because the
        basis norm fell below tolerance or because the step no longer
        reduced the residual (numerical floor reached).
    m_last : int
        Number of completed iterations.
    mode : str
        Which norm the run minimized.
    """

    alphas: np.ndarray
    residual_norms: list[float]
    basis_norms: list[float]
    breakdown_at: int | None
    m_last: int
    mode: str

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)


@dataclass(frozen=True)
class RidgeSolution:
    """Coefficients of the penalized least-squares baseline at one lambda."""

    alpha: np.ndarray
    lam: float

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


def _check_system(K: KernelOperator, Y) -> np.ndarray:
    y = np.asarray(Y, dtype=float).ravel()
    if y.size != K.n:
        raise InvalidInput(f"dimension mismatch: Y has {y.size}, matrix has {K.n}")
    return y


def cg_fit(
    K: KernelOperator,
    Y,
    max_iter: int | None = None,
    mode: Mode = "kn_norm",
    stop: Callable[[int, float, np.ndarray], bool] | None = None,
) -> CgTrace:
    """Run the conjugate-gradient recursion and record every iterate up to the stop.

    Each new search direction is projected twice against all stored
    directions in the mode's inner product (full reorthogonalization), so
    the directions stay orthonormal to rounding however long the run. The
    stored directions take three n-vectors per iteration run (two in
    ``euclidean`` mode).

    Parameters
    ----------
    K : KernelMatrix or FactoredKernel
        Normalized kernel operator; only its ``matvec`` is used.
    Y : array-like, shape (n,)
        Response vector.
    max_iter : int, optional
        Iteration budget; defaults to n and is capped at n.
    mode : {"kn_norm", "euclidean"}
        Norm minimized over the growing Krylov spaces.
    stop : callable, optional
        ``stop(m, residual_norm, alpha)``, called on iterate 0 and after every
        recorded iterate; the run ends at the first True. The recursion does
        not change, so a stopped trace is a bit-exact prefix of the full one.

    Returns
    -------
    CgTrace

    Raises
    ------
    InvalidInput
        On dimension mismatch or unknown mode.
    NumericalFailure
        If a non-finite value appears; carries the iteration index.
    """
    if mode not in ("kn_norm", "euclidean"):
        raise InvalidInput(f"mode must be 'kn_norm' or 'euclidean', got {mode!r}")
    y = _check_system(K, Y)
    n = K.n
    if max_iter is None:
        max_iter = n
    max_iter = min(int(max_iter), n)
    if max_iter < 0:
        raise InvalidInput(f"max_iter must be nonnegative, got {max_iter}")

    weighted = mode == "kn_norm"

    def mode_norm(vec: np.ndarray, kvec: np.ndarray) -> float:
        # kvec must equal K @ vec; the weighted norm reuses it for free.
        if weighted:
            return float(np.sqrt(max(vec @ kvec, 0.0) / n))
        return float(np.sqrt((vec @ vec) / n))

    alpha = np.zeros(n)
    r = y.copy()
    kr = K.matvec(r)
    d = y.copy()
    t = kr.copy()  # t = K @ d throughout

    # The k normalized directions so far: dirs[0, j] = d_j, dirs[1, j] = t_j
    # and, in the weighted mode, dirs[2, j] = K t_j, so dirs[-1, :k] @ v / n
    # are the mode inner products of v with every t_j. Capacity doubles with
    # the iterations actually run, from a size that does not depend on
    # max_iter, so a stopped run grows exactly like a full one.
    dirs = np.empty((3 if weighted else 2, 8, n))
    k = 0

    alphas = [alpha.copy()]
    residual_norms = [mode_norm(r, kr)]
    basis_norms: list[float] = []
    breakdown_at: int | None = None
    break_floor: float | None = None
    if stop is not None and stop(0, residual_norms[0], alpha):
        max_iter = 0

    m_done = 0
    for i in range(1, max_iter + 1):
        kt = K.matvec(t)
        s = mode_norm(t, kt)
        if not np.isfinite(s):
            raise NumericalFailure(
                f"non-finite basis norm at iteration {i}", iteration=i
            )
        basis_norms.append(s)
        if break_floor is None:
            break_floor = BREAKDOWN_RTOL * s
        if s <= break_floor:
            breakdown_at = i
            break

        t /= s
        d /= s
        kt /= s
        if k == dirs.shape[1]:
            dirs = np.concatenate([dirs, np.empty_like(dirs)], axis=1)
        dirs[:, k] = (d, t, kt) if weighted else (d, t)
        k += 1

        # Projecting the current residual is algebraically identical to
        # projecting the full response (earlier basis vectors are orthogonal
        # to it) but does not amplify late-iteration basis drift.
        gamma = float(r @ kt) / n if weighted else float(r @ t) / n
        if not np.isfinite(gamma):
            raise NumericalFailure(
                f"non-finite projection at iteration {i}", iteration=i
            )
        alpha_new = alpha + gamma * d
        r_new = r - gamma * t
        kr_new = kr - gamma * kt
        res_new = mode_norm(r_new, kr_new)

        if res_new > residual_norms[-1]:
            # No progress: the basis has degenerated to rounding noise, so
            # the step carries no information. Discard it and stop.
            breakdown_at = i
            break
        alpha, r, kr = alpha_new, r_new, kr_new

        alphas.append(alpha.copy())
        residual_norms.append(res_new)
        m_done = i
        if stop is not None and stop(i, res_new, alpha):
            break

        beta = float(kt @ kr) / n if weighted else float(t @ kr) / n
        d = r - beta * d
        t = kr - beta * t  # equals K @ d by linearity
        # Full reorthogonalization: two Gram-Schmidt passes against every
        # stored direction in the mode's inner product. The same
        # coefficients come off d, so t = K @ d still holds.
        for _ in range(2):
            c = dirs[-1, :k] @ t / n
            d -= c @ dirs[0, :k]
            t -= c @ dirs[1, :k]

    return CgTrace(
        alphas=np.array(alphas),
        residual_norms=residual_norms,
        basis_norms=basis_norms,
        breakdown_at=breakdown_at,
        m_last=m_done,
        mode=mode,
    )


def krylov_oracle(K: KernelOperator, Y, m: int, mode: Mode = "kn_norm") -> np.ndarray:
    """Directly minimize the mode's residual norm over the order-m Krylov space.

    Builds an orthonormal basis of {Y, KY, ..., K^(m-1)Y} one Krylov vector
    at a time, each Gram-Schmidt orthogonalized twice, and solves the reduced
    least-squares problem densely. The weighted mode measures residuals
    through the operator's ``sqrt_matvec``. The basis stops growing when a
    new vector lies in the span of the previous ones to within
    ``ORACLE_RANK_RTOL`` of its norm, so m beyond the reachable space returns
    the terminal solution.
    """
    if mode not in ("kn_norm", "euclidean"):
        raise InvalidInput(f"mode must be 'kn_norm' or 'euclidean', got {mode!r}")
    y = _check_system(K, Y)
    n = K.n
    m = int(m)
    if m < 0:
        raise InvalidInput(f"m must be nonnegative, got {m}")
    if m == 0 or not np.any(y):
        return np.zeros(n)

    cols: list[np.ndarray] = []
    v = y
    for _ in range(min(m, n)):
        w = v.copy()
        for _ in range(2):
            for q in cols:
                w -= (q @ w) * q
        norm = float(np.linalg.norm(w))
        if norm <= ORACLE_RANK_RTOL * float(np.linalg.norm(v)):
            break
        cols.append(w / norm)
        v = K.matvec(cols[-1])
    u = np.column_stack(cols)

    ku = K.matvec(u)
    if mode == "euclidean":
        coef, *_ = np.linalg.lstsq(ku, y, rcond=None)
    else:
        weighted = K.sqrt_matvec(np.column_stack([ku, y]))
        coef, *_ = np.linalg.lstsq(weighted[:, :-1], weighted[:, -1], rcond=None)
    return u @ coef


def ridge_fit(K: KernelMatrix, Y, lam: float) -> RidgeSolution:
    """Solve (K + lam * I) alpha = Y by a symmetric positive-definite solve."""
    if not lam > 0:
        raise InvalidInput(f"lambda must be positive, got {lam}")
    y = _check_system(K, Y)
    # Imported here: scipy.linalg adds about 0.25 s to start-up and no
    # subcommand solves a dense ridge system.
    import scipy.linalg

    a = K.entries + lam * np.eye(K.n)
    factor = scipy.linalg.cho_factor(a, lower=True)
    alpha = scipy.linalg.cho_solve(factor, y)
    return RidgeSolution(alpha=alpha, lam=float(lam))


def ridge_path(K: FactoredKernel, Y, lams) -> np.ndarray:
    """Ridge coefficients for every penalty in ``lams`` from one thin SVD.

    With the factor B = U diag(s) V.T, K = U diag(s^2) U.T, so
    (K + lam * I)^-1 Y = U diag(1 / (s^2 + lam)) U.T Y + (Y - U U.T Y) / lam.
    Row i of the result solves the system at ``lams[i]``.
    """
    lams = [float(lam) for lam in lams]
    for lam in lams:
        if not lam > 0:
            raise InvalidInput(f"lambda must be positive, got {lam}")
    y = _check_system(K, Y)
    u, s, _ = np.linalg.svd(K.factor, full_matrices=False)
    uty = u.T @ y
    rest = y - u @ uty
    s2 = s * s
    return np.array([u @ (uty / (s2 + lam)) + rest / lam for lam in lams])


def predict(alpha, train_points, kernel: KernelSpec, query_points) -> np.ndarray:
    """Evaluate the kernel expansion (1/n) * sum_i alpha_i k(X_i, x) pointwise."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    x = np.asarray(train_points, dtype=float).ravel()
    if alpha.size != x.size:
        raise InvalidInput(
            f"dimension mismatch: alpha has {alpha.size}, train has {x.size}"
        )
    q = np.atleast_1d(np.asarray(query_points, dtype=float)).ravel()
    cross = kernel.gram(q, x)
    return (cross @ alpha) / x.size
