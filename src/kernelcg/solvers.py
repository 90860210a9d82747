"""Conjugate-gradient solvers over Krylov spaces, Lanczos ridge and PLS paths, and an oracle.

Every CG run here is one recursion: for an operator A and a right-hand side
y, iterate m minimizes the residual of A x = y over the Krylov space
K_m(A, y) = span{y, Ay, ..., A^(m-1) y} in the inner product
<u, v> = u.T A^p v / n. Following Hanke (1995), the methods differ only in A
and the power p:

    call                        A   p   minimizes over alpha in K_m(K, Y)
    cg_fit(K, Y, "kn_norm")     K   1   |Y - K alpha| in the kernel norm
    cg_fit(K, Y, "euclidean")   K   0   |Y - K alpha| (kernel PLS)
    gram_fit(G)                 G   0   the same as cg_fit "kn_norm"

The recursion reorthogonalizes every new direction against all earlier ones,
so late iterates do not depend on rounding.

For a finite-rank kernel K = B B.T every residual, error and prediction
depends on alpha only through c = B.T alpha, and alpha lies in K_m(K, Y)
exactly when c lies in K_m(G, b), with G = B.T B and b = B.T Y
(``kernels.GramSystem``). The kernel-norm residual is |b - G c|, power 0 on
G, so ``gram_fit`` runs the weighted mode at O(modes^2) per step, whatever n
is. The Euclidean residual is, up to a constant, the power -1 norm of
b - G c, minimized by plain CG on G c = b: ``lanczos_paths`` gives those
kernel-PLS iterates and a whole ridge grid from one Lanczos run on (G, b).
``krylov_oracle`` solves the CG minimizations by explicit basis construction
and dense least squares, independently of the recursion. No subcommand runs
``cg_fit`` or ``krylov_oracle``: they are the dense reference that the tests
and the benchmark's output check hold ``gram_fit`` to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .kernels import GramSystem, KernelMatrix

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
        A ``gram_fit`` trace holds c_m = B.T alpha_m instead, one column per
        mode.
    residual_norms : list of float
        Norm of Y - K @ alpha_m for m = 0..m_last, measured in the norm the
        mode minimizes (kernel-weighted for ``kn_norm``, rescaled Euclidean
        for ``euclidean``). Non-increasing in m.
    breakdown_at : int or None
        Iteration index at which the run stopped early, either because the
        basis norm fell below tolerance or because the step no longer
        reduced the residual (numerical floor reached).
    n : int
        Row count of the system the run solved (the rows of B for a
        ``gram_fit`` trace); no budget exceeds it.

    ``m_last``, the number of completed iterations, is ``len(alphas) - 1``.
    """

    alphas: np.ndarray
    residual_norms: list[float]
    breakdown_at: int | None
    n: int

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)

    @property
    def m_last(self) -> int:
        return len(self.alphas) - 1


def _check_system(K: KernelMatrix, Y) -> np.ndarray:
    y = np.asarray(Y, dtype=float).ravel()
    if y.size != K.n:
        raise InvalidInput(f"dimension mismatch: Y has {y.size}, matrix has {K.n}")
    return y


def _count(name: str, value) -> int:
    """A nonnegative whole number as an int, read as config integers are read:
    whole floats pass; booleans, strings, fractions, NaN and infinities do not."""
    try:
        whole = not isinstance(value, (bool, str)) and int(value) == value
    except (OverflowError, TypeError, ValueError):
        whole = False
    if not whole:
        raise InvalidInput(f"{name} must be a whole number, got {value!r}")
    if value < 0:
        raise InvalidInput(f"{name} must be nonnegative, got {value!r}")
    return int(value)


def _check_mode(mode: str) -> None:
    if mode not in ("kn_norm", "euclidean"):
        raise InvalidInput(f"mode must be 'kn_norm' or 'euclidean', got {mode!r}")


def cg_fit(K: KernelMatrix, Y, max_iter: int | None = None, mode: Mode = "kn_norm") -> CgTrace:
    """Run the conjugate-gradient recursion on the dense matrix and record every iterate.

    The module's recursion on the normalized matrix K (only its ``matvec``
    is used) at power 1 (``kn_norm``) or 0 (``euclidean``), the dense
    reference for ``gram_fit``, storing three n-vectors per iteration (two
    in ``euclidean`` mode). ``max_iter`` defaults to n and is capped at n.
    The run ends early, with ``breakdown_at`` set, when a new direction's
    norm falls to ``BREAKDOWN_RTOL`` of the first, when a step no longer
    reduces the residual, or when a weighted squared residual comes out
    negative (the rounding floor); that step is not recorded. Raises
    InvalidInput on a dimension mismatch or unknown mode, and
    NumericalFailure, with the iteration, on a non-finite value.

    The ``euclidean`` mode drifts from the exact Krylov minimizer when K has
    rank below n: the n-vectors carry the part of Y outside the range of K,
    which dwarfs the reachable residual. On the J = 120 cosine spectra from
    n of about 500, alpha_m's spectral coefficients are off by up to about
    1e-4 relative past m of about 50, while the Gram-space iterates, which
    carry no such part, stay close to it; in the ``kn_norm`` mode ``cg_fit``
    and ``gram_fit`` agree to about 5e-8.
    """
    _check_mode(mode)
    y = _check_system(K, Y)
    return _recursion(K.matvec, y, K.n, max_iter, 1 if mode == "kn_norm" else 0)


def _recursion(matvec, y, n, max_iter, power, omega=None) -> CgTrace:
    """The CG loop behind ``cg_fit`` and ``gram_fit``; ``power`` is the module's p, 1 or 0.

    A is applied by ``matvec``. The directions come in pairs d_j and
    t_j = A d_j, the t_j orthonormal in <u, v> = u.T A^power v / n; A r and
    A t are carried along by linearity, and the residual norm is
    sqrt(<r, r>). ``max_iter`` is capped at n. With ``omega`` the run ends at
    the first recorded residual norm below it, iterate 0 included.
    """
    max_iter = n if max_iter is None else min(_count("max_iter", max_iter), n)

    x = np.zeros(y.size)
    r, d = y.copy(), y.copy()
    kr = matvec(r)
    t = kr.copy()  # t = A @ d throughout

    # The k normalized directions so far: dirs[0, j] = d_j, dirs[1, j] = t_j
    # and, at power 1, dirs[2, j] = A t_j.
    dirs = np.empty((3 if power == 1 else 2, 8, y.size))
    k = 0

    xs = [x.copy()]
    residual_norms = [float(np.sqrt(max((r @ (kr if power == 1 else r)) / n, 0.0)))]
    breakdown_at: int | None = None
    break_floor: float | None = None
    if omega is not None and residual_norms[0] < omega:
        max_iter = 0

    for i in range(1, max_iter + 1):
        kt = matvec(t)
        # w = A^power t, so <u, t> = u @ w / n.
        w = kt if power == 1 else t
        s = float(np.sqrt(max((t @ w) / n, 0.0)))
        if not np.isfinite(s):
            raise NumericalFailure(f"non-finite basis norm at iteration {i}", iteration=i)
        if break_floor is None:
            break_floor = BREAKDOWN_RTOL * s
        if s <= break_floor:
            breakdown_at = i
            break

        t /= s
        d /= s
        kt /= s
        if k == dirs.shape[1]:
            # Capacity doubles with the iterations actually run, from a size
            # independent of max_iter, so a stopped run grows like a full one;
            # it never exceeds max_iter. One new array and a copy: no
            # temporary besides the two.
            grown = np.empty((len(dirs), min(2 * k, max_iter), y.size))
            grown[:, :k] = dirs
            dirs = grown
        dirs[:, k] = (d, t, kt)[: len(dirs)]
        k += 1

        # Projecting the current residual is algebraically identical to
        # projecting the full response (earlier basis vectors are orthogonal
        # to it) but does not amplify late-iteration basis drift.
        gamma = float(r @ w) / n
        if not np.isfinite(gamma):
            raise NumericalFailure(f"non-finite projection at iteration {i}", iteration=i)
        x_new = x + gamma * d
        r_new = r - gamma * t
        kr_new = kr - gamma * kt
        res_sq = (r_new @ (kr_new if power == 1 else r_new)) / n

        if res_sq < 0.0 or np.sqrt(res_sq) > residual_norms[-1]:
            # A negative weighted square or no progress: the basis has
            # degenerated to rounding noise, so the step carries no
            # information. Discard it and stop.
            breakdown_at = i
            break
        x, r, kr = x_new, r_new, kr_new

        xs.append(x.copy())
        residual_norms.append(float(np.sqrt(res_sq)))
        if omega is not None and residual_norms[-1] < omega:
            break

        # beta = <A r, t>. Dropping w frees now the t or A t it may hold,
        # which the next lines replace.
        beta = float(w @ kr) / n
        del w
        d = r - beta * d
        t = kr - beta * t  # equals A @ d by linearity
        # Full reorthogonalization: two Gram-Schmidt passes against every
        # stored direction in the mode's inner product, <t, t_j> =
        # dirs[-1, j] @ t / n. The same coefficients come off d and t, so
        # t = A @ d still holds.
        for _ in range(2):
            c = dirs[-1, :k] @ t / n
            d -= c @ dirs[0, :k]
            t -= c @ dirs[1, :k]

    return CgTrace(np.array(xs), residual_norms, breakdown_at, n)


def gram_fit(
    system: GramSystem, max_iter: int | None = None, omega: float | None = None
) -> CgTrace:
    """``cg_fit``'s ``kn_norm`` run on the factor's column space: row m is c_m = B.T alpha_m.

    ``_recursion`` at power 0 on G c = b, the conjugate-residual method on G:
    c_m minimizes |b - G c| = |B.T (Y - K alpha)| over K_m(G, b), at one
    product with G, O(modes^2), per step whatever n is. Takes ``cg_fit``'s
    budget (capped at n, the rows of B), breakdown rules and
    reorthogonalization, and records the same residual norms. With ``omega``
    the run ends at the first recorded residual norm below it, iterate 0
    included; the recursion does not change, so a stopped trace is a
    bit-exact prefix of the full one.
    """
    G = system.G
    return _recursion(lambda v: G @ v, system.b, system.n, max_iter, 0, omega)


def krylov_oracle(K: KernelMatrix, Y, m: int, mode: Mode = "kn_norm") -> np.ndarray:
    """Directly minimize the mode's residual norm over the order-m Krylov space.

    Builds an orthonormal basis of {Y, KY, ..., K^(m-1)Y} one Krylov vector
    at a time, each Gram-Schmidt orthogonalized twice, and solves the reduced
    least-squares problem densely. The weighted mode measures residuals
    through the matrix's ``sqrt_matvec``. The basis stops growing when a
    new vector lies in the span of the previous ones to within
    ``ORACLE_RANK_RTOL`` of its norm, so m beyond the reachable space returns
    the terminal solution. A basis of n columns spans R^n, where both modes
    are least at K^-1 Y; that is solved directly, since the weighted least
    squares on R K U has condition number cond(K)^1.5.
    """
    _check_mode(mode)
    y = _check_system(K, Y)
    n = K.n
    m = _count("m", m)
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
    if len(cols) == n:
        return np.linalg.solve(K.entries, y)
    u = np.column_stack(cols)

    ku = K.matvec(u)
    if mode == "euclidean":
        coef, *_ = np.linalg.lstsq(ku, y, rcond=None)
    else:
        weighted = K.sqrt_matvec(np.column_stack([ku, y]))
        coef, *_ = np.linalg.lstsq(weighted[:, :-1], weighted[:, -1], rcond=None)
    return u @ coef


#: ``lanczos_paths`` stops once every penalty's residual is at most this
#: fraction of |b|. Worst relative gap of a row from a dense solve, over 96
#: draws of the four shipped models on both sides of n = J+1:
#:     tolerance   1e-10   1e-12   1e-13
#:     worst gap   2.0e-7  2.4e-9  1.5e-10
#:     most steps  115     129     136
RIDGE_RTOL = 1e-13


def _ldl_solve(piv: np.ndarray, betas: list[float], scale: float, last: int | None = None):
    """Column s is scale (T + s I)^-1 e_1, from the LDL.T pivots of T + s I in
    ``piv`` (a row per step, a column per shift s) and T's off-diagonal
    ``betas``. With ``last``, column m = 0..last solves the leading m x m system."""
    sub = np.array(betas[: len(piv) - 1])[:, None] / piv[:-1]  # L's subdiagonal
    y = np.cumprod(np.vstack([np.full(piv.shape[1], scale), -sub]), axis=0) / piv
    if last is not None:
        y = np.triu(np.broadcast_to(y, (len(y), last + 1)), 1)
    for j in range(len(y) - 2, -1, -1):
        y[j] -= sub[j] * y[j + 1]
    return y


# Column 0's pivots, T_k's, may pass zero past the PLS cut; the others exceed lam.
@np.errstate(divide="ignore", over="ignore")
def lanczos_paths(system: GramSystem, lams, pls_iter: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Ridge rows at every penalty in ``lams`` and the kernel-PLS iterates, from one Lanczos run.

    K_k(G + lam I, b) = K_k(G, b) (Frommer & Maass 1999), so k Lanczos steps
    on (G, b), with two Gram-Schmidt passes each as in ``_recursion``, give
    row i = |b| Q_k (T_k + lam_i I)^-1 e_1 ~ (G + lam_i I)^-1 b. One recurrence
    gives the pivots pi_j = alpha_j + s - beta_(j-1)^2 / pi_(j-1) at the
    shifts s = 0, for the unshifted iterates c_m = |b| Q_m T_m^-1 e_1, and
    s = lam_i, whose residual over |b| is the product of beta_j / |pi_j|. The
    run stops once every such residual is at most ``RIDGE_RTOL`` and
    ``pls_iter`` steps are done, or when the space is exhausted (beta_k at
    most ``BREAKDOWN_RTOL`` of |G q_1|, or k at the modes). The c_m are plain
    CG's on G c = b: B.T alpha_m for ``cg_fit``'s ``euclidean`` (kernel PLS)
    iterates alpha_m. No eigensolver runs, but from about 128 steps at
    J = 400 the closing BLAS products with Q_k vary in their last bits with
    the thread count.

    Returns ``(ridge, pls)``: shapes (len(lams), modes) and (m + 1, modes),
    rows c_0 = 0 .. c_m with m = min(pls_iter, n, steps), cut before a pivot
    of T_m that is not positive.
    """
    grid = np.asarray(lams, dtype=float)
    if grid.ndim != 1:
        raise InvalidInput(f"lams must be a 1-D grid of penalties, got shape {grid.shape}")
    if not np.all((grid > 0) & (grid < np.inf)):
        raise InvalidInput(f"penalties must be positive and finite, got {grid.tolist()}")
    pls_iter = _count("pls_iter", pls_iter)
    G, b = system.G, system.b
    modes, norm_b = b.size, math.sqrt(b @ b)
    if norm_b == 0.0:
        return np.zeros((grid.size, modes)), np.zeros((1, modes))

    shifts = np.concatenate(([0.0], grid))  # column 0 is T_k's, for the PLS iterates
    q = np.empty((min(8, modes), modes))  # the Lanczos vectors, one per row
    q[0] = b / norm_b
    alphas, betas = [], []
    piv, res = np.empty((modes, shifts.size)), np.ones(grid.size)  # res: residuals over |b|
    while True:
        k = len(alphas)
        w = G @ q[k]
        if not k:
            floor = BREAKDOWN_RTOL * math.sqrt(w @ w)
        qk = q[: k + 1]
        h = qk @ w  # the first pass's coefficient on q_k is alpha_k
        alphas.append(float(h[k]))
        w -= h @ qk
        w -= (qk @ w) @ qk
        beta = math.sqrt(w @ w)
        if not math.isfinite(beta + alphas[-1]):
            raise NumericalFailure(f"non-finite Lanczos step {k + 1}", iteration=k + 1)
        piv[k] = alphas[-1] + shifts - (betas[-1] ** 2 / piv[k - 1] if k else 0.0)
        res *= beta / np.abs(piv[k, 1:])
        converged = k + 1 >= pls_iter and res.max(initial=0.0) <= RIDGE_RTOL
        if beta <= floor or k + 1 == modes or converged:
            break
        betas.append(beta)
        if k + 1 == len(q):  # capacity doubles, as in _recursion
            grown = np.empty((min(2 * len(q), modes), modes))
            grown[: k + 1] = q
            q = grown
        q[k + 1] = w / beta

    ridge = _ldl_solve(piv[: k + 1, 1:], betas, norm_b).T @ q[: k + 1]
    m = int(np.cumprod(piv[: min(pls_iter, system.n, k + 1), 0] > 0).sum())
    if not m:
        return ridge, np.zeros((1, modes))
    y = _ldl_solve(piv[:m, :1], betas, norm_b, last=m)
    return ridge, y.T @ q[:m]
