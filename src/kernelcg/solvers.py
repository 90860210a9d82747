"""Conjugate-gradient solvers over Krylov spaces, a ridge path, and an oracle.

Every CG run here is one recursion: for an operator A and a right-hand side
y, iterate m minimizes the residual of A x = y over the Krylov space
K_m(A, y) = span{y, Ay, ..., A^(m-1) y} in the inner product
<u, v> = u.T A^p v / n. Following Hanke (1995), the methods differ only in A
and the power p:

    call                        A   p   minimizes over alpha in K_m(K, Y)
    cg_fit(K, Y, "kn_norm")     K   1   |Y - K alpha| in the kernel norm
    cg_fit(K, Y, "euclidean")   K   0   |Y - K alpha| (kernel PLS)
    gram_fit(G, "kn_norm")      G   0   the same as cg_fit "kn_norm"
    gram_fit(G, "euclidean")    G  -1   the same as cg_fit "euclidean"

The recursion reorthogonalizes every new direction against all earlier ones,
so late iterates do not depend on rounding.

For a finite-rank kernel K = B B.T every residual, error and prediction
depends on alpha only through c = B.T alpha, and alpha lies in K_m(K, Y)
exactly when c lies in K_m(G, b), with G = B.T B and b = B.T Y
(``GramSystem``). The kernel-norm residual is |b - G c|, power 0 on G. The
squared Euclidean one, Y.Y - 2 b.c + c.G c, differs by a constant from the
squared power -1 norm of b - G c (G inverted on its range, which holds the
Krylov space). So
``gram_fit`` runs both modes at O(modes^2) per step, whatever n is.
``ridge_path`` solves a whole penalty grid from one eigendecomposition: of
G, or of the n x n kernel matrix K = B B.T when the caller passes a factor B
with fewer rows n than modes.
``krylov_oracle`` solves the same minimizations by explicit basis
construction and dense least squares; it is deliberately independent of the
recursion so the two can check each other. No subcommand runs ``cg_fit`` or
``krylov_oracle``: with ``kernels.KernelMatrix`` they are the dense reference
that the tests and the benchmark's output check hold ``gram_fit`` to.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable, Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInput, NumericalFailure
from .kernels import KernelMatrix, MercerKernel, _cosine_blocks

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
    m_last : int
        Number of completed iterations.
    n : int
        Row count of the system the run solved (the rows of B for a
        ``gram_fit`` trace); no budget exceeds it.
    """

    alphas: np.ndarray
    residual_norms: list[float]
    breakdown_at: int | None
    m_last: int
    n: int

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)


def _check_system(K: KernelMatrix, Y) -> np.ndarray:
    y = np.asarray(Y, dtype=float).ravel()
    if y.size != K.n:
        raise InvalidInput(f"dimension mismatch: Y has {y.size}, matrix has {K.n}")
    return y


@dataclass(frozen=True)
class GramSystem:
    """Kernel CG's system in the column space of a factor B, K = B B.T.

    Fields
    ------
    G : ndarray, shape (modes, modes)
        Gram matrix B.T @ B.
    b : ndarray, shape (modes,)
        Projected response B.T @ Y.
    yy : float
        Y @ Y, which the Euclidean residual needs besides G and b.
    n : int
        Number of rows of B; residual norms are rescaled by it, as in
        ``cg_fit``.

    G and b are copied and frozen on construction; ``copy=False`` freezes
    them in place instead, for arrays that nothing else holds.
    """

    G: np.ndarray
    b: np.ndarray
    yy: float
    n: int
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        as_array = np.array if copy else np.asarray
        G = as_array(self.G, dtype=float)
        b = as_array(self.b, dtype=float).ravel()
        if G.ndim != 2 or G.shape != (b.size, b.size):
            raise InvalidInput(
                f"G must be square with one row per entry of b, got {G.shape} and {b.size}"
            )
        if self.n < 1:
            raise InvalidInput(f"n must be positive, got {self.n}")
        G.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_design(cls, kernel: MercerKernel, points, Y) -> "GramSystem":
        """System of the cosine kernel's normalized matrix at ``points``, without its basis.

        With Phi the eigenfunction matrix at the n points and w = sqrt(xi / n),
        the factor is B = Phi * w, so G = (Phi.T Phi) * w w.T and
        b = w * (Phi.T Y). As 2 cos(j pi x) cos(k pi x) =
        cos((j - k) pi x) + cos((j + k) pi x), Phi.T Phi is a Toeplitz plus a
        Hankel matrix in S_l = sum_i cos(l pi x_i), l = 0..2J, with sqrt(2) S_k
        on the constant mode's row and column, and Phi.T Y needs
        P_j = sum_i y_i cos(j pi x_i). These moments and Y.Y are summed over
        blocks of ``COSINE_BLOCK_ROWS`` points in a fixed order: memory is
        O(COSINE_BLOCK_ROWS * sqrt(J) + J^2), and the sums do not depend on
        the BLAS thread count. An entry of G is accurate to rounding on the
        scale sqrt(xi_j xi_k), its mean over uniform designs.
        """
        x = np.asarray(points, dtype=float).ravel()
        y = np.asarray(Y, dtype=float).ravel()
        if y.size < 1 or x.size != y.size:
            raise InvalidInput(f"{x.size} points do not match {y.size} responses")
        J = kernel.truncation
        S = P = yy = 0.0
        for start, za, zk in _cosine_blocks(x, 2 * J):
            yc = y[start : start + za.shape[1]]
            # P needs l <= J, which block rows a <= J // width hold.
            za_p = za[: J // len(zk) + 1]
            zk = zk.view(float).T
            S = S + za.view(float) @ zk
            za_p *= yc
            P = P + za_p.view(float) @ zk
            yy += float(yc @ yc)
        S = S.ravel()[: 2 * J + 1]
        P = P.ravel()[: J + 1]
        toeplitz = sliding_window_view(np.concatenate((S[J:0:-1], S[: J + 1])), J + 1)[::-1]
        G = toeplitz + sliding_window_view(S, J + 1)
        G[0] = np.sqrt(2.0) * S[: J + 1]
        G[:, 0] = G[0]
        G[0, 0] = S[0]
        w = np.sqrt(kernel.eigenvalues() / y.size)
        G *= np.outer(w, w)
        phi_y = np.sqrt(2.0) * P
        phi_y[0] = P[0]
        return cls(G=G, b=w * phi_y, yy=yy, n=y.size, copy=False)


def _check_mode(mode: str) -> None:
    if mode not in ("kn_norm", "euclidean"):
        raise InvalidInput(f"mode must be 'kn_norm' or 'euclidean', got {mode!r}")


def cg_fit(K: KernelMatrix, Y, max_iter: int | None = None, mode: Mode = "kn_norm") -> CgTrace:
    """Run the conjugate-gradient recursion on the dense matrix and record every iterate.

    This is the module's one recursion on K, at power 1 (``kn_norm``) or 0
    (``euclidean``): the dense reference that ``gram_fit`` is checked
    against. Its reorthogonalization stores three n-vectors per iteration
    run (two in ``euclidean`` mode).

    The ``euclidean`` mode drifts from the exact Krylov minimizer when K has
    rank below n, as a finite-rank kernel has once n is well above its
    number of modes: the n-vectors carry the part of Y outside the range of
    K, which dwarfs the reachable residual. On the J = 120 cosine spectra
    from n of about 500, the spectral coefficients of alpha_m are off by up
    to about 1e-4 relative past m of about 50. ``gram_fit`` on the kernel's
    ``GramSystem`` stays within 3.3e-12 of the minimizer there; in the
    ``kn_norm`` mode the two agree to about 5e-8.

    Parameters
    ----------
    K : KernelMatrix
        Normalized kernel matrix; only its ``matvec`` is used.
    Y : array-like, shape (n,)
        Response vector.
    max_iter : int, optional
        Iteration budget; defaults to n and is capped at n.
    mode : {"kn_norm", "euclidean"}
        Norm minimized over the growing Krylov spaces.

    Returns
    -------
    CgTrace
        The run ends early, with ``breakdown_at`` set, when a new direction's
        norm falls to ``BREAKDOWN_RTOL`` of the first, when a step no longer
        reduces the residual, or when a weighted squared residual comes out
        negative (the recursion has reached its rounding floor); the step
        that ended it is not recorded.

    Raises
    ------
    InvalidInput
        On dimension mismatch or unknown mode.
    NumericalFailure
        If a non-finite value appears; carries the iteration index.
    """
    _check_mode(mode)
    y = _check_system(K, Y)
    return _recursion(K.matvec, y, K.n, max_iter, 1 if mode == "kn_norm" else 0, None)


def _recursion(matvec, y, n, max_iter, power, stop, yy=None) -> CgTrace:
    """The CG loop behind ``cg_fit`` and ``gram_fit``; ``power`` is the module's p.

    A is applied by ``matvec``, and power is 1, 0 or -1. The directions come
    in pairs d_j and t_j = A d_j, the t_j orthonormal in <u, v> =
    u.T A^power v / n. For power >= 0, A r and A t are carried along by
    linearity and the residual norm is sqrt(<r, r>). For power -1,
    A^-1 t = d, so nothing more is carried: t is recomputed as A d after the
    reorthogonalization (carrying it drifts), and the norm recorded is the
    Euclidean residual of the n-row problem, sqrt((yy - 2 y.x + x.A x) / n),
    with ``yy`` = Y.Y. ``max_iter`` is capped at n.
    """
    max_iter = n if max_iter is None else min(int(max_iter), n)
    if max_iter < 0:
        raise InvalidInput(f"max_iter must be nonnegative, got {max_iter}")
    carry = power >= 0

    def residual_sq(x: np.ndarray, r: np.ndarray, kr: np.ndarray | None) -> float:
        if carry:
            return (r @ (kr if power == 1 else r)) / n
        return (yy - 2.0 * float(y @ x) + float(x @ matvec(x))) / n

    x = np.zeros(y.size)
    r, d = y.copy(), y.copy()
    kr = kt = None
    if carry:
        kr = matvec(r)
        t = kr.copy()  # t = A @ d throughout

    # The k normalized directions so far: dirs[0, j] = d_j, dirs[1, j] = t_j
    # and, at power 1, dirs[2, j] = A t_j.
    dirs = np.empty((3 if power == 1 else 2, 8, y.size))
    k = 0

    xs = [x.copy()]
    residual_norms = [float(np.sqrt(max(residual_sq(x, r, kr) if carry else yy / n, 0.0)))]
    breakdown_at: int | None = None
    break_floor: float | None = None
    if stop is not None and stop(0, residual_norms[0], x):
        max_iter = 0

    m_done = 0
    for i in range(1, max_iter + 1):
        if carry:
            kt = matvec(t)
        else:
            t = matvec(d)
        # w = A^power t, so <u, t> = u @ w / n.
        w = (d, t, kt)[power + 1]
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
        if carry:
            kt /= s
        if k == dirs.shape[1]:
            # Capacity doubles with the iterations actually run, from a size
            # independent of max_iter, so a stopped run grows like a full one.
            dirs = np.concatenate([dirs, np.empty_like(dirs)], axis=1)
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
        kr_new = kr - gamma * kt if carry else None
        res_sq = residual_sq(x_new, r_new, kr_new)

        if res_sq < 0.0 or np.sqrt(res_sq) > residual_norms[-1]:
            # A negative weighted square or no progress: the basis has
            # degenerated to rounding noise, so the step carries no
            # information. Discard it and stop.
            breakdown_at = i
            break
        x, r, kr = x_new, r_new, kr_new

        xs.append(x.copy())
        residual_norms.append(float(np.sqrt(res_sq)))
        m_done = i
        if stop is not None and stop(i, residual_norms[-1], x):
            break

        # beta = <A r, t>, which at power -1 is r @ t. Dropping w frees now
        # the d or t it may hold, which the next lines replace.
        beta = float(w @ kr) / n if carry else float(t @ r) / n
        del w
        d = r - beta * d
        if carry:
            t = kr - beta * t  # equals A @ d by linearity
        # Full reorthogonalization: two Gram-Schmidt passes against every
        # stored direction in the mode's inner product. <t, t_j> is
        # dirs[-1, j] @ t / n, or at power -1 dirs[1, j] @ d / n. The same
        # coefficients come off d and t, so t = A @ d still holds.
        for _ in range(2):
            c = dirs[-1, :k] @ (t if carry else d) / n
            d -= c @ dirs[0, :k]
            if carry:
                t -= c @ dirs[1, :k]

    return CgTrace(
        alphas=np.array(xs),
        residual_norms=residual_norms,
        breakdown_at=breakdown_at,
        m_last=m_done,
        n=n,
    )


def gram_fit(
    system: GramSystem,
    max_iter: int | None = None,
    mode: Mode = "kn_norm",
    stop: Callable[[int, float, np.ndarray], bool] | None = None,
) -> CgTrace:
    """``cg_fit`` on the factor's column space: row m of the trace is c_m = B.T alpha_m.

    Takes ``cg_fit``'s budget (capped at n, the rows of B), breakdown rules
    and reorthogonalization, and records the same residual norms. ``stop``,
    if given, is called as ``stop(m, residual_norm, c_m)`` on iterate 0 and
    after every recorded iterate, and the run ends at the first True; the
    recursion does not change, so a stopped trace is a bit-exact prefix of
    the full one. Both modes are ``_recursion`` on G c = b, at O(modes^2)
    per step whatever n is:

    - ``kn_norm``, power 0: minimizes |b - G c| = |B.T (Y - K alpha)| over
      c in K_m(G, b) (the conjugate-residual method on G), one product with G
      per step;
    - ``euclidean``, power -1: plain CG on G c = b (kernel PLS), recording
      sqrt((Y.Y - 2 b.c + c.G c) / n), two products with G per step.
    """
    _check_mode(mode)
    G, power = system.G, 0 if mode == "kn_norm" else -1
    return _recursion(lambda v: G @ v, system.b, system.n, max_iter, power, stop, system.yy)


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


def ridge_path(system: GramSystem, lams, rows=None) -> np.ndarray:
    """Ridge solutions for every penalty in ``lams`` from one eigendecomposition.

    Row i is c = B.T alpha for alpha = (K + lam * I)^-1 Y at ``lams[i]``,
    which by the push-through identity is (G + lam * I)^-1 b. The smaller of
    the two Gram matrices is decomposed:

    - G = V diag(mu) V.T, (modes x modes), by default: c = V (V.T b / (mu + lam));
    - K = B B.T = U diag(nu) U.T, (n x n), when ``rows = (B, Y)`` gives the
      factor and the responses of ``system`` and B has fewer rows than
      columns: c = B.T U (U.T Y / (nu + lam)), all penalties in one product.

    With a ``rows`` factor of n >= modes rows the G route runs unchanged.
    Nothing is divided by a power of mu or nu alone: near n = modes the
    spectrum of G reaches 1e-18. Returns shape (len(lams), modes).
    """
    grid = np.asarray(lams, dtype=float)
    if grid.ndim != 1:
        raise InvalidInput(f"lams must be a 1-D grid of penalties, got shape {grid.shape}")
    for lam in grid:
        if not lam > 0:
            raise InvalidInput(f"lambda must be positive, got {lam}")
    modes = system.b.size
    if rows is not None:
        B, y = np.asarray(rows[0], dtype=float), np.asarray(rows[1], dtype=float).ravel()
        if B.shape != (system.n, modes) or y.size != system.n:
            raise InvalidInput(
                f"rows of shapes {B.shape} and {y.shape} do not fit a system of "
                f"{system.n} rows and {modes} modes"
            )
        if system.n >= modes:
            rows = None
    if grid.size == 0:
        return np.empty((0, modes))
    # K and G are positive semidefinite; a negative eigenvalue is rounding.
    if rows is not None:
        nu, u = np.linalg.eigh(B @ B.T)
        np.maximum(nu, 0.0, out=nu)
        alphas = u @ ((u.T @ y)[:, None] / (nu[:, None] + grid))
        return alphas.T @ B
    mu, v = np.linalg.eigh(system.G)
    np.maximum(mu, 0.0, out=mu)
    vtb = v.T @ system.b
    return np.array([v @ (vtb / (mu + lam)) for lam in grid])
