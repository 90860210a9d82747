"""Conjugate-gradient solvers over Krylov spaces, a ridge path, and an oracle.

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
check each other. Both take either kernel operator.

For a factored kernel K = B B.T every residual, error and prediction depends
on alpha only through c = B.T alpha, and alpha lies in K_m(K, Y) exactly when
c lies in K_m(G, b), with G = B.T B and b = B.T Y (``GramSystem``). So
``gram_fit`` runs both modes on G c = b at O(modes^2) per step, whatever n
is: the weighted mode is ``cg_fit``'s Euclidean recursion applied to G (the
conjugate-residual method), and the Euclidean mode is plain CG on G c = b.
``ridge_path`` solves a whole penalty grid from one eigendecomposition of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .kernels import FactoredKernel, KernelOperator, KernelSpec

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


def _check_system(K: KernelOperator, Y) -> np.ndarray:
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
    """

    G: np.ndarray
    b: np.ndarray
    yy: float
    n: int

    def __post_init__(self):
        G = np.array(self.G, dtype=float)
        b = np.array(self.b, dtype=float).ravel()
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
    def from_factor(cls, K: FactoredKernel, Y) -> "GramSystem":
        """G = B.T B, b = B.T Y and Y @ Y of a factored operator and a response."""
        y = _check_system(K, Y)
        B = K.factor
        return cls(G=B.T @ B, b=B.T @ y, yy=float(y @ y), n=K.n)


def _check_mode(mode: str) -> None:
    if mode not in ("kn_norm", "euclidean"):
        raise InvalidInput(f"mode must be 'kn_norm' or 'euclidean', got {mode!r}")


def _budget(max_iter: int | None, n: int) -> int:
    """Iteration budget: ``max_iter``, by default n, capped at n."""
    max_iter = n if max_iter is None else min(int(max_iter), n)
    if max_iter < 0:
        raise InvalidInput(f"max_iter must be nonnegative, got {max_iter}")
    return max_iter


def _with_room(dirs: np.ndarray, k: int) -> np.ndarray:
    # Capacity doubles with the iterations actually run, from a size that
    # does not depend on max_iter, so a stopped run grows exactly like a full
    # one.
    return np.concatenate([dirs, np.empty_like(dirs)], axis=1) if k == dirs.shape[1] else dirs


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
    return _recursion(K.matvec, y, K.n, _budget(max_iter, K.n), mode, mode == "kn_norm", stop)


def _recursion(matvec, y, n, max_iter, mode, weighted, stop) -> CgTrace:
    """``cg_fit``'s recursion for the operator ``matvec``, with every inner
    product and norm divided by ``n``. ``weighted`` selects the inner
    products; ``mode`` is only recorded in the trace, since ``gram_fit``'s
    weighted mode runs the Euclidean recursion on G."""

    def mode_sq(vec: np.ndarray, kvec: np.ndarray) -> float:
        # kvec must equal the operator applied to vec; the weighted norm
        # reuses it for free.
        return (vec @ kvec) / n if weighted else (vec @ vec) / n

    alpha = np.zeros(y.size)
    r = y.copy()
    kr = matvec(r)
    d = y.copy()
    t = kr.copy()  # t = K @ d throughout

    # The k normalized directions so far: dirs[0, j] = d_j, dirs[1, j] = t_j
    # and, in the weighted mode, dirs[2, j] = K t_j, so dirs[-1, :k] @ v / n
    # are the mode inner products of v with every t_j.
    dirs = np.empty((3 if weighted else 2, 8, y.size))
    k = 0

    alphas = [alpha.copy()]
    residual_norms = [float(np.sqrt(max(mode_sq(r, kr), 0.0)))]
    basis_norms: list[float] = []
    breakdown_at: int | None = None
    break_floor: float | None = None
    if stop is not None and stop(0, residual_norms[0], alpha):
        max_iter = 0

    m_done = 0
    for i in range(1, max_iter + 1):
        kt = matvec(t)
        s = float(np.sqrt(max(mode_sq(t, kt), 0.0)))
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
        dirs = _with_room(dirs, k)
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
        res_sq = mode_sq(r_new, kr_new)

        if res_sq < 0.0 or np.sqrt(res_sq) > residual_norms[-1]:
            # A negative weighted square or no progress: the basis has
            # degenerated to rounding noise, so the step carries no
            # information. Discard it and stop.
            breakdown_at = i
            break
        alpha, r, kr = alpha_new, r_new, kr_new

        alphas.append(alpha.copy())
        residual_norms.append(float(np.sqrt(res_sq)))
        m_done = i
        if stop is not None and stop(i, residual_norms[-1], alpha):
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


def gram_fit(
    system: GramSystem,
    max_iter: int | None = None,
    mode: Mode = "kn_norm",
    stop: Callable[[int, float, np.ndarray], bool] | None = None,
) -> CgTrace:
    """``cg_fit`` on the factor's column space: row m of the trace is c_m = B.T alpha_m.

    Takes ``cg_fit``'s budget (capped at n, the rows of B), ``stop`` (which
    sees c_m in place of alpha_m), breakdown rules and two-pass
    reorthogonalization, and records the same residual norms:
    |b - G c| / sqrt(n) in the ``kn_norm`` mode and
    sqrt((Y.Y - 2 b.c + c.G c) / n) in the ``euclidean`` mode. Each step
    costs O(modes^2) whatever n is.

    The weighted mode minimizes |B.T (Y - K alpha)| = |b - G c| over
    c in K_m(G, b), so it is ``cg_fit``'s Euclidean recursion applied to G.
    The Euclidean mode minimizes Y.Y - 2 b.c + c.G c over the same space,
    which is plain CG on G c = b with G-orthonormal directions.
    """
    _check_mode(mode)
    budget = _budget(max_iter, system.n)
    if mode == "kn_norm":
        G = system.G
        return _recursion(lambda v: G @ v, system.b, system.n, budget, mode, False, stop)
    return _gram_cg(system, budget, stop)


def _gram_cg(system: GramSystem, max_iter: int, stop) -> CgTrace:
    """Plain CG on G c = b with full reorthogonalization in the G inner product.

    It is ``cg_fit``'s Euclidean recursion mapped through B.T: p = B.T d,
    q = G p = B.T t and rho = b - G c = B.T r, so every inner product of
    the n-vectors is one of the mapped ones.
    """
    G, b, n = system.G, system.b, system.n

    def residual_sq(c: np.ndarray) -> float:
        return (system.yy - 2.0 * float(b @ c) + float(c @ (G @ c))) / n

    c = np.zeros(b.size)
    rho = b.copy()
    p = b.copy()
    # dirs[0, j] = p_j and dirs[1, j] = G p_j, G-orthonormal under the 1/n scaling.
    dirs = np.empty((2, 8, b.size))
    k = 0

    coeffs = [c.copy()]
    residual_norms = [float(np.sqrt(max(system.yy / n, 0.0)))]
    basis_norms: list[float] = []
    breakdown_at: int | None = None
    break_floor: float | None = None
    if stop is not None and stop(0, residual_norms[0], c):
        max_iter = 0

    m_done = 0
    for i in range(1, max_iter + 1):
        q = G @ p
        s = float(np.sqrt(max(float(p @ q) / n, 0.0)))
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

        p /= s
        q /= s
        dirs = _with_room(dirs, k)
        dirs[:, k] = (p, q)
        k += 1

        gamma = float(rho @ p) / n
        if not np.isfinite(gamma):
            raise NumericalFailure(
                f"non-finite projection at iteration {i}", iteration=i
            )
        c_new = c + gamma * p
        res_sq = residual_sq(c_new)
        if res_sq < 0.0 or np.sqrt(res_sq) > residual_norms[-1]:
            breakdown_at = i
            break
        c = c_new
        rho = rho - gamma * q

        coeffs.append(c.copy())
        residual_norms.append(float(np.sqrt(res_sq)))
        m_done = i
        if stop is not None and stop(i, residual_norms[-1], c):
            break

        beta = float(q @ rho) / n
        p = rho - beta * p
        for _ in range(2):
            p -= (dirs[1, :k] @ p / n) @ dirs[0, :k]

    return CgTrace(
        alphas=np.array(coeffs),
        residual_norms=residual_norms,
        basis_norms=basis_norms,
        breakdown_at=breakdown_at,
        m_last=m_done,
        mode="euclidean",
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
    u = np.column_stack(cols)

    ku = K.matvec(u)
    if mode == "euclidean":
        coef, *_ = np.linalg.lstsq(ku, y, rcond=None)
    else:
        weighted = K.sqrt_matvec(np.column_stack([ku, y]))
        coef, *_ = np.linalg.lstsq(weighted[:, :-1], weighted[:, -1], rcond=None)
    return u @ coef


def ridge_path(system: GramSystem, lams) -> np.ndarray:
    """Ridge solutions for every penalty in ``lams`` from one eigendecomposition of G.

    Row i is c = B.T alpha for alpha = (K + lam * I)^-1 Y at ``lams[i]``,
    which by the push-through identity is (G + lam * I)^-1 b. With
    G = V diag(mu) V.T that is V (V.T b / (mu + lam)). Nothing is divided by
    a power of mu alone: near n = modes the spectrum of G reaches 1e-18.
    """
    lams = [float(lam) for lam in lams]
    for lam in lams:
        if not lam > 0:
            raise InvalidInput(f"lambda must be positive, got {lam}")
    mu, v = np.linalg.eigh(system.G)
    # G is positive semidefinite; a negative eigenvalue is rounding.
    np.maximum(mu, 0.0, out=mu)
    vtb = v.T @ system.b
    return np.array([v @ (vtb / (mu + lam)) for lam in lams])


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
