"""Dense reference forms the tests hold the Gram-space route to.

``dense`` builds the normalized kernel matrix as the benchmark's output check
(``perfbench/outcheck.py``) does, and ``quad`` is that matrix's weighted
inner product. ``factor`` and ``from_basis`` form the factor B and the Gram
system from the basis matrix, the reference for ``GramSystem.from_design``.
``from_moments`` is ``from_design`` as it was before it built G in place,
chunked the cosine powers and skipped blocks of zero responses: the same
moments, one block of powers at a time, every block's responses multiplied
in, and G scaled by one full outer product, bit for bit the same system.
``ridge_eigh`` is the ridge path from an eigendecomposition of G, and
``plain_cg`` the kernel-PLS iterates from plain CG on G c = b.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from kernelcg import CgTrace, GramSystem, KernelMatrix, MercerKernel, NumericalFailure
from kernelcg.kernels import _cosine_blocks
from kernelcg.solvers import BREAKDOWN_RTOL


def dense(kernel: MercerKernel, x) -> KernelMatrix:
    """K with entries k(x_i, x_j) / n. The Gram matrix is symmetrized as
    (G + G.T) / 2, so K is symmetric bit for bit whatever the series' rounding."""
    x = np.asarray(x, dtype=float).ravel()
    g = kernel.gram(x, x)
    return KernelMatrix(entries=(g + g.T) / (2.0 * x.size), n=x.size)


def quad(u, v, K: KernelMatrix) -> float:
    """(1/n) u.T K v: with the 1/n inside K's entries, the kernel-weighted
    inner product whose norm the ``kn_norm`` mode minimizes."""
    return float(u @ K.matvec(v)) / K.n


def factor(x, model) -> np.ndarray:
    """B = Phi * sqrt(xi / n), so K = B B.T and a Gram-space iterate is B.T alpha."""
    return model.kernel.basis(x) * np.sqrt(model.eigenvalues / len(x))


def from_basis(kernel: MercerKernel, x, y) -> GramSystem:
    """The reference build: with Phi = ``kernel.basis(x)`` and w = sqrt(xi / n),
    G = (Phi.T Phi) * w w.T and b = w * (Phi.T y)."""
    phi = kernel.basis(x)
    y = np.asarray(y, dtype=float)
    w = np.sqrt(kernel.eigenvalues() / y.size)
    G = phi.T @ phi
    G *= np.outer(w, w)
    return GramSystem(G=G, b=w * (phi.T @ y), n=y.size)


def from_moments(kernel: MercerKernel, x, y) -> GramSystem:
    """The cosine-moment build with G = toeplitz + hankel, then G *= outer(w, w)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    J = kernel.truncation
    S = P = 0.0
    for start, za, zk in _cosine_blocks(x, 2 * J):
        yc = y[start : start + za.shape[1]]
        za_p = za[: J // len(zk) + 1]
        zk = zk.view(float).T
        S = S + za.view(float) @ zk
        za_p *= yc
        P = P + za_p.view(float) @ zk
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
    return GramSystem(G=G, b=w * phi_y, n=y.size)


def ridge_eigh(system: GramSystem, lams) -> np.ndarray:
    """Ridge rows (G + lam I)^-1 b from one eigendecomposition of G, as
    the ridge rows were formed before ``lanczos_paths``: G = V diag(mu) V.T, and
    c = V (V.T b / (mu + lam)), with negative eigenvalues (rounding) set to 0."""
    mu, v = np.linalg.eigh(system.G)
    np.maximum(mu, 0.0, out=mu)
    vtb = v.T @ system.b
    return np.array([v @ (vtb / (mu + lam)) for lam in lams]).reshape(len(lams), -1)


def plain_cg(system: GramSystem, yy: float, max_iter: int) -> CgTrace:
    """Plain CG on G c = b, the kernel-PLS iterates c_m = B.T alpha_m, as
    ``gram_fit(mode="euclidean")`` ran them before ``lanczos_paths`` took them
    over: the solvers' recursion at power -1, with ``yy`` = Y.Y.

    The directions d_j and t_j = G d_j have t_j orthonormal in
    <u, v> = u.T G^-1 v / n, so <u, t_j> = u @ d_j / n. t is recomputed as
    G d after the reorthogonalization (carrying it drifts), and the norm
    recorded is the Euclidean residual of the n-row problem,
    sqrt((yy - 2 b.c + c.G c) / n). The budget is capped at n, and the run
    ends as the solvers' recursion does: at a direction norm of
    ``BREAKDOWN_RTOL`` of the first, or at a step that does not lower the
    residual, which is not recorded.
    """
    G, y, n = system.G, system.b, system.n
    max_iter = min(max_iter, n)
    x = np.zeros(y.size)
    r, d = y.copy(), y.copy()
    dirs = np.empty((2, 8, y.size))  # dirs[0, j] = d_j, dirs[1, j] = t_j
    k = 0
    xs = [x.copy()]
    residual_norms = [float(np.sqrt(max(yy / n, 0.0)))]
    breakdown_at = None
    break_floor = None
    for i in range(1, max_iter + 1):
        t = G @ d
        s = float(np.sqrt(max((t @ d) / n, 0.0)))
        if not np.isfinite(s):
            raise NumericalFailure(f"non-finite basis norm at iteration {i}", iteration=i)
        if break_floor is None:
            break_floor = BREAKDOWN_RTOL * s
        if s <= break_floor:
            breakdown_at = i
            break
        t /= s
        d /= s
        if k == dirs.shape[1]:
            grown = np.empty((2, min(2 * k, max_iter), y.size))
            grown[:, :k] = dirs
            dirs = grown
        dirs[:, k] = (d, t)
        k += 1

        gamma = float(r @ d) / n
        if not np.isfinite(gamma):
            raise NumericalFailure(f"non-finite projection at iteration {i}", iteration=i)
        x_new = x + gamma * d
        r_new = r - gamma * t
        res_sq = (yy - 2.0 * float(y @ x_new) + float(x_new @ (G @ x_new))) / n
        if res_sq < 0.0 or np.sqrt(res_sq) > residual_norms[-1]:
            breakdown_at = i
            break
        x, r = x_new, r_new
        xs.append(x.copy())
        residual_norms.append(float(np.sqrt(res_sq)))

        beta = float(t @ r) / n
        d = r - beta * d
        for _ in range(2):
            c = dirs[1, :k] @ d / n
            d -= c @ dirs[0, :k]
    return CgTrace(np.array(xs), residual_norms, breakdown_at, n)
