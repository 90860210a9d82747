"""The cosine series kernel, its Gram system, and its dense normalized kernel matrix.

``MercerKernel`` is a truncated cosine series kernel on [0, 1] whose
eigenvalues and eigenfunctions are known in closed form; every spectral
computation downstream relies on them.

Every replicate sees the kernel through the (J+1) x (J+1) ``GramSystem``.
``KernelMatrix`` is the dense reference that checks it: a caller forms the
entries k(X_i, X_j) / n from ``MercerKernel.gram`` and runs ``solvers.cg_fit``
and ``solvers.krylov_oracle`` on them. ``GramSystem.from_design``, the target
values and the hold-out predictions need the design only through sums of
cos(l pi x_i), which ``_cosine_blocks`` supplies a block of points at a time,
so a replicate never holds the n x (J+1) basis.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInput


#: Design points per block of ``_cosine_blocks``. The size is fixed, so sums
#: over blocks add up in one order whatever the BLAS thread count.
COSINE_BLOCK_ROWS = 256

#: ``MercerKernel.series`` sums over k first for up to this many coefficient
#: rows; more rows share tiles of the cosines of SERIES_TILE_ROWS points.
SERIES_FEW_ROWS = 8
SERIES_TILE_ROWS = 32

#: ``GramSystem.from_design`` scales G by w w.T this many rows at a time, so
#: the outer product it multiplies by stays a small, reused block.
GRAM_SCALE_ROWS = 32


def _block_shape(top: int) -> tuple[int, int]:
    """(height, width) of the split l = a * width + k, for l = 0..top."""
    width = math.isqrt(top) + 1
    return -(-(top + 1) // width), width


def _check_points(x: np.ndarray) -> np.ndarray:
    """``x`` itself; InvalidInput unless every point lies in [0, 1]."""
    # min and max propagate NaN, which fails both comparisons.
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise InvalidInput(f"points must lie in [0, 1], got range [{x.min():.6g}, {x.max():.6g}]")
    return x


def _cosine_blocks(
    points: np.ndarray, top: int, rows: int = COSINE_BLOCK_ROWS, chunk: int | None = None
):
    """Complex powers giving cos(l pi x), l = 0..top, a block of points at a time.

    With l = a * width + k (``_block_shape``), cos(l pi x) is
    Re(e^(i a width pi x) e^(i k pi x)). Yields ``(start, za, zk)`` for
    ``x = points[start:start + rows]``, with za[a] = e^(i a width pi x) and
    zk[k] = e^(-i k pi x), one column per point, each built by repeated
    multiplication from one ``exp`` per point (its rounding error grows
    linearly in a or k). Viewed as floats, ``za.view(float) @
    zk.view(float).T`` holds sum_i cos((a * width + k) pi x_i) at [a, k].

    The powers are built for ``chunk`` points at once, a whole multiple of
    ``rows`` (default ``rows``), and each block is a column view of them, so
    blocks and their values do not depend on the chunk. The buffers hold
    O(chunk * sqrt(top)) numbers, are reused from chunk to chunk, and a
    caller may scale a block in place but not keep it.
    """
    height, width = _block_shape(top)
    chunk = rows if chunk is None else chunk
    size = min(chunk, points.size)
    za_all = np.empty(height * size, dtype=complex)
    zk_all = np.empty(width * size, dtype=complex)
    for first in range(0, points.size, chunk):
        theta = np.pi * points[first : first + chunk]
        za = za_all[: height * theta.size].reshape(height, theta.size)
        zk = zk_all[: width * theta.size].reshape(width, theta.size)
        for z, step in ((za, np.exp((1j * width) * theta)), (zk, np.exp(-1j * theta))):
            z[0] = 1.0
            for i in range(1, len(z)):
                np.multiply(z[i - 1], step, out=z[i])
        for start in range(0, theta.size, rows):
            yield first + start, za[:, start : start + rows], zk[:, start : start + rows]


@dataclass(frozen=True)
class MercerKernel:
    """Cosine series kernel on [0, 1] with polynomially decaying eigenvalues.

    The eigenfunctions are orthonormal in L2 of the uniform measure on
    [0, 1]: the constant mode phi_0(x) = 1 with eigenvalue 1, and cosine
    modes phi_j(x) = sqrt(2) * cos(j * pi * x) with eigenvalues
    j ** (-decay_exponent) for j = 1..truncation. The kernel is the finite
    sum k(x, y) = sum_j xi_j * phi_j(x) * phi_j(y) over j = 0..truncation.

    Parameters
    ----------
    decay_exponent : float
        Eigenvalue decay rate; must exceed 1 so the trace converges.
    truncation : int
        Number of cosine modes kept.
    """

    decay_exponent: float
    truncation: int

    def __post_init__(self):
        if not self.decay_exponent > 1:
            raise InvalidInput(
                f"decay_exponent must exceed 1, got {self.decay_exponent}"
            )
        try:
            whole = int(self.truncation) == self.truncation
        except (OverflowError, TypeError, ValueError):  # inf, None, NaN
            whole = False
        if not whole or self.truncation < 1:
            raise InvalidInput(
                f"truncation must be a positive integer, got {self.truncation}"
            )
        object.__setattr__(self, "truncation", int(self.truncation))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue sequence aligned with the columns of ``basis``."""
        j = np.arange(1, self.truncation + 1, dtype=float)
        return np.concatenate(([1.0], j ** (-self.decay_exponent)))

    def series(self, points, coeffs) -> np.ndarray:
        """Values of sum_j coeffs[..., j] * phi_j at ``points``, without the basis.

        ``coeffs`` is a vector aligned with ``eigenvalues`` or a 2-D array of
        such rows; the result is ``coeffs @ basis(points).T`` to rounding.
        Besides it the call holds O(rows * sqrt(truncation)) numbers per
        point of a block for up to ``SERIES_FEW_ROWS`` rows, else a tile of
        SERIES_TILE_ROWS * (truncation + 1). Raises InvalidInput unless every
        point lies in [0, 1].
        """
        x = _check_points(np.asarray(points, dtype=float).ravel())
        coeffs = np.asarray(coeffs, dtype=float)
        modes = self.truncation + 1
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != modes:
            raise InvalidInput(f"coeffs of shape {coeffs.shape} do not fit {modes} modes")
        rows = coeffs.reshape(-1, modes)
        height, width = _block_shape(self.truncation)
        # table[m, a * width + k] multiplies cos((a * width + k) pi x) in row m.
        table = np.zeros((len(rows), height * width))
        table[:, :modes] = rows
        table *= np.sqrt(2.0)
        table[:, 0] = rows[:, 0]
        few = len(rows) <= SERIES_FEW_ROWS
        out = np.empty((x.size, len(rows)))  # so a block of points is one slice
        for start, za, zk in _cosine_blocks(
            x, self.truncation, COSINE_BLOCK_ROWS if few else SERIES_TILE_ROWS
        ):
            part = out[start : start + za.shape[1]]
            if few:
                # u[m, a] = sum_k table[m, a, k] zk[k], then the sum against za.
                u = (table.reshape(-1, width) @ zk.real).reshape(len(rows), height, -1)
                v = (table.reshape(-1, width) @ zk.imag).reshape(u.shape)
                u *= za.real
                v *= za.imag
                u += v
                part[...] = u.sum(axis=1).T
            else:
                # tile[a, k] = Re(za[a] conj(zk[k])) = cos((a * width + k) pi x)
                tile = za.real[:, None] * zk.real
                tile += za.imag[:, None] * zk.imag
                np.matmul(tile.reshape(table.shape[1], -1).T, table.T, out=part)
        return out.T.reshape(coeffs.shape[:-1] + (x.size,))

    def basis(self, points) -> np.ndarray:
        """Eigenfunction matrix with shape (len(points), truncation + 1).

        Raises InvalidInput unless every point lies in [0, 1].
        """
        x = _check_points(np.asarray(points, dtype=float).ravel())
        j = np.arange(self.truncation + 1, dtype=float)
        # One array, updated in place: each fresh n x modes temporary costs
        # new pages. Same operations as sqrt(2) * cos(pi * outer(x, j)).
        out = np.outer(x, j)
        out *= np.pi
        np.cos(out, out=out)
        out *= np.sqrt(2.0)
        out[:, 0] = 1.0
        return out

    @property
    def kappa_bound(self) -> float:
        """sup_x k(x, x), attained at x = 0: 2 * sum of cosine eigenvalues + 1."""
        j = np.arange(1, self.truncation + 1, dtype=float)
        return 2.0 * float(np.sum(j ** (-self.decay_exponent))) + 1.0

    @property
    def kappa_tail(self) -> float:
        """Bound on the part of sup_x k(x, x) lost to truncation."""
        d = self.decay_exponent
        return 2.0 * self.truncation ** (1.0 - d) / (d - 1.0)

    def gram(self, x, y) -> np.ndarray:
        """Unnormalized cross-kernel matrix k(x_i, y_j) via the series."""
        bx = self.basis(x)
        by = self.basis(y)
        return (bx * self.eigenvalues()) @ by.T


@dataclass(frozen=True)
class GramSystem:
    """Kernel CG's system in the column space of a factor B, K = B B.T.

    Fields
    ------
    G : ndarray, shape (modes, modes)
        Gram matrix B.T @ B.
    b : ndarray, shape (modes,)
        Projected response B.T @ Y.
    n : int
        Number of rows of B, a positive integer; residual norms are
        rescaled by it, as in ``cg_fit``.

    G and b are copied and frozen on construction; ``copy=False`` freezes
    them in place instead, for arrays that nothing else holds.
    """

    G: np.ndarray
    b: np.ndarray
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
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise InvalidInput(f"n must be a positive integer, got {self.n!r}")
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
        P_j = sum_i y_i cos(j pi x_i). These moments are summed over
        blocks of ``COSINE_BLOCK_ROWS`` points in a fixed order, so the sums do
        not depend on the BLAS thread count; a block whose responses are all
        zero, as the outer regime's unlabeled points are, adds to S alone. The
        cosine powers are built for a chunk of whole blocks whose buffers take
        at most half of G's bytes, and are freed before G is allocated: memory
        is O(chunk * sqrt(J) + J^2). An entry of G is accurate to rounding on
        the scale sqrt(xi_j xi_k), its mean over uniform designs. Raises
        InvalidInput unless the points, as many as the responses, lie in [0, 1].
        """
        x = np.asarray(points, dtype=float).ravel()
        y = np.asarray(Y, dtype=float).ravel()
        if y.size < 1 or x.size != y.size:
            raise InvalidInput(f"{x.size} points do not match {y.size} responses")
        _check_points(x)
        J = kernel.truncation
        height, width = _block_shape(2 * J)
        # P needs l <= J, which block rows a <= J // width hold.
        p_rows = J // width + 1
        # As many whole blocks as keep the powers (height + width complex
        # numbers a point) within half of G's bytes, and at least one.
        block_bytes = (height + width) * 16 * COSINE_BLOCK_ROWS
        chunk = max((J + 1) ** 2 * 8 // 2 // block_bytes, 1) * COSINE_BLOCK_ROWS
        S, P = np.zeros((height, width)), np.zeros((p_rows, width))
        for start, za, zk in _cosine_blocks(x, 2 * J, chunk=chunk):
            yc = y[start : start + za.shape[1]]
            zk = zk.view(float).T
            S += za.view(float) @ zk
            if yc.any():
                za = za[:p_rows]
                za *= yc
                P += za.view(float) @ zk
        del za, zk  # frees the power buffers before G is allocated
        S = S.ravel()[: 2 * J + 1]
        P = P.ravel()[: J + 1]
        # G is the only (J+1)^2 array built here: the block a previous
        # replicate freed is reused, where each fresh one faults in new pages.
        toeplitz = sliding_window_view(np.concatenate((S[J:0:-1], S[: J + 1])), J + 1)[::-1]
        G = np.empty((J + 1, J + 1))
        np.add(toeplitz, sliding_window_view(S, J + 1), out=G)
        G[0] = np.sqrt(2.0) * S[: J + 1]
        G[:, 0] = G[0]
        G[0, 0] = S[0]
        w = np.sqrt(kernel.eigenvalues() / y.size)
        for i in range(0, J + 1, GRAM_SCALE_ROWS):
            G[i : i + GRAM_SCALE_ROWS] *= np.outer(w[i : i + GRAM_SCALE_ROWS], w)
        phi_y = np.sqrt(2.0) * P
        phi_y[0] = P[0]
        return cls(G=G, b=w * phi_y, n=y.size, copy=False)


@dataclass(frozen=True)
class KernelMatrix:
    """Normalized kernel matrix with entries k(X_i, X_j) / n, stored densely.

    Entries are copied and frozen on construction; both the matrix and its
    size are safe to share across threads.
    """

    entries: np.ndarray
    n: int

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidInput(f"entries must be square, got shape {entries.shape}")
        if entries.shape[0] != self.n:
            raise InvalidInput(
                f"n={self.n} does not match entries shape {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def matvec(self, v) -> np.ndarray:
        """K @ v for a vector or a matrix of column vectors."""
        return self.entries @ v

    def sqrt_matvec(self, v) -> np.ndarray:
        """R @ v for a root R of K (R.T @ R = K), so |R v|^2 = v.T K v."""
        return self._root @ v

    @cached_property
    def _root(self) -> np.ndarray:
        # R = sqrt(Lambda) Q.T for K = Q Lambda Q.T, one eigendecomposition per
        # matrix. The symmetric root Q R would spread the sqrt(eps) error of
        # the eigenvalues near zero over every direction, which put weighted
        # krylov_oracle iterates about 1e-8 off at m = 32.
        lam, q = np.linalg.eigh(self.entries)
        return np.sqrt(np.clip(lam, 0.0, None))[:, None] * q.T
