"""The cosine series kernel and its dense normalized kernel matrix.

``MercerKernel`` is a truncated cosine series kernel on [0, 1] whose
eigenvalues and eigenfunctions are known in closed form; every spectral
computation downstream relies on them.

Every replicate sees the kernel through the (J+1) x (J+1)
``solvers.GramSystem``. ``KernelMatrix`` is the dense reference that checks
it: a caller forms the entries k(X_i, X_j) / n from ``MercerKernel.gram``
and runs ``solvers.cg_fit`` and ``solvers.krylov_oracle`` on them. The Gram
system, the target values and the hold-out predictions need the design
only through sums of cos(l pi x_i), which ``_cosine_blocks`` supplies a block
of points at a time, so a replicate never holds the n x (J+1) basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput


#: Design points per block of ``_cosine_blocks``. The size is fixed, so sums
#: over blocks add up in one order whatever the BLAS thread count.
COSINE_BLOCK_ROWS = 256

#: ``MercerKernel.series`` sums over k first for up to this many coefficient
#: rows; more rows share tiles of the cosines of SERIES_TILE_ROWS points.
SERIES_FEW_ROWS = 8
SERIES_TILE_ROWS = 32


def _block_shape(top: int) -> tuple[int, int]:
    """(height, width) of the split l = a * width + k, for l = 0..top."""
    width = math.isqrt(top) + 1
    return -(-(top + 1) // width), width


def _cosine_blocks(points: np.ndarray, top: int, rows: int = COSINE_BLOCK_ROWS):
    """Complex powers giving cos(l pi x), l = 0..top, a block of points at a time.

    With l = a * width + k (``_block_shape``), cos(l pi x) is
    Re(e^(i a width pi x) e^(i k pi x)). Yields ``(start, za, zk)`` for
    ``x = points[start:start + rows]``, with za[a] = e^(i a width pi x) and
    zk[k] = e^(-i k pi x), one column per point, each built by repeated
    multiplication from one ``exp`` per point (its rounding error grows
    linearly in a or k). Viewed as floats, ``za.view(float) @
    zk.view(float).T`` holds sum_i cos((a * width + k) pi x_i) at [a, k].
    Both live in buffers reused from block to block, which a caller may
    scale in place but not keep.
    """
    height, width = _block_shape(top)
    size = min(rows, points.size)
    za_all = np.empty(height * size, dtype=complex)
    zk_all = np.empty(width * size, dtype=complex)
    for start in range(0, points.size, rows):
        theta = np.pi * points[start : start + rows]
        za = za_all[: height * theta.size].reshape(height, theta.size)
        zk = zk_all[: width * theta.size].reshape(width, theta.size)
        for z, step in ((za, np.exp((1j * width) * theta)), (zk, np.exp(-1j * theta))):
            z[0] = 1.0
            for i in range(1, len(z)):
                np.multiply(z[i - 1], step, out=z[i])
        yield start, za, zk


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
        if int(self.truncation) != self.truncation or self.truncation < 1:
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
        SERIES_TILE_ROWS * (truncation + 1).
        """
        x = np.asarray(points, dtype=float).ravel()
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
        """Eigenfunction matrix with shape (len(points), truncation + 1)."""
        x = np.asarray(points, dtype=float).ravel()
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

