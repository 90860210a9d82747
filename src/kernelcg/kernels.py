"""Kernel specifications, normalized kernel operators, and weighted inner products.

Two kernel families are provided: a Gaussian kernel on the line, used for
smoke tests where no spectral structure is needed, and a truncated cosine
series kernel on [0, 1] whose eigenvalues and eigenfunctions are known in
closed form. All downstream spectral computations rely on the latter.

Solvers see a kernel through the dense normalized ``KernelMatrix``; the
finite-rank cosine kernel also has the (J+1) x (J+1) ``solvers.GramSystem``,
built from its basis without an n x n matrix.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-(x - y)^2 / (2 * bandwidth^2)); k(x, x) = 1."""

    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise InvalidInput(f"bandwidth must be positive, got {self.bandwidth}")

    @property
    def kappa_bound(self) -> float:
        """Upper bound on k(x, x); exactly 1 for this kernel."""
        return 1.0

    def gram(self, x, y) -> np.ndarray:
        """Unnormalized cross-kernel matrix k(x_i, y_j)."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        sq = (x[:, None] - y[None, :]) ** 2
        return np.exp(-sq / (2.0 * self.bandwidth**2))


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


KernelSpec = Union[GaussianKernel, MercerKernel]


@dataclass(frozen=True)
class KernelMatrix:
    """Normalized kernel matrix with entries k(X_i, X_j) / n, stored densely.

    Entries are copied and frozen on construction; both the matrix and its
    size are safe to share across threads. ``copy=False`` freezes
    ``entries`` in place instead, for an array that nothing else holds.
    """

    entries: np.ndarray
    n: int
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        entries = (np.array if copy else np.asarray)(self.entries, dtype=float)
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


def build_kernel_matrix(points, kernel: KernelSpec) -> KernelMatrix:
    """Construct the normalized kernel matrix with entries k(X_i, X_j) / n.

    The raw Gram matrix is symmetrized as (G + G.T) / 2 before scaling, so
    the result is symmetric bit-exactly regardless of how the kernel
    evaluates its series.
    """
    x = np.asarray(points, dtype=float).ravel()
    if x.size == 0:
        raise InvalidInput("points must be non-empty")
    g = kernel.gram(x, x)
    entries = g + g.T
    entries /= 2.0 * x.size
    return KernelMatrix(entries=entries, n=x.size, copy=False)


def kn_inner(u, v, K: KernelMatrix) -> float:
    """Weighted inner product (1/n) * u.T @ K @ v.

    Together with the 1/n already inside the matrix entries this realizes
    the kernel-weighted seminorm used by the normal-equations solver.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.size != K.n or v.size != K.n:
        raise InvalidInput(
            f"dimension mismatch: u has {u.size}, v has {v.size}, matrix has {K.n}"
        )
    return float(u @ K.matvec(v)) / K.n
