"""Kernel specifications, normalized kernel operators, and weighted inner products.

Two kernel families are provided: a Gaussian kernel on the line, used for
smoke tests where no spectral structure is needed, and a truncated cosine
series kernel on [0, 1] whose eigenvalues and eigenfunctions are known in
closed form. All downstream spectral computations rely on the latter.

Solvers see a kernel through a normalized operator: the dense
``KernelMatrix`` for any kernel, or the ``FactoredKernel`` of the finite-rank
cosine kernel, which never forms the n x n matrix.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Union

import numpy as np

from .errors import InvalidInput, Unsupported


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
    [0, 1]: an optional constant mode phi_0(x) = 1 with eigenvalue 1, and
    cosine modes phi_j(x) = sqrt(2) * cos(j * pi * x) with eigenvalues
    j ** (-decay_exponent) for j = 1..truncation. The kernel is the finite
    sum k(x, y) = sum_j xi_j * phi_j(x) * phi_j(y).

    Parameters
    ----------
    decay_exponent : float
        Eigenvalue decay rate; must exceed 1 so the trace converges.
    truncation : int
        Number of cosine modes kept.
    include_constant : bool
        Whether the constant mode participates (default True).
    """

    decay_exponent: float
    truncation: int
    include_constant: bool = True

    def __post_init__(self):
        if not self.decay_exponent > 1:
            raise InvalidInput(
                f"decay_exponent must exceed 1, got {self.decay_exponent}"
            )
        if int(self.truncation) != self.truncation or self.truncation < 1:
            raise InvalidInput(
                f"truncation must be a positive integer, got {self.truncation}"
            )

    @property
    def n_modes(self) -> int:
        return self.truncation + 1 if self.include_constant else self.truncation

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue sequence aligned with the columns of ``basis``."""
        j = np.arange(1, self.truncation + 1, dtype=float)
        xi = j ** (-self.decay_exponent)
        if self.include_constant:
            return np.concatenate(([1.0], xi))
        return xi

    def basis(self, points) -> np.ndarray:
        """Eigenfunction matrix with shape (len(points), n_modes)."""
        x = np.asarray(points, dtype=float).ravel()
        first = 0 if self.include_constant else 1
        j = np.arange(first, self.truncation + 1, dtype=float)
        # One array, updated in place: each fresh n x modes temporary costs
        # new pages. Same operations as sqrt(2) * cos(pi * outer(x, j)).
        out = np.outer(x, j)
        out *= np.pi
        np.cos(out, out=out)
        out *= np.sqrt(2.0)
        if self.include_constant:
            out[:, 0] = 1.0
        return out

    @property
    def kappa_bound(self) -> float:
        """sup_x k(x, x), attained at x = 0: constant + 2 * sum of eigenvalues."""
        j = np.arange(1, self.truncation + 1, dtype=float)
        total = 2.0 * float(np.sum(j ** (-self.decay_exponent)))
        if self.include_constant:
            total += 1.0
        return total

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
        entries = _float_array(self.entries, copy)
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
        """R @ v for the symmetric square root R of K, so |R v|^2 = v.T K v."""
        lam, q = np.linalg.eigh(self.entries)
        root = (q * np.sqrt(np.clip(lam, 0.0, None))) @ q.T
        return root @ v


@dataclass(frozen=True)
class FactoredKernel:
    """Normalized kernel matrix K = B B.T of a finite-rank kernel, kept as B.

    For a Mercer kernel with eigenfunction matrix Phi at n points and
    eigenvalues xi, B = Phi * sqrt(xi / n) has one column per mode, so a
    matvec costs O(n * modes) and the n x n matrix is never formed. The
    factor is copied and frozen on construction; ``copy=False`` freezes it
    in place instead, for an array that nothing else holds.
    """

    factor: np.ndarray
    n: int
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        factor = _float_array(self.factor, copy)
        if factor.ndim != 2 or factor.shape[0] != self.n:
            raise InvalidInput(
                f"factor must have n={self.n} rows, got shape {factor.shape}"
            )
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)

    @classmethod
    def from_basis(cls, basis, eigenvalues) -> "FactoredKernel":
        """Factor of the normalized Mercer kernel matrix from its eigenfunction matrix."""
        basis = np.asarray(basis, dtype=float)
        n = basis.shape[0]
        factor = basis * np.sqrt(np.asarray(eigenvalues) / n)
        return cls(factor=factor, n=n, copy=False)

    def matvec(self, v) -> np.ndarray:
        """K @ v = B @ (B.T @ v) for a vector or a matrix of column vectors."""
        return self.factor @ (self.factor.T @ v)

    def sqrt_matvec(self, v) -> np.ndarray:
        """B.T @ v, so |B.T v|^2 = v.T K v."""
        return self.factor.T @ v


#: Either kernel operator; solvers use only ``n``, ``matvec`` and ``sqrt_matvec``.
KernelOperator = Union[KernelMatrix, FactoredKernel]


def _float_array(a, copy: bool) -> np.ndarray:
    return np.array(a, dtype=float) if copy else np.asarray(a, dtype=float)


def _symmetrized(g: np.ndarray) -> KernelMatrix:
    n = g.shape[0]
    entries = g + g.T
    entries /= 2.0 * n
    return KernelMatrix(entries=entries, n=n, copy=False)


def _points(points) -> np.ndarray:
    x = np.asarray(points, dtype=float).ravel()
    if x.size == 0:
        raise InvalidInput("points must be non-empty")
    return x


def build_kernel_matrix(points, kernel: KernelSpec) -> KernelMatrix:
    """Construct the normalized kernel matrix with entries k(X_i, X_j) / n.

    The raw Gram matrix is symmetrized as (G + G.T) / 2 before scaling, so
    the result is symmetric bit-exactly regardless of how the kernel
    evaluates its series.
    """
    x = _points(points)
    return _symmetrized(kernel.gram(x, x))


def build_factored_kernel(points, kernel: MercerKernel) -> FactoredKernel:
    """Construct the normalized kernel matrix of a Mercer kernel in factored form.

    Agrees with ``build_kernel_matrix`` up to rounding (about 1e-15
    relative) while storing n * n_modes numbers instead of n * n.
    """
    if not isinstance(kernel, MercerKernel):
        raise Unsupported("only a finite-rank Mercer kernel has a factored form")
    x = _points(points)
    return FactoredKernel.from_basis(kernel.basis(x), kernel.eigenvalues())


def kn_inner(u, v, K: KernelOperator) -> float:
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
