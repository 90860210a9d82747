"""Dense reference forms the tests hold the Gram-space route to.

``dense`` builds the normalized kernel matrix as the benchmark's output check
(``perfbench/outcheck.py``) does, and ``quad`` is that matrix's weighted
inner product. ``factor`` and ``from_basis`` form the factor B and the Gram
system from the basis matrix, the reference for ``GramSystem.from_design``.
"""

from __future__ import annotations

import numpy as np

from kernelcg import GramSystem, KernelMatrix, MercerKernel


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
    return GramSystem(G=G, b=w * (phi.T @ y), yy=float(y @ y), n=y.size)
