"""Exact spectral error norms and effective dimension.

Because synthetic targets are finite combinations of the kernel's own
eigenfunctions, the distance between an estimator and the target reduces to
a weighted coefficient sum that is exact up to float rounding. The weights
grow like eigenvalue**(-2*theta), so sums are correctly rounded
(``math.fsum``) and exact-zero terms are skipped before weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .synth import MercerModel

#: Resolution floor for squared spectral distances: the solver's iterate
#: floor (about 1e-12 relative) squared. Measured errors at or below zero
#: are indistinguishable from this level.
ERROR_FLOOR = 1e-24


@dataclass(frozen=True)
class ErrorReport:
    """Distance between an estimator and the model target in one norm.

    The spectral distance is exact: the target is the model's own finite expansion.

    Fields
    ------
    theta : float
        Norm index: 0 is the prediction-space distance, 1/2 the
        hypothesis-space distance; values in between interpolate.
    error_value : float
        The distance itself (not squared).
    """

    theta: float
    error_value: float


@dataclass(frozen=True)
class EffectiveDimension:
    """Truncated effective-dimension sum plus an integral tail bound."""

    truncated_sum: float
    tail_bound: float

    @property
    def value(self) -> float:
        return self.truncated_sum + self.tail_bound


def estimator_spectrum(alpha, train_points, model: MercerModel) -> np.ndarray:
    """Coefficients of the model kernel's expansion in its eigenbasis.

    The expansion (1/n) * sum_i alpha_i k(X_i, .) has j-th coefficient
    eigenvalue_j * (1/n) * sum_i alpha_i phi_j(X_i).
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    x = np.asarray(train_points, dtype=float).ravel()
    if alpha.size != x.size:
        raise InvalidInput(
            f"dimension mismatch: alpha has {alpha.size}, train has {x.size}"
        )
    if x.size == 0:
        raise InvalidInput("train_points must be non-empty")
    return model.eigenvalues * (model.kernel.basis(x).T @ alpha) / x.size


def spectral_error(spectrum, model: MercerModel, theta: float) -> float:
    """Theta-norm distance from the target of the estimator with these eigen-coefficients.

    ``spectrum`` holds the estimator's coefficients on the model's
    eigenfunctions, as ``estimator_spectrum`` returns them; for a
    ``gram_fit`` iterate c = B.T alpha, with B = Phi * sqrt(xi / n), it is
    sqrt(xi / n) * c. The sum of eigenvalue**(-2 theta) * (coefficient gap)**2
    is correctly rounded (``math.fsum``), and exact-zero gaps are skipped
    before weighting.
    """
    if not 0.0 <= theta <= 0.5:
        raise InvalidInput(f"theta must lie in [0, 1/2], got {theta}")
    if model.r < 0.5 and theta >= model.r:
        raise InvalidInput(
            f"theta must stay below the smoothness exponent r={model.r} "
            f"when the target lies outside the hypothesis space, got {theta}"
        )
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.shape != model.eigenvalues.shape:
        raise InvalidInput(
            f"spectrum has shape {spectrum.shape}, the model "
            f"{model.eigenvalues.size} modes"
        )
    delta = spectrum - model.target_coeffs
    nonzero = delta != 0.0
    terms = model.eigenvalues[nonzero] ** (-2.0 * theta) * delta[nonzero] ** 2
    return math.sqrt(max(math.fsum(terms.tolist()), 0.0))


def error_norm(alpha, train_points, model: MercerModel, theta: float) -> ErrorReport:
    """Theta-norm distance between the fitted expansion and the model target.

    ``alpha`` holds the expansion coefficients over ``train_points`` in the
    model's own kernel; ``theta`` is the norm index of ``ErrorReport``.
    """
    spectrum = estimator_spectrum(alpha, train_points, model)
    return ErrorReport(float(theta), spectral_error(spectrum, model, theta))


def effective_dimension(
    eigenvalues,
    lam: float,
    tail_decay: float | None = None,
    tail_from: int | None = None,
) -> EffectiveDimension:
    """Sum of eigenvalue / (eigenvalue + lam), with an optional tail bound.

    When the listed eigenvalues continue as index**(-tail_decay) beyond
    index ``tail_from``, the neglected mass is bounded by the integral of
    1 / (1 + lam * t**tail_decay) from tail_from to infinity (``_tail_integral``).
    """
    if not 0 < lam < math.inf:
        raise InvalidInput(f"lambda must be positive and finite, got {lam}")
    xi = np.asarray(eigenvalues, dtype=float).ravel()
    if xi.size == 0:
        raise InvalidInput("eigenvalues must be non-empty")
    if not np.all((xi >= 0.0) & (xi < np.inf)):  # NaN fails both
        raise InvalidInput("eigenvalues must be finite and nonnegative")
    truncated = math.fsum((xi / (xi + lam)).tolist())
    tail = 0.0
    if tail_decay is not None:
        if tail_from is None:
            raise InvalidInput("tail_from is required when tail_decay is given")
        if not tail_from > 0:
            raise InvalidInput(f"tail_from must be positive, got {tail_from}")
        if not 1 < tail_decay < math.inf:
            raise InvalidInput(f"tail_decay must exceed 1 and be finite, got {tail_decay}")
        tail = _tail_integral(float(tail_decay), float(lam), float(tail_from))
    return EffectiveDimension(truncated_sum=truncated, tail_bound=float(tail))


def _tail_integral(d: float, lam: float, t0: float) -> float:
    """Integral of 1 / (1 + lam * t**d) over [t0, inf), for d > 1.

    It is lam**(-1/d) * F(a), a = lam**(1/d) * t0, F(a) the integral of
    1 / (1 + v**d) over [a, inf). For a <= 1, F(a) is the complete integral
    (pi/d) / sin(pi/d) less the integral over [0, a]; for a > 1, v = y**(1/(1-d))
    makes it the integral of 1 / (1 + y**(d/(d-1))) over [0, a**(1-d)], over d - 1.
    """
    scale = lam ** (-1.0 / d)
    a = t0 / scale
    if a <= 1.0:
        return scale * (math.pi / d / math.sin(math.pi / d) - _power_integral(a, d))
    return scale * _power_integral(a ** (1.0 - d), d / (d - 1.0)) / (d - 1.0)


def _power_integral(b: float, p: float) -> float:
    """Integral of 1 / (1 + v**p) over [0, b], b <= 1 < p: 64-point Gauss-Legendre
    in u, v = b * u**2, which smooths the term v**p to u**(2p + 1) at 0."""
    from numpy.polynomial.legendre import leggauss  # kept out of import kernelcg
    x, w = leggauss(64)
    u = 0.5 * (x + 1.0)
    return float(np.dot(w, b * u / (1.0 + (b * u * u) ** p)))
