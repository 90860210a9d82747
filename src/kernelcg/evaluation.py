"""Exact spectral error norms, a Monte-Carlo fallback, and effective dimension.

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

from .errors import InvalidInput, Unsupported
from .kernels import GaussianKernel, KernelSpec
from .solvers import predict
from .synth import MercerModel, eval_target

#: Default number of uniform draws for the Monte-Carlo error path.
MC_SAMPLES_DEFAULT = 100_000

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
    method : str
        "spectral" (exact coefficient sum) or "monte_carlo".
    mc_samples : int, optional
        Draw count behind a Monte-Carlo estimate.
    mc_std_err : float, optional
        Standard error of the squared-distance estimate.
    """

    theta: float
    error_value: float
    method: str
    mc_samples: int | None = None
    mc_std_err: float | None = None


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
    return model.eigenvalues * (model.kernel.basis(x).T @ alpha) / x.size


def _check_theta(model: MercerModel, theta: float) -> None:
    if not 0.0 <= theta <= 0.5:
        raise InvalidInput(f"theta must lie in [0, 1/2], got {theta}")
    if model.r < 0.5 and theta >= model.r:
        raise InvalidInput(
            f"theta must stay below the smoothness exponent r={model.r} "
            f"when the target lies outside the hypothesis space, got {theta}"
        )


def spectral_error(spectrum, model: MercerModel, theta: float) -> float:
    """Theta-norm distance from the target of the estimator with these eigen-coefficients.

    ``spectrum`` holds the estimator's coefficients on the model's
    eigenfunctions, as ``estimator_spectrum`` returns them; for a
    ``gram_fit`` iterate c = B.T alpha, with B = Phi * sqrt(xi / n), it is
    sqrt(xi / n) * c. The sum of eigenvalue**(-2 theta) * (coefficient gap)**2
    is correctly rounded (``math.fsum``), and exact-zero gaps are skipped
    before weighting.
    """
    _check_theta(model, theta)
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


def error_norm(
    alpha,
    train_points,
    model: MercerModel,
    theta: float,
    kernel: KernelSpec | None = None,
    method: str = "auto",
    mc_samples: int = MC_SAMPLES_DEFAULT,
    mc_seed: int = 20_250_101,
) -> ErrorReport:
    """Distance between the fitted expansion and the model target.

    Parameters
    ----------
    alpha : array-like
        Expansion coefficients over the training points.
    train_points : array-like
        Points the expansion is anchored at.
    model : MercerModel
        Supplies the target and the spectral weights.
    theta : float
        Norm index; see ``ErrorReport``.
    kernel : KernelSpec, optional
        Kernel of the fitted expansion when it is not the model's own
        (a Gaussian fit forces the Monte-Carlo route).
    method : {"auto", "spectral", "monte_carlo"}
        "auto" picks spectral whenever the expansion kernel admits it.
    mc_samples, mc_seed : int
        Monte-Carlo draw count and seed (counter-based generator).
    """
    _check_theta(model, theta)
    if method not in ("auto", "spectral", "monte_carlo"):
        raise InvalidInput(f"unknown method {method!r}")
    gaussian_fit = isinstance(kernel, GaussianKernel)
    if method == "auto":
        method = "monte_carlo" if gaussian_fit else "spectral"

    if method == "spectral":
        if gaussian_fit:
            raise Unsupported(
                "no closed-form spectrum for a translation-invariant kernel; "
                "use the Monte-Carlo error path"
            )
        c_hat = estimator_spectrum(alpha, train_points, model)
        return ErrorReport(
            theta=float(theta),
            error_value=spectral_error(c_hat, model, theta),
            method="spectral",
        )

    if theta != 0.0:
        raise Unsupported(
            "the Monte-Carlo route only measures the theta=0 distance"
        )
    expansion_kernel = kernel if kernel is not None else model.kernel
    rng = np.random.Generator(np.random.Philox(mc_seed))
    x_mc = rng.random(int(mc_samples))
    diff = predict(alpha, train_points, expansion_kernel, x_mc) - eval_target(
        model, x_mc
    )
    sq_samples = diff**2
    mean_sq = float(np.mean(sq_samples))
    std_err = float(np.std(sq_samples, ddof=1) / math.sqrt(sq_samples.size))
    return ErrorReport(
        theta=0.0,
        error_value=math.sqrt(max(mean_sq, 0.0)),
        method="monte_carlo",
        mc_samples=int(mc_samples),
        mc_std_err=std_err,
    )


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
    if not lam > 0:
        raise InvalidInput(f"lambda must be positive, got {lam}")
    xi = np.asarray(eigenvalues, dtype=float).ravel()
    if xi.size == 0:
        raise InvalidInput("eigenvalues must be non-empty")
    truncated = math.fsum((xi / (xi + lam)).tolist())
    tail = 0.0
    if tail_decay is not None:
        if tail_from is None:
            raise InvalidInput("tail_from is required when tail_decay is given")
        if not tail_from > 0:
            raise InvalidInput(f"tail_from must be positive, got {tail_from}")
        if not tail_decay > 1:
            raise InvalidInput(
                f"tail_decay must exceed 1 for the tail to converge, got {tail_decay}"
            )
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
