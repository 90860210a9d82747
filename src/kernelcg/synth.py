"""Synthetic regression models with known spectrum, smoothness, and noise.

A model fixes the eigenvalue decay of the kernel, places the target function
inside (or outside) the hypothesis space with an exactly saturated smoothness
constraint, and attaches one of two noise laws. Everything downstream that
claims "exact" error evaluation leans on the fact that the target here is a
finite combination of the kernel's own eigenfunctions.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import InvalidInput
from .kernels import MercerKernel

#: Bit generator used for every sample draw, recorded in serialized output.
RNG_ALGORITHM = "numpy-philox-4x64"

#: Grid of lambda values (as fractions of kappa) on which the
#: effective-dimension constant is fitted.
ED_LAMBDA_DECADES = 7


@dataclass(frozen=True)
class UniformBounded:
    """Noise uniform on [-a, a], a chosen so the response never leaves [-M, M]."""

    M: float

    def __post_init__(self):
        if not 0 < self.M < math.inf:
            raise InvalidInput(f"noise bound M must be positive and finite, got {self.M}")


@dataclass(frozen=True)
class GaussianBernstein:
    """Centered Gaussian noise with standard deviation M / sqrt(2).

    That scale makes every even moment no larger than (1/2) p! M^p, the
    moment growth the theory's heavy-tail condition allows.
    """

    M: float

    def __post_init__(self):
        if not 0 < self.M < math.inf:
            raise InvalidInput(f"noise bound M must be positive and finite, got {self.M}")


NoiseSpec = Union[UniformBounded, GaussianBernstein]


@dataclass(frozen=True)
class MercerModel:
    """A fully known synthetic regression problem.

    Fields
    ------
    s : float
        Eigenvalue decay parameter in (0, 1); eigenvalues fall as j**(-1/s).
    r : float
        Source smoothness exponent of the target.
    rho : float
        Source norm scale; the constraint on the source coefficients is
        saturated exactly at kappa**(-r) * rho.
    kernel : MercerKernel
        The cosine kernel with decay exponent 1/s, built once by ``make_model``.
    eigenvalues : ndarray
        ``kernel.eigenvalues()``, aligned with the basis columns.
    source_coeffs : ndarray
        Coefficients u_j of the source element.
    target_coeffs : ndarray
        Coefficients of the target: eigenvalues**r * source_coeffs.
    noise : UniformBounded or GaussianBernstein
    kappa : float
        Kernel diagonal bound ``kernel.kappa_bound``.
    sup_f : float
        Bound on |target|: sum of |coefficient| * sup|eigenfunction|.
    ed_constant : float
        Fitted effective-dimension constant D >= 1 (see ``make_model``).
    """

    s: float
    r: float
    rho: float
    kernel: MercerKernel
    eigenvalues: np.ndarray
    source_coeffs: np.ndarray
    target_coeffs: np.ndarray
    noise: NoiseSpec
    kappa: float
    sup_f: float
    ed_constant: float

    def __post_init__(self):
        for name in ("eigenvalues", "source_coeffs", "target_coeffs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def noise_std(self) -> float:
        """Standard deviation of the noise law."""
        if isinstance(self.noise, UniformBounded):
            half_width = self.noise.M - self.sup_f
            return half_width / math.sqrt(3.0)
        return self.noise.M / math.sqrt(2.0)

    def identifier(self) -> str:
        """Short content hash used to tie samples back to their model."""
        return self._identifier

    @cached_property
    def _identifier(self) -> str:
        # Computed on first use and kept: every draw stamps it on its sample.
        payload = json.dumps(model_to_dict(self), sort_keys=True)
        return "mercer-" + hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Sample:
    """One draw from a model: design points, responses, optional padding.

    ``X_unlabeled`` and ``Y_padded`` are present only for semi-supervised
    draws; the padded response scales the labeled part by (n_total / n) and
    fills the rest with zeros.
    """

    X_labeled: np.ndarray
    Y: np.ndarray
    X_unlabeled: np.ndarray | None
    Y_padded: np.ndarray | None
    seed: int
    model_ref: str
    rng: str = RNG_ALGORITHM

    def __post_init__(self):
        for name in ("X_labeled", "Y", "X_unlabeled", "Y_padded"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _fit_ed_constant(eigenvalues: np.ndarray, kappa: float, s: float) -> float:
    """Smallest D >= 1 with N(lambda) <= D^2 (lambda/kappa)^(-s) on a decade grid."""
    best = 1.0
    for k in range(ED_LAMBDA_DECADES):
        lam = kappa * 10.0 ** (-k)
        n_lam = float(np.sum(eigenvalues / (eigenvalues + lam)))
        best = max(best, math.sqrt(n_lam * (lam / kappa) ** s))
    return best


def make_model(
    s: float,
    r: float,
    rho: float,
    truncation: int = 2000,
    noise: NoiseSpec | None = None,
    u_profile: str | int = "inverse_index",
) -> MercerModel:
    """Build a model whose smoothness constraint is saturated exactly.

    Parameters
    ----------
    s : float
        Eigenvalue decay parameter in (0, 1).
    r : float
        Source smoothness exponent, positive.
    rho : float
        Source norm scale, positive.
    truncation : int
        Number of cosine modes, at least 10; the kernel has truncation + 1
        modes, the constant mode first.
    noise : UniformBounded or GaussianBernstein, optional
        Defaults to UniformBounded(M=1).
    u_profile : "inverse_index" or int
        Shape of the source coefficients before rescaling. The default
        weights mode j by 1/j (the constant mode by 1), spreading energy
        across the whole spectrum. An integer selects a one-hot source on
        that mode index, which makes the target a single closed-form
        eigenfunction.
    """
    if not 0 < s < 1:
        raise InvalidInput(f"s must lie in (0, 1), got {s}")
    if not 0 < r < math.inf:
        raise InvalidInput(f"r must be positive and finite, got {r}")
    if not 0 < rho < math.inf:
        raise InvalidInput(f"rho must be positive and finite, got {rho}")
    if truncation < 10:
        raise InvalidInput(f"truncation must be at least 10, got {truncation}")
    if noise is None:
        noise = UniformBounded(M=1.0)

    kernel = MercerKernel(decay_exponent=1.0 / s, truncation=truncation)
    xi = kernel.eigenvalues()
    kappa = kernel.kappa_bound

    if u_profile == "inverse_index":
        j = np.arange(1, truncation + 1, dtype=float)
        weights = np.concatenate(([1.0], 1.0 / j))
    elif isinstance(u_profile, int) and not isinstance(u_profile, bool):
        if not 0 <= u_profile < xi.size:
            raise InvalidInput(
                f"one-hot mode index {u_profile} outside [0, {xi.size})"
            )
        weights = np.zeros(xi.size)
        weights[u_profile] = 1.0
    else:
        raise InvalidInput(
            f"u_profile must be 'inverse_index' or a mode index, got {u_profile!r}"
        )

    target_norm = kappa ** (-r) * rho
    u = weights * (target_norm / float(np.linalg.norm(weights)))
    c_star = xi**r * u

    sup_phi = np.full(xi.size, math.sqrt(2.0))
    sup_phi[0] = 1.0
    sup_f = float(np.sum(np.abs(c_star) * sup_phi))

    if isinstance(noise, UniformBounded) and not noise.M > sup_f:
        raise InvalidInput(
            f"noise bound M={noise.M} must exceed the target's sup-norm "
            f"bound {sup_f:.6g} for the response to stay in [-M, M]"
        )

    return MercerModel(
        s=float(s),
        r=float(r),
        rho=float(rho),
        kernel=kernel,
        eigenvalues=xi,
        source_coeffs=u,
        target_coeffs=c_star,
        noise=noise,
        kappa=float(kappa),
        sup_f=sup_f,
        ed_constant=_fit_ed_constant(xi, kappa, s),
    )


def padded_total(n: int, r: float, s: float) -> int:
    """Total design size for semi-supervised draws: ceil(n ** ((1+s)/(2r+s))).

    Raises InvalidInput unless n is a positive integer.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    return max(n, math.ceil(n ** ((1.0 + s) / (2.0 * r + s))))


def draw_sample(
    model: MercerModel, n: int, unlabeled: bool = False, seed: int = 0
) -> Sample:
    """Draw one i.i.d. sample from the model.

    Draw order is fixed: labeled design points first, then unlabeled design
    points (when requested), then noise. The generator is counter-based, so
    any nonnegative integer seed reproduces the sample bit-exactly.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInput(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(seed))

    x = rng.random(n)
    x_extra = None
    if unlabeled:
        total = padded_total(n, model.r, model.s)
        x_extra = rng.random(total - n)

    f_x = eval_target(model, x)
    if isinstance(model.noise, UniformBounded):
        half_width = model.noise.M - model.sup_f
        eps = rng.uniform(-half_width, half_width, n)
    else:
        eps = rng.normal(0.0, model.noise.M / math.sqrt(2.0), n)
    y = f_x + eps

    y_padded = None
    if unlabeled:
        total = n + x_extra.size
        y_padded = np.concatenate([(total / n) * y, np.zeros(x_extra.size)])

    return Sample(
        X_labeled=x,
        Y=y,
        X_unlabeled=x_extra,
        Y_padded=y_padded,
        seed=int(seed),
        model_ref=model.identifier(),
    )


def eval_target(model: MercerModel, x):
    """Evaluate the target function; scalar in, scalar out.

    Exact for the model itself: the target is a finite combination of the
    eigenfunctions, summed by ``MercerKernel.series``, so the only tolerance
    is float rounding. Raises InvalidInput unless x lies in [0, 1].
    """
    values = model.kernel.series(x, model.target_coeffs)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(values[0])
    return values


# --- JSON serialization -----------------------------------------------------


def noise_to_dict(noise: NoiseSpec) -> dict:
    kind = "uniform_bounded" if isinstance(noise, UniformBounded) else "gaussian_bernstein"
    return {"kind": kind, "M": noise.M}


def model_to_dict(model: MercerModel) -> dict:
    """JSON-ready description; coefficient arrays are regenerable, so only
    the generating parameters and derived scalars are stored."""
    return {
        "s": model.s,
        "r": model.r,
        "rho": model.rho,
        "truncation": model.kernel.truncation,
        "noise": noise_to_dict(model.noise),
        "u_profile": _infer_u_profile(model),
        "kappa": model.kappa,
        "kappa_tail": model.kernel.kappa_tail,
        "sup_f": model.sup_f,
        "ed_constant": model.ed_constant,
    }


def _infer_u_profile(model: MercerModel) -> str | int:
    nonzero = np.nonzero(model.source_coeffs)[0]
    if nonzero.size == 1:
        return int(nonzero[0])
    return "inverse_index"


def sample_to_dict(sample: Sample) -> dict:
    return {
        "X_labeled": sample.X_labeled.tolist(),
        "Y": sample.Y.tolist(),
        "X_unlabeled": None if sample.X_unlabeled is None else sample.X_unlabeled.tolist(),
        "Y_padded": None if sample.Y_padded is None else sample.Y_padded.tolist(),
        "seed": sample.seed,
        "model_ref": sample.model_ref,
        "rng": sample.rng,
    }
