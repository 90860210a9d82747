"""Discrepancy-principle thresholds, stop-index selection, and hold-out choice.

Two closed-form threshold formulas cover the two regularity regimes the
theory distinguishes: targets inside the hypothesis space (``threshold_inner``,
requiring smoothness r >= 1/2) and targets outside it (``threshold_outer``,
r < 1/2, where unlabeled padding enters and the response scale is replaced by
max(rho, M)). Both formulas are literal; their constants are conservative by
design. ``threshold_calibrated`` keeps the same dependence on the sample size
but anchors the constant to the empirical noise floor, which is what the
experiment harness uses by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotReached, finite_number, whole_number
from .solvers import CgTrace


@dataclass(frozen=True)
class ThresholdParams:
    """Inputs of the stopping-threshold formulas.

    Fields
    ------
    M : float
        Noise/response scale bound.
    kappa : float
        Kernel diagonal bound sup_x k(x, x).
    D : float
        Effective-dimension constant, at least 1.
    n : int
        Number of labeled observations.
    gamma : float
        Failure probability in (0, 1).
    r : float
        Source smoothness exponent.
    s : float
        Eigenvalue decay parameter in (0, 1).
    tau_prime : float
        Safety multiplier; the admissible range depends on the regime.
    rho : float, optional
        Source norm scale; required by the outer-regime formula.
    """

    M: float
    kappa: float
    D: float
    n: int
    gamma: float
    r: float
    s: float
    tau_prime: float
    rho: float | None = None

    def __post_init__(self):
        for name in ("M", "kappa", "r", "tau_prime"):
            finite_number(name, getattr(self, name))
        if self.rho is not None:
            finite_number("rho", self.rho)
        # NaN fails every comparison.
        if not 1 <= self.D < math.inf:
            raise InvalidInput(f"D must be at least 1 and finite, got {self.D}")
        object.__setattr__(self, "n", whole_number("n", self.n, 1))
        if not 0 < self.gamma < 1:
            raise InvalidInput(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0 < self.s < 1:
            raise InvalidInput(f"s must lie in (0, 1), got {self.s}")


@dataclass(frozen=True)
class ThresholdResult:
    """A stopping threshold plus the sample-size admissibility verdict.

    ``admissible`` reports whether n satisfies the regime's large-sample
    condition; it is informational and nothing downstream enforces it,
    so undersized sweeps still run flagged.
    """

    omega: float
    admissible: bool


def _admissible(p: ThresholdParams) -> bool:
    """The regime's large-sample condition n >= 16 D^2 log^2(c/gamma), c = 6 or 4."""
    c = 6.0 if p.r >= 0.5 else 4.0
    return p.n >= 16.0 * p.D**2 * math.log(c / p.gamma) ** 2


def _literal(p: ThresholdParams, scale: float) -> ThresholdResult:
    """The closed-form threshold of both regimes: only the response ``scale`` differs."""
    bracket = (4.0 * p.D / math.sqrt(p.n)) * math.log(6.0 / p.gamma)
    exponent = (2.0 * p.r + 1.0) / (2.0 * p.r + p.s)
    omega = p.tau_prime * scale * math.sqrt(p.kappa) * bracket**exponent
    return ThresholdResult(omega=omega, admissible=_admissible(p))


def threshold_inner(p: ThresholdParams) -> ThresholdResult:
    """Stopping threshold for targets inside the hypothesis space.

    Omega = tau' * M * sqrt(kappa) * ((4D/sqrt(n)) * log(6/gamma)) ** e
    with e = (2r + 1) / (2r + s). Requires tau' > 3/2 and r >= 1/2.
    Admissible when n >= 16 * D^2 * log^2(6/gamma).
    """
    if not p.tau_prime > TAU_PRIME_FLOOR_INNER:
        raise InvalidInput(
            f"inner regime requires tau_prime > 3/2, got {p.tau_prime}"
        )
    if not p.r >= 0.5:
        raise InvalidInput(f"inner regime requires r >= 1/2, got r={p.r}")
    return _literal(p, p.M)


def threshold_outer(p: ThresholdParams) -> ThresholdResult:
    """Stopping threshold for targets outside the hypothesis space.

    Omega = tau' * max(rho, M) * sqrt(kappa) * ((4D/sqrt(n)) * log(6/gamma)) ** e
    with e = (2r + 1) / (2r + s). Requires tau' > 6, r < 1/2, r + s >= 1/2.
    Admissible when n >= 16 * D^2 * log^2(4/gamma); the 6 inside the
    threshold and the 4 inside the admissibility bound are both intentional.
    """
    if not p.tau_prime > TAU_PRIME_FLOOR_OUTER:
        raise InvalidInput(f"outer regime requires tau_prime > 6, got {p.tau_prime}")
    if not p.r < 0.5:
        raise InvalidInput(f"outer regime requires r < 1/2, got r={p.r}")
    if not p.r + p.s >= 0.5:
        raise InvalidInput(
            f"outer regime requires r + s >= 1/2, got r+s={p.r + p.s}"
        )
    if p.rho is None:
        raise InvalidInput("outer regime requires rho")
    return _literal(p, max(p.rho, p.M))


#: Fraction of the noise floor the calibrated threshold sits at when
#: tau_prime equals its regime minimum and n equals the anchor size.
#: Chosen once against oracle-stopped runs. The notes of that calibration are
#: not in the repository; ROADMAP item 3 plans a demo that re-derives it.
CALIBRATION_FRACTION = 0.39

#: Smallest admissible tau_prime per regime; the calibrated threshold
#: measures tau_prime in units of this minimum so that the customary
#: choices for both regimes land on the same residual scale.
TAU_PRIME_FLOOR_INNER = 1.5
TAU_PRIME_FLOOR_OUTER = 6.0

#: ``holdout_select`` scores this many candidate rows per pass.
HOLDOUT_SELECT_ROWS = 8


def threshold_calibrated(
    p: ThresholdParams,
    sigma: float,
    trace_k: float,
    n_ref: float,
) -> ThresholdResult:
    """Noise-floor-anchored threshold with the theoretical decay rate.

    The closed-form thresholds above are safe for any model but their
    constants are so conservative that on desk-scale sample sizes they sit
    far above the data's residual scale, stopping every run at iteration
    zero. This variant keeps the decisive part of the formula, the
    sample-size exponent, and re-anchors the constant on an observable
    scale: the expected weighted norm of pure noise, sigma*sqrt(trace/n).

    Concretely,

        omega(n) = (tau'/tau'_min) * C * floor(n) * (n_ref/n)^x,

    where floor(n) = sigma*sqrt(trace_k/n), C = CALIBRATION_FRACTION,
    tau'_min is the smallest admissible tau' for the regime (3/2 when
    r >= 1/2, 6 below), and x = (1-s)/(2*(2r+s)) is exactly the amount by
    which the theoretical threshold decays faster than the noise floor.
    Oracle-stopped runs put the optimal residual at 0.3-0.5 of the floor
    with the same excess decay, which fixes C.

    Parameters
    ----------
    p : ThresholdParams
        The same parameter set the literal formulas take; regime range
        checks are not applied here, only positivity.
    sigma : float
        Noise standard deviation of the generating model.
    trace_k : float
        Trace of the kernel operator (sum of eigenvalues).
    n_ref : float
        Anchor sample size, typically the geometric mean of the sweep grid.
        It, sigma and trace_k must be positive and finite.
    """
    for name, value in (("sigma", sigma), ("trace_k", trace_k), ("n_ref", n_ref)):
        finite_number(name, value)
    tau_floor = TAU_PRIME_FLOOR_INNER if p.r >= 0.5 else TAU_PRIME_FLOOR_OUTER
    excess = (1.0 - p.s) / (2.0 * (2.0 * p.r + p.s))
    floor_n = sigma * math.sqrt(trace_k / p.n)
    omega = (
        (p.tau_prime / tau_floor)
        * CALIBRATION_FRACTION
        * floor_n
        * (n_ref / p.n) ** excess
    )
    return ThresholdResult(omega=omega, admissible=_admissible(p))


def discrepancy_stop(trace: CgTrace, omega: float) -> int:
    """First iteration whose residual falls strictly below the threshold.

    When no recorded residual beats the threshold but the run exhausted its
    reachable space (breakdown, or as many iterations as the system has
    rows), the terminal iterate is the exact minimizer over that space and
    its index is returned. If the run was merely truncated by ``max_iter``,
    raises ``NotReached``.
    """
    if not omega > 0:
        raise InvalidInput(f"omega must be positive, got {omega}")
    if len(trace.residual_norms) == 0:
        raise InvalidInput("trace has no residuals")
    for m, res in enumerate(trace.residual_norms):
        if res < omega:
            return m
    if trace.breakdown_at is not None or trace.m_last >= trace.n:
        return trace.m_last
    raise NotReached(trace.m_last, trace.residual_norms[-1])


def holdout_select(predictions, val_labels, M_clip: float) -> int:
    """Iterate whose clipped predictions best fit held-out labels.

    ``predictions`` holds one row per candidate iterate and one column per
    validation point. Predictions are clamped to [-M_clip, M_clip], and the
    row with the smallest mean squared validation error wins; ties break
    toward the smallest index. A non-finite loss (a NaN prediction, a
    non-finite label) is an InvalidInput.
    """
    preds = np.asarray(predictions, dtype=float)
    val_y = np.asarray(val_labels, dtype=float).ravel()
    if val_y.size == 0:
        raise InvalidInput("validation set must be non-empty")
    if preds.ndim != 2 or preds.shape[1] != val_y.size:
        raise InvalidInput(
            f"predictions of shape {preds.shape} do not fit {val_y.size} validation labels"
        )
    if len(preds) == 0:
        raise InvalidInput("predictions must hold at least one candidate iterate")
    if not M_clip > 0:
        raise InvalidInput(f"M_clip must be positive, got {M_clip}")
    # HOLDOUT_SELECT_ROWS rows at a time through one C-ordered buffer, so
    # temporaries stay a few validation sets in size and each loss is the
    # same pairwise sum along its row, divided by the count, as that row's
    # mean alone, whatever the layout of ``predictions``.
    losses = np.empty(len(preds))
    buffer = np.empty((min(HOLDOUT_SELECT_ROWS, len(preds)), val_y.size))
    for i in range(0, len(preds), HOLDOUT_SELECT_ROWS):
        part = buffer[: len(preds) - i]
        np.clip(preds[i : i + len(part)], -M_clip, M_clip, out=part)
        part -= val_y
        part *= part
        np.add.reduce(part, axis=1, out=losses[i : i + len(part)])
    losses /= val_y.size
    finite = np.isfinite(losses)
    if not finite.all():
        m = int(np.argmin(finite))
        raise InvalidInput(f"hold-out losses must be finite; iterate {m} has {float(losses[m])}")
    return int(np.argmin(losses))


__all__ = [
    "ThresholdParams",
    "ThresholdResult",
    "threshold_inner",
    "threshold_outer",
    "threshold_calibrated",
    "discrepancy_stop",
    "holdout_select",
]
