"""Exception types shared across the library, and its two readers of numbers.

Every count a caller passes is read by ``whole_number`` and every positive
scale by ``finite_number``, so all entry points refuse the same inputs.
"""

from __future__ import annotations

import math

_SIGNS = {0: "nonnegative", 1: "positive"}


class InvalidInput(ValueError):
    """An argument violates a documented precondition; the message names it."""


def _scalar(value) -> bool:
    """False for a boolean, a string or an array with ndim > 0; numpy's scalars
    and arrays are told by their ``ndim`` and ``dtype``, without importing numpy."""
    if isinstance(value, (bool, str, bytes)):
        return False
    dtype = getattr(value, "dtype", None)
    return getattr(value, "ndim", 0) == 0 and (dtype is None or dtype.kind not in "bSU")


def whole_number(name: str, value, lo: int | None = None) -> int:
    """``value``, an int, a numpy integer or a whole float, as an int of at least ``lo``
    (None, 0 or 1). Booleans, strings, None, fractions, NaN, infinities, arrays
    with ndim > 0 and values below ``lo`` are an InvalidInput naming ``name``."""
    kind = "an integer" if lo is None else f"a {_SIGNS[lo]} integer"
    try:
        whole = _scalar(value) and int(value) == value
    except (OverflowError, TypeError, ValueError):  # None, NaN, inf
        whole = False
    if not whole:
        raise InvalidInput(f"{name} must be {kind}, got {value!r}")
    if lo is not None and value < lo:
        raise InvalidInput(f"{name} must be {_SIGNS[lo]}, got {value!r} ({name} must be {kind})")
    return int(value)


def finite_number(name: str, value, positive: bool = True) -> float:
    """``value`` as a float, finite and, when ``positive``, above 0. Booleans, strings,
    None, NaN, infinities and arrays with ndim > 0 are an InvalidInput naming ``name``."""
    try:
        ok = _scalar(value) and (0 if positive else -math.inf) < value < math.inf
    except TypeError:  # None
        ok = False
    if not ok:
        rule = "positive and finite" if positive else "finite"
        raise InvalidInput(f"{name} must be {rule}, got {value!r}")
    return float(value)


class NumericalFailure(ArithmeticError):
    """A non-finite value appeared mid-iteration.

    Carries the iteration index at which the failure was detected.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class NotReached(RuntimeError):
    """The stopping threshold was not met before the iteration budget ran out.

    The caller should extend ``max_iter`` and retry; ``m_last`` and
    ``last_residual`` describe where the truncated run ended.
    """

    def __init__(self, m_last: int, last_residual: float):
        super().__init__(
            f"threshold not reached by iteration {m_last} "
            f"(last residual {last_residual:.6g}); extend max_iter"
        )
        self.m_last = m_last
        self.last_residual = last_residual
