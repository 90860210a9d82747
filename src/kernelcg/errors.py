"""Exception types shared across the library."""

from __future__ import annotations


class InvalidInput(ValueError):
    """An argument violates a documented precondition; the message names it."""


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
