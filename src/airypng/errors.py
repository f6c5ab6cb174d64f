"""Exception types shared across the package, and the one refinement rule
that raises ``NumericsError``."""

import math

import numpy as np

from .blas import one_blas_thread


class DomainError(ValueError):
    """An argument lies outside the documented supported range."""


class NumericsError(RuntimeError):
    """A numerical routine failed to converge to its stated tolerance.

    ``estimates`` holds the last refinement pair so callers can inspect
    how badly the computation disagreed with itself.
    """

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class InsufficientDataError(RuntimeError):
    """A Monte Carlo experiment produced too small a conditioned sample."""


def settled(refinements, tol, what, relative=False):
    """The first of the successive ``refinements`` (numbers, tuples or
    arrays) whose largest |later - earlier| is at most ``tol``; with
    ``relative`` each difference is first divided by max(1, |later|).
    Levels are drawn lazily, so none after the accepted one is computed,
    and at one BLAS thread (``one_blas_thread``).
    Raises ``NumericsError`` with the last two values as ``estimates``
    when the refinements run out first."""
    earlier, last_two, moved = None, (), math.nan
    with one_blas_thread:
        for later in refinements:
            if earlier is not None:
                diff = np.abs(np.subtract(later, earlier))
                if relative:
                    diff = diff / np.maximum(1.0, np.abs(later))
                moved = float(np.max(diff))
                if moved <= tol:
                    return later
            last_two, earlier = (earlier, later), later
    raise NumericsError(f"{what} did not settle to {tol:g}: the last "
                        f"refinement moved {moved:.3e}", estimates=last_two)
