"""Exception types, and numeric-setting checks every module can import."""

import math
import numbers


def whole_count(name, value, lowest=1):
    """``value`` as an int: a finite whole number >= ``lowest`` (so ``1e5``
    is accepted), else ``ValueError`` naming the setting ``name``."""
    # An int skips float(), which overflows above 1e308 (a valid seed).
    if not (isinstance(value, numbers.Real) and value >= lowest
            and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError("%s must be a whole number >= %d, got %r"
                         % (name, lowest, value))
    return int(value)


def positive_finite(name, value):
    """``value`` as a float if 0 < value < inf, else a ``ValueError`` naming it."""
    if not 0.0 < value < math.inf:
        raise ValueError("%s must be positive and finite, got %r" % (name, value))
    return float(value)


def nonnegative_finite(name, value):
    """``value`` as a float if 0 <= value < inf, else a ``ValueError`` naming it."""
    if not 0.0 <= value < math.inf:
        raise ValueError("%s must be finite and nonnegative, got %r" % (name, value))
    return float(value)


class NotPositiveDefiniteError(ValueError):
    """A Cholesky factorization hit a non-positive pivot.

    Attributes
    ----------
    pivot_index : int
        Zero-based index of the offending pivot.
    pivot_value : float
        Value of the pivot that failed the positivity test.
    """

    def __init__(self, pivot_index, pivot_value):
        self.pivot_index = int(pivot_index)
        self.pivot_value = float(pivot_value)
        super().__init__(
            "matrix is not positive definite: pivot %d is %.6g"
            % (self.pivot_index, self.pivot_value)
        )


class NumericalFailureError(RuntimeError):
    """An iterative routine failed to reach its accuracy target.

    Carries optional context: the residual that was achieved, and for
    solver failures the iteration and block index where the problem
    surfaced.
    """

    def __init__(self, message, *, residual=None, iteration=None, block_index=None):
        self.residual = residual
        self.iteration = iteration
        self.block_index = block_index
        super().__init__(message)


class UnboundedProblemError(RuntimeError):
    """The optimization problem was detected to be unbounded below."""
