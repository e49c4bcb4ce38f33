"""Exception types shared by all specnorm modules."""


class SpecnormError(Exception):
    """Base class for all specnorm errors."""


class DimensionError(SpecnormError):
    """Matrix shape does not satisfy an operation's precondition."""


class NonFiniteError(SpecnormError):
    """A matrix or vector contains NaN or Inf entries."""


class ConvergenceError(SpecnormError):
    """An iterative kernel exceeded its iteration budget.

    Carries the iteration count and the residual at the point of failure so
    callers can report a diagnostic instead of a silent wrong answer.
    """

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DependenceError(SpecnormError):
    """Gram-Schmidt hit a numerically dependent vector."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class IndeterminateError(SpecnormError):
    """The certifier could not reach a trustworthy verdict.

    Raised instead of returning a silent Normal/Nonnormal when a kernel fails
    to converge, or when every probe passes but the Schur vectors fail the
    certificate's residual bounds.
    """
