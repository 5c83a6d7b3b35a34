"""Exception types shared across the package."""


class FundfreqError(Exception):
    """Base class for all fundfreq errors."""


class DomainError(FundfreqError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateFrequencyError(FundfreqError):
    """The least squares normal equations are numerically singular.

    Happens when a frequency drives ``j*lambda`` toward 0 or pi,
    collapsing the cosine/sine design columns onto each other: the pivot
    floor of the criterion's Cholesky factor guards ``g``,
    ``g_with_derivatives`` and ``lse_linear`` at a caller's lambda.  An
    estimate never meets it: every pass of a run lies inside the
    admissible interval (``signal._admissible``), where X'X is well
    conditioned.
    """
