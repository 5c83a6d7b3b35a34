"""Exception types shared across the package."""


class FundfreqError(Exception):
    """Base class for all fundfreq errors."""


class DomainError(FundfreqError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateFrequencyError(FundfreqError):
    """The least squares normal equations are numerically singular.

    Happens when a trial frequency drives ``j*lambda`` toward 0 or pi,
    collapsing the cosine/sine design columns onto each other.
    """
