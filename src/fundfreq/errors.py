"""Exception types shared across the package."""


class FundfreqError(Exception):
    """Base class for all fundfreq errors."""


class DomainError(FundfreqError, ValueError):
    """An argument is outside the mathematical domain of an operation."""
