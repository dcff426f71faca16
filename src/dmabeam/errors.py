"""Exception types shared across the package."""


class DmaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DmaError, ValueError):
    """An argument lies outside the physically meaningful domain."""


class CutoffError(DmaError, ArithmeticError):
    """The cutoff frequencies of a gain response could not be resolved
    numerically for the requested operating frequency and threshold."""


class EnumerationLimitError(DmaError, ValueError):
    """Exhaustive enumeration was requested for an array too large to search."""


class CoverageInfeasibleError(DmaError, ValueError):
    """The codebook recursion cannot cover the requested angular range."""


class InvalidEstimateError(DmaError, ValueError):
    """A training measurement produced an angle estimate outside [-90, 90] deg
    (the pilot grid is misconfigured for the design)."""


class ScenarioError(DmaError, ValueError):
    """A scenario file is missing keys, has bad values, or violates a module
    precondition."""
