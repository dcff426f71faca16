"""Exception types shared across the package.  The CLI's exit code follows
the type alone: InfeasibleError exits 3, every other DmaError 2."""


class DmaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DmaError, ValueError):
    """An argument lies outside the physically meaningful domain, or
    exhaustive enumeration was asked of an array too large to search."""


class InfeasibleError(DmaError, ValueError):
    """The design cannot do what was asked of it: the sector or codebook
    cannot cover the angular range, a cutoff frequency cannot be resolved,
    or a training estimate leaves the visible region."""


class ScenarioError(DmaError, ValueError):
    """A scenario file is missing keys, has bad values, or violates a module
    precondition."""
