"""Exception types shared across the package."""


class SupentError(Exception):
    """Base class for all supent errors."""


class NoConvergence(SupentError):
    """Iterative diagonalization did not converge."""


class NotNormalized(SupentError):
    """Probability vector or state does not have unit weight."""


class DomainError(SupentError):
    """Scalar argument outside its admissible range."""


class DimMismatch(SupentError):
    """Two states do not live on the same bipartite space."""


class ZeroState(SupentError):
    """State (or superposition) has vanishing norm."""


class DegenerateSubspace(SupentError):
    """The two states do not span a two-dimensional subspace."""


class DimError(SupentError):
    """Requested dimensions are inconsistent."""


class NonFiniteObjective(SupentError):
    """Objective returned NaN or infinity during optimization."""


class ParseError(SupentError):
    """State file could not be parsed."""
