"""Exception hierarchy.

Every domain error raised by this package derives from RootCensusError,
so callers (and the CLI) can distinguish bad inputs and exhausted
budgets from genuine bugs.
"""


class RootCensusError(Exception):
    """Base class for all domain errors raised by rootcensus."""


class ZeroPolynomial(RootCensusError):
    """The zero polynomial was passed where a nonzero one is required."""


class DegreeTooSmall(RootCensusError):
    """Polynomial degree below the operation's minimum."""


class DegreeCapExceeded(RootCensusError):
    """Polynomial degree above the configured cap for this operation."""


class PrecisionCapExceeded(RootCensusError):
    """Certification failed to converge below the precision cap."""


class GammaTooLarge(RootCensusError):
    """Perturbation radius gamma is not below half the minimal root gap."""


class TargetNotSeparated(RootCensusError):
    """Target points could not be certified pairwise distinct."""


class HTooSmall(RootCensusError):
    """Height parameter too small for any family member to exist."""


class EmptyRegion(RootCensusError):
    """Family parameter region contains no integer points."""


class BadParameters(RootCensusError):
    """Family or spec parameters violate their documented constraints."""


class EmptyStream(RootCensusError):
    """A polynomial stream to validate produced no elements."""


class EmptyInput(RootCensusError):
    """A report was requested over no tables, or over a table of no points."""


class NotIrreducible(RootCensusError):
    """Certified-irreducible input required but certification failed."""


class SpecMismatch(RootCensusError):
    """Census tables with different spec fingerprints cannot merge."""


class InsufficientPoints(RootCensusError):
    """Growth-exponent fit needs three data points at two heights or more."""


class NonpositiveCount(RootCensusError):
    """Growth-exponent fit received a count <= 0 (log undefined)."""


class BudgetExceeded(RootCensusError):
    """Requested census exceeds the work budget (census.DEFAULT_BUDGET points)."""


class CheckpointCorrupt(RootCensusError):
    """Checkpoint file failed checksum or structural validation."""
