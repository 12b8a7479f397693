"""Exception hierarchy.

ValidationError covers bad inputs (malformed files, out-of-domain values,
inconsistent arguments); NumericalError covers failures of the numerics
themselves (an iteration not converging).  The CLI maps the two branches to
distinct exit codes.
"""


class GraphPhaseError(Exception):
    """Base class for all library errors."""


class ValidationError(GraphPhaseError):
    """Input violates a documented precondition."""


class NumericalError(GraphPhaseError):
    """A numerical routine failed to produce a trustworthy result."""


# -- graph construction ------------------------------------------------------

class DisconnectedGraph(ValidationError):
    pass


class NonPositiveWeight(ValidationError):
    pass


class SelfLoop(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


# -- operators and schemes ---------------------------------------------------

class NegativeTime(ValidationError):
    pass


class DomainViolation(ValidationError):
    """Field values outside the box or simplex, or a step's lambda off its range."""


class MassOutOfRange(ValidationError):
    pass


class LambdaIsOne(ValidationError):
    """Operation defined only for lambda < 1 was called with lambda = 1."""


class BoundaryState(ValidationError):
    """State touches the box boundary where an interior point is required."""


class InconsistentInputs(ValidationError):
    """Multiplier, state, and parameters do not describe the same step."""


class RowNotInPi(ValidationError):
    """A row is not on the affine plane of unit row sums."""


class InfeasibleMasses(ValidationError):
    pass


class TauExceedsEpsilon(ValidationError):
    """Refinement study asked for a step larger than the interface width."""


# -- oracles and iterations --------------------------------------------------

class GraphTooLarge(ValidationError):
    """Input exceeds a documented size limit; raised before any work."""


class NoConvergence(NumericalError):
    """Iteration budget exhausted before reaching tolerance."""


# -- file formats ------------------------------------------------------------

class ParseError(ValidationError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateEdge(ParseError):
    """An edge listed twice; ``build_graph`` sets ``positions``, the 0-based
    indices of its first listing and of the repeat."""


class MissingVertex(ValidationError):
    pass


class IoError(ValidationError):
    """Output destination missing or unwritable."""
