"""Shared exception types."""


class HalftestError(Exception):
    """Base class for all library errors."""


class NonFiniteError(HalftestError):
    """A matrix or vector contains NaN or Inf entries."""


class DimMismatchError(HalftestError):
    """Operands have incompatible dimensions."""


class UnknownKindError(HalftestError):
    """Unrecognised marginal / noise / rule kind."""


class PreconditionError(HalftestError):
    """A documented operation precondition is violated."""


class DimTooLargeError(HalftestError):
    """Brute-force oracle asked to run in a regime it does not support."""


class DegenerateAngleError(HalftestError):
    """w and w* are parallel; the two-dimensional construction is undefined."""


class InsufficientSamplesError(HalftestError):
    """A sample source cannot provide the requested number of examples."""
