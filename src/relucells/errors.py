"""Exception hierarchy shared across the package."""


class ReluCellsError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionMismatchError(ReluCellsError):
    """Vector/dataset dimensions do not agree."""


class ZeroDirectionError(ReluCellsError):
    """A direction vector that must be nonzero is (numerically) zero."""


class DatasetFormatError(ReluCellsError):
    """A dataset file could not be parsed; carries row/column context."""


class InfeasibleError(ReluCellsError):
    """A constrained program has no feasible point."""


class ConvergenceError(ReluCellsError):
    """An iterative method failed to converge within its budget."""


class NumericalError(ReluCellsError):
    """A numerical kernel lost the accuracy its result depends on."""


class CellLookupError(ReluCellsError):
    """A sign pattern could not be resolved to an enumerated cell."""


class PreconditionError(ReluCellsError):
    """An operation was called outside its stated precondition."""
