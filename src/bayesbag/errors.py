"""Exception types shared across the package."""


class BayesBagError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(BayesBagError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(BayesBagError, ValueError):
    """Inputs carry no usable information (e.g. every log evidence is -inf)."""


class ResourceLimitError(BayesBagError):
    """An enumeration guard was exceeded; the request is too large to run."""


class NumericDomainError(BayesBagError, ArithmeticError):
    """A numeric routine left its valid domain (non-positive-definite matrix,
    NaN input, and similar)."""


class InsufficientReplicatesError(InvalidArgumentError):
    """Fewer bootstrap replicates than the requested statistic needs."""


class VarianceUndefinedError(BayesBagError):
    """The posterior variance does not exist for these hyperparameters."""


class DegenerateLawError(InvalidArgumentError):
    """The limit law is a point mass, so the requested CDF/density is undefined."""


class SingularLawError(BayesBagError):
    """Contrast covariance is singular (models are perfectly correlated)."""


class ReplicateEvaluationError(BayesBagError):
    """An evaluator raised, or returned the wrong shape, on a block of weight
    rows; ``replicate`` is the block's first row as a bagging run counts its
    rows: 0 the original data (unit weights), i bootstrap replicate i."""

    def __init__(self, replicate: int, cause: BaseException):
        super().__init__(
            f"evaluator failed on the block from run row {replicate} (row 0 the original data, row i "
            f"replicate i; its row j is run row {replicate} + j): {type(cause).__name__}: {cause}"
        )
        self.replicate = replicate


class IngestionError(BayesBagError):
    """A data file could not be parsed or fails validation."""
