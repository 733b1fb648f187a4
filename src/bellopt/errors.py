"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """Arguments violate an operation's preconditions (a caller bug)."""


class InvalidMatrixError(ValueError):
    """A circuit matrix failed validation (shape or sub-unitarity)."""


class UnsupportedConfigurationError(ValueError):
    """A well-formed request falls outside the supported parameter range."""


class MatrixFileError(ValueError):
    """A matrix file failed to parse or validate."""
