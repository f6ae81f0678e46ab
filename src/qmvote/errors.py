"""Exception hierarchy shared across the package."""


class MitigationError(Exception):
    """Base class for every error raised by qmvote."""


class ValidationError(MitigationError, ValueError):
    """Malformed or inconsistent input (CLI exit code 1).

    ``code`` carries a short machine-readable tag when one is defined for
    the failure (counts-file parsing uses these).
    """

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code


class DimensionError(ValidationError):
    """Operands disagree on qubit count or vector length."""


class InvalidRegimeError(ValidationError):
    """Parameter lies outside the regime where a formula is meaningful,
    e.g. a flip probability >= 0.5 handed to the vote error bound."""


class CountsFormatError(ValidationError):
    """A counts document violates the file schema.

    Codes: ``SCHEMA`` (structure, types, version, unknown fields),
    ``LENGTH_MISMATCH`` (key length differs from declared n),
    ``SUM_MISMATCH`` (counts do not add up to declared shots).
    """


class InfeasibleError(MitigationError):
    """Structurally valid request that cannot be served, e.g. exhaustive
    likelihood search beyond its work limit (CLI exit code 2)."""
