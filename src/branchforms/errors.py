"""Exception types shared across the package."""


class BranchFormsError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(BranchFormsError):
    """Malformed or out-of-contract input (bad generators, bad JSON shape)."""


class DomainError(BranchFormsError):
    """Input is well formed but outside the operation's domain."""


class PrecisionError(BranchFormsError):
    """A series operation could not certify the requested order."""
