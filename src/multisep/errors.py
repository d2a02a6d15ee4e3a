"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when inputs violate an operation's mathematical domain."""


class ResourceError(RuntimeError):
    """Raised when a computation would exceed a configured resource cap."""
