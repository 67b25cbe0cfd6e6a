"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """A (p, q) pair, coefficient list, rotation vector, matrix or norm
    violates its domain."""


class ResultTooLargeError(RuntimeError):
    """A structure enumeration would exceed the requested cap."""
