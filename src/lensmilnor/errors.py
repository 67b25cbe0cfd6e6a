"""Exception types shared across the package, and the integer check
that raises one."""


class InvalidInputError(ValueError):
    """A (p, q) pair, coefficient list, rotation vector, matrix, norm,
    trace or cap violates its domain."""


class ResultTooLargeError(RuntimeError):
    """A structure enumeration would exceed the requested cap."""


def check_int(name: str, value: object) -> None:
    """Raise InvalidInputError unless value is an int.  bool is an int
    subclass, but True standing for 1 is refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
