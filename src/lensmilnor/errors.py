"""Exception types shared across the package, and the integer and cap
checks that raise one."""


class InvalidInputError(ValueError):
    """A (p, q) pair, coefficient list, rotation vector, matrix, norm,
    trace or cap violates its domain."""


class ResultTooLargeError(RuntimeError):
    """A structure enumeration would exceed the requested cap."""


# The one default cap: structures per enumeration, and candidate rows per
# isometry search.
DEFAULT_CAP = 1_000_000


def check_int(name: str, value: object) -> None:
    """Raise InvalidInputError unless value is an int.  bool is an int
    subclass, but True standing for 1 is refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def check_cap(cap: object) -> None:
    """Raise InvalidInputError unless cap is an int, not a bool, and at
    least 1."""
    check_int("cap", cap)
    if cap < 1:
        raise InvalidInputError(f"cap must be positive, got {cap}")
