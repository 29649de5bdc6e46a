"""Exception types shared across the package."""


class DvsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DvsError):
    """An array has the wrong shape for the operation.

    Carries the offending field name plus expected/actual shapes so CLI
    error messages can point at the exact input.
    """

    def __init__(self, field, expected, actual):
        self.field = field
        self.expected = expected
        self.actual = actual
        super().__init__(f"{field}: expected shape {expected}, got {actual}")


class SchemaError(DvsError):
    """A problem or report file violates the JSON schema."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class TooLarge(DvsError):
    """Exhaustive enumeration would exceed the oracle's combination limit."""

    def __init__(self, combinations, limit):
        self.combinations = combinations
        self.limit = limit
        super().__init__(f"{combinations} combinations exceed limit {limit}")


class Infeasible(DvsError):
    """No selection from the value sets satisfies the linear constraints."""


class DegenerateF(DvsError):
    """The double-well instance has f = 0; minimizers form a sphere."""
