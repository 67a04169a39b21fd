"""The package's two exception types, one per CLI exit code."""


class ValidationError(ValueError):
    """An input violates a documented invariant: a malformed config, a bad
    rate, mismatched sizes, a target no search can reach. Exit code 2."""


class CapacityError(RuntimeError):
    """A request exceeds the desk-scale memory and work guards. Exit code 3."""
