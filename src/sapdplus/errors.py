"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid problem data, operator arguments, or run configuration."""


class InfeasibleScheduleError(RuntimeError):
    """The requested parameter rule has no solution for the given constants."""


class DivergenceError(RuntimeError):
    """An iterate blew up (non-finite or norm above the guard threshold).

    replica is the row of the replica stack whose iterate blew up, in a run
    on replica stacks (sapd module docstring), and None otherwise; the
    outer loop sets it back to None on the errors it returns or raises, as
    a row no longer names a replica once another has left the stack."""

    def __init__(self, message, iteration=None, stage=None, replica=None):
        super().__init__(message)
        self.iteration = iteration
        self.stage = stage
        self.replica = replica
