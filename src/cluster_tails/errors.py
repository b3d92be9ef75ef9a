"""Exception hierarchy shared across the package."""


class ClusterTailsError(Exception):
    """Base class for all package-specific errors."""


class ModelError(ClusterTailsError):
    """A model specification is structurally valid but mathematically unusable."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.message = message
        self.field = field


class SupercriticalModel(ModelError):
    """Hawkes branching mean E[kappa] >= 1; clusters would be infinite."""


class InfiniteMean(ModelError):
    """Mark law with tail index alpha <= 1 has no finite mean."""


class ClusterOverflow(ClusterTailsError):
    """A single cluster exceeded the configured event budget.

    Indicates a supercritical or near-critical configuration rather than a
    condition to truncate silently (truncation would bias the sum functional).
    """

    def __init__(self, replication: int, limit: int):
        super().__init__(
            f"cluster at replication {replication} exceeded {limit} events"
        )
        self.replication = replication
        self.limit = limit

    def __reduce__(self):
        # raised in pool workers: rebuild from both fields, not the message
        return type(self), (self.replication, self.limit)


class InsufficientExceedances(ClusterTailsError):
    """Too few sample points above a grid threshold for a meaningful ratio."""

    def __init__(self, x: float, count: int, required: int):
        super().__init__(
            f"only {count} exceedances above x={x:g} (need >= {required})"
        )
        self.x = x
        self.count = count
        self.required = required

    def __reduce__(self):
        return type(self), (self.x, self.count, self.required)


class DegenerateTail(ClusterTailsError):
    """Top order statistics are all equal; Hill log-spacings vanish."""


class UnstableEstimate(ClusterTailsError):
    """Monte Carlo error too large for a transform-slope fit to be meaningful."""


class LatticeMismatch(ClusterTailsError):
    """Discrete marks are not multiples of a common grid step."""


class ConfigError(ClusterTailsError):
    """An experiment configuration failed to parse or validate."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.message = message
        self.field = field
