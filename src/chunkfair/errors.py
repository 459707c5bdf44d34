"""Exception types shared across the package."""


class ChunkfairError(Exception):
    """Base class for all library errors."""


class ConfigError(ChunkfairError, ValueError):
    """Invalid parameter, profile, or query (bad chunk size, band mismatch, ...)."""


class InfeasibleError(ChunkfairError, ValueError):
    """A structurally impossible request, e.g. fewer chunks than users."""


class ZeroGainError(ChunkfairError, ValueError):
    """A zero-gain subcarrier reached the water-filling coefficients.

    Zero-gain subcarriers can never carry power; callers must drop them
    before computing coefficients.
    """


class OracleSizeError(ChunkfairError, ValueError):
    """Exhaustive enumeration would exceed the configured candidate cap."""


class OracleConvergenceError(ChunkfairError, RuntimeError):
    """A numerical oracle failed to converge within its iteration budget."""


class AllocationError(ChunkfairError, RuntimeError):
    """A power allocation broke an invariant: negative power or a total not conserved."""


class UndefinedMetricError(ChunkfairError, ValueError):
    """Metric undefined for the given input (zero sum rate, single user, ...)."""
