"""Shared exception types. CLI maps DomainError/ConfigError to exit 1, the rest to 2."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class ConfigError(ValueError):
    """Invalid configuration (overlapping prime lists, bad ranges, ...)."""


class PrecisionError(RuntimeError):
    """Floating-point precision could not be certified even after retries."""


class CertificateError(RuntimeError):
    """A runtime correctness certificate failed; indicates an internal bug."""


class NotRepresented(RuntimeError):
    """No lattice vector of the requested norm exists (no embedding)."""
