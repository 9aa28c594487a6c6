"""Domain-specific exception types."""


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge or produced out-of-tolerance residuals."""


class UndefinedPhaseError(ValueError):
    """Triple-product magnitude below the phase-validity threshold."""


class ProfileTooSparseError(ValueError):
    """Fewer than three contiguous valid points; no usable action profile."""


class NotApplicableError(RuntimeError):
    """Requested approximation does not apply in this regime or geometry."""


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class ScanBoundaryError(ConfigError):
    """A scanned maximum sits on the scan boundary; widen the scan window."""
