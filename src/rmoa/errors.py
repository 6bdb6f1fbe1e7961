"""Exception types shared across the package."""


class RmoaError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionMismatchError(RmoaError, ValueError):
    """Vectors of different dimensions were combined."""


class DegenerateEmbeddingError(RmoaError, ValueError):
    """An embedding whose norm is zero or overflows cannot take part in cosine similarity."""


class BackendUnavailableError(RmoaError, RuntimeError):
    """A backend stayed unreachable after the configured retries."""


class ProtocolError(RmoaError, RuntimeError):
    """A backend replied with a malformed or inconsistent payload."""


class EmptyResponseError(RmoaError, RuntimeError):
    """A chat backend returned an empty completion."""


class ScriptExhaustedError(RmoaError, RuntimeError):
    """A scripted mock ran out of scripted outputs; the test setup is wrong."""


class ConfigError(RmoaError, ValueError):
    """A run configuration is invalid or missing a required registration."""


class DatasetError(RmoaError, ValueError):
    """A benchmark dataset file failed to parse or validate."""


class UndefinedRateError(RmoaError, ValueError):
    """A rate was requested whose denominator is empty."""
