"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes of operands are inconsistent."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is numerically singular."""


class DegenerateSpectrumError(ValueError):
    """A spectrum has no meaning for its use: entirely non-positive, so no
    condition number exists, or negative where a covariance must be PSD."""


class InsufficientSamplesError(ValueError):
    """Too few samples to estimate the requested statistic."""


class InsufficientBatchError(ValueError):
    """Batch statistics need at least two examples."""


class NumericError(FloatingPointError):
    """A non-finite value appeared where finite numbers are required."""


class ConsistencyError(ValueError):
    """A trace or state object does not match the operation applied to it."""


class FisherSizeError(ValueError):
    """A Fisher block would exceed the tractability cap."""


class IdxFormatError(ValueError):
    """An IDX file is malformed or cannot be read; ``offset`` is the failing
    byte position, None when no byte was read."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class MetricsParseError(ValueError):
    """A metrics CSV file is malformed or cannot be read; ``line`` is the
    1-based line number, None when no line was read."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class ConfigError(ValueError):
    """An experiment configuration failed validation. ``keys`` names the
    offending config keys; a dict maps each key to the rule it broke."""

    def __init__(self, message, keys=()):
        rules = keys if isinstance(keys, dict) else dict.fromkeys(keys)
        if rules:
            message = f"{message}: " + ", ".join(
                key if rule is None else f"{key} ({rule})" for key, rule in rules.items()
            )
        super().__init__(message)
        self.keys = tuple(rules)

    @classmethod
    def check(cls, section, rules):
        """Refuse the values of a config ``section``: ``rules`` maps each key
        to (holds, rule), and one error names ``section.key (rule)`` for
        every rule that does not hold."""
        broken = {f"{section}.{key}": rule for key, (holds, rule) in rules.items() if not holds}
        if broken:
            raise cls("invalid config values", broken)
