"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError and its
subclasses -> 3, NumericError -> 4.
"""


class ArnnError(Exception):
    """Base class for all package errors."""


class ConfigError(ArnnError):
    """Bad or contradictory configuration (unknown keys, invalid values)."""


class PrerequisiteError(ConfigError):
    """A stage was requested before the stages it builds on."""


class DataError(ArnnError):
    """Bad input data or dataset state."""


class ParseError(DataError):
    """Malformed input file; message carries the line number."""


class OrderingError(DataError):
    """Events were not sorted as required."""


class SchemaError(DataError):
    """Field or category missing from the encoding schema."""


class SplitError(DataError):
    """Train/test split produced an empty side."""


class VocabularyError(DataError):
    """Item index or item id outside the known vocabulary."""


class CheckpointError(DataError):
    """Checkpoint cannot be loaded (schema hash or tensor shape mismatch)."""


class EvaluationError(DataError):
    """Evaluation invoked on empty or inconsistent inputs."""


class NumericError(ArnnError):
    """Non-finite values where finite ones are required (divergence)."""


class ShapeError(ArnnError):
    """Tensor operation applied to incompatible shapes."""


class DegenerateBatchError(ArnnError):
    """Batch statistics requested over fewer than two rows."""
