"""Exception types shared across the package."""


class CutRecError(Exception):
    """Base class for package-specific failures."""


class ParseError(CutRecError):
    """An interaction file could not be parsed."""

    def __init__(self, path, line_no, reason):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        location = self.path if line_no is None else f"{self.path}:{line_no}"
        super().__init__(f"{location}: {reason}")

    def __reduce__(self):
        # A worker process sends its exception back pickled.
        return type(self), (self.path, self.line_no, self.reason)


class DatasetCollapsedError(CutRecError):
    """Filtering removed every interaction."""


class ConfigError(CutRecError):
    """A configuration value or key is invalid."""


class CheckpointError(CutRecError):
    """A checkpoint file is malformed or of an unsupported version."""


class TrainingDivergedError(CutRecError):
    """A non-finite value appeared in parameters or gradients."""
