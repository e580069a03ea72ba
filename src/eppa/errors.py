"""Exception types shared across the package."""


class EppaError(Exception):
    """Base class for errors raised by this package."""


class BoundExceededError(EppaError):
    """A resource bound of `config` was passed; raised by `config.charge` only."""


class VerificationError(EppaError):
    """A certificate failed verification; the message names the condition."""


class StructureSyntaxError(EppaError):
    """Structure or certificate text failed to parse."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
