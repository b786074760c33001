"""Exception types shared across the package, and the excerpt that messages quote input through."""

# the longest quoted input a message holds: an echo of a 1 MB list would be a 1 MB line
_EXCERPT_CHARS = 40


def excerpt(text: str) -> str:
    """``text``, quoting an input in a message, cut after _EXCERPT_CHARS characters with its length named."""
    return text if len(text) <= _EXCERPT_CHARS else f"{text[:_EXCERPT_CHARS]}... ({len(text)} characters)"


class BellKitError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(BellKitError, ValueError):
    """An argument violates a documented precondition or format."""


class InternalConsistencyError(BellKitError, RuntimeError):
    """A quantity that must be real/normalized by construction is not.

    Raised when floating-point arithmetic drifts past the guard tolerances;
    indicates a bug or corrupted input, never a recoverable condition.
    """


class InsufficientDataError(BellKitError, ValueError):
    """A dataset is too small for the requested estimator."""


class UnknownInterpretationError(BellKitError, LookupError):
    """Taxonomy lookup failed; carries the valid names and a suggestion."""

    def __init__(self, name: str, valid: tuple[str, ...], suggestion: str | None = None):
        self.name = name
        self.valid = valid
        self.suggestion = suggestion
        msg = f"unknown interpretation {excerpt(repr(name))}"
        msg += "." if suggestion is None else f"; did you mean {suggestion!r}?"
        msg += " Valid names: " + ", ".join(valid)
        super().__init__(msg)
