"""Exception types shared across the package."""


class FecundError(Exception):
    """Base class for all library errors."""


class UnknownCoderSourceError(FecundError):
    """A document does not carry codes from the requested coder source."""


class BlankCodeError(FecundError, ValueError):
    """A code label canonicalizes to the empty string."""


class CollectionFormatError(FecundError):
    """A collection file failed to parse or validate."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class DuplicateDocumentIdError(CollectionFormatError):
    """Two documents in a collection share an id."""


class DanglingReferenceError(CollectionFormatError):
    """A row references a document or code that does not exist."""


class SampleSizeError(FecundError, ValueError):
    """A random sample was requested that exceeds the available population."""


class MissingVariableError(FecundError, ValueError):
    """A regression specification needs a variable the data does not provide."""

    def __init__(self, variable: str, spec: str | int | None = None):
        where = f" (specification {spec})" if spec is not None else ""
        super().__init__(f"missing variable '{variable}'{where}")
        self.variable = variable
        self.spec = spec


class RankDeficiencyError(FecundError, ValueError):
    """The design matrix is rank deficient."""

    def __init__(self, columns: list[str]):
        super().__init__(f"design matrix is rank deficient; collinear columns: {columns}")
        self.columns = columns


class CodeCountError(FecundError, ValueError):
    """A synthetic document's expected code count past the cap."""


class PromptBindingError(FecundError, ValueError):
    """A prompt template placeholder was left unbound."""

    def __init__(self, placeholder: str, template: str | None = None):
        where = f" in template '{template}'" if template else ""
        super().__init__(f"unbound placeholder '{placeholder}'{where}")
        self.placeholder = placeholder


class ResponseParseError(FecundError):
    """A coder reply contained no parseable dictionary-shaped region."""

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


class TransportError(FecundError):
    """A remote coder call failed after retries."""


class RateLimitError(TransportError):
    """The remote coder signalled a rate or budget limit."""
