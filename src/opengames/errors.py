"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all domain errors raised by the engine."""


class DuplicateElement(EngineError):
    pass


class EnumerationBound(EngineError):
    """Raised when an exhaustive enumeration would exceed `finite.DEFAULT_BOUND`."""


class TypeMismatch(EngineError):
    """Boundary disets or carriers do not line up."""


class BackwardMismatch(TypeMismatch):
    """Coproduct of disets requires a shared backward carrier."""


class BoundaryMismatch(TypeMismatch):
    """Horizontal composition of morphisms with non-matching middle boundary."""


class EmptyChoiceSet(EngineError):
    pass


class NotAState(EngineError):
    pass


class MalformedInfoSet(EngineError):
    pass


class SourceError(EngineError):
    """An error in a source document, carrying a (line, column) span."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self):
        if self.line is None:
            return self.message
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(SourceError):
    pass


class NameResolutionError(SourceError):
    pass


class DocumentTypeError(SourceError):
    """A declaration is well-formed but ill-typed (wrong arity, bad carrier, ...)."""
