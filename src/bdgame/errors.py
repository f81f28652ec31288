"""Exception types shared across the package."""


class BdgameError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(BdgameError):
    """Malformed formula source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


class UndeclaredAtomError(BdgameError):
    """A formula references an atom that is not in the vocabulary."""

    def __init__(self, name: str):
        super().__init__(f"undeclared atom '{name}'")
        self.name = name


class SpecSyntaxError(BdgameError):
    """Malformed agent-system spec source text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class VocabularyLimitError(BdgameError):
    """The atom count exceeds the model-enumeration bound."""


class CombinatorialBoundError(BdgameError):
    """An enumeration would exceed the configured cap."""


class InfeasibleProfileError(BdgameError):
    """Operation undefined on profiles with inconsistent extensions."""
