"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant; `row` names the sample of a
    series that breaks it (-1, the default, is the last: the series ends too early)."""

    def __init__(self, message: str = "", row: int = -1):
        super().__init__(message)
        self.row = row


class ParseError(ValidationError):
    """A text input could not be parsed; carries file path and line number."""

    def __init__(self, message: str, source: str = "<string>", line: int | None = None):
        self.source = source
        self.line = line
        loc = source if line is None else f"{source}:{line}"
        super().__init__(f"{loc}: {message}")


class FitNonConvergence(RuntimeError):
    """A fit did not converge: its starting cost overflowed, it ran out of iterations, it met a
    non-finite Jacobian, or it found no descent."""
