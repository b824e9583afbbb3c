"""Exception types shared across the package."""


class FracLabError(Exception):
    """Base class for all package-specific failures."""


class CollarError(FracLabError):
    """Omega does not leave the required exterior collar inside the box."""


class GridSizeError(FracLabError):
    """Grid resolution below the supported minimum."""


class LengthMismatchError(FracLabError):
    """Node-value vector does not match the target node set."""


class NestingError(FracLabError):
    """Cut-off regions are not nested with positive separation."""


class MemoryBudgetError(FracLabError):
    """Gathering the dense matrix would exceed the configured size cap."""


class SingularOperatorError(FracLabError):
    """The restricted operator could not be decomposed or solved, or I + c A is not SPD."""


class LocalizationError(FracLabError):
    """Localized right-hand side failed its consistency check."""


class InconclusiveVerdictError(FracLabError):
    """Divergence verdicts are non-monotone beyond one sweep point."""


class ConfigError(FracLabError):
    """Config file could not be parsed or validated.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message, line=0, column=0, path=None):
        self.line = line
        self.column = column
        self.path = path
        where = f"{path or '<config>'}:{line}:{column}: " if line else ""
        super().__init__(where + message)
