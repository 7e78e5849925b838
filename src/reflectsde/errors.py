"""Exception types shared across the simulation modules."""


class ReflectedSDEError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ReflectedSDEError, ValueError):
    """An input has the wrong spatial dimension or array shape."""


class ProjectionOutOfRange(ReflectedSDEError):
    """Nearest-point projection is not single valued at the requested point.

    Raised when a point sits at distance >= the domain's reach rho0 from the
    closure, or when a solver step would carry the state that far out.
    """


class StartOutsideDomain(ReflectedSDEError):
    """An initial condition lies outside the closed domain."""


class NonFinite(ReflectedSDEError):
    """A trajectory left the finite-value guard region (norm > 1e12)."""


class JumpTooLarge(ReflectedSDEError):
    """A driver increment violates the jump-size admissibility bound."""


class CsvFormatError(ReflectedSDEError, ValueError):
    """A CSV artifact does not match the documented schema."""


class ConfigError(ReflectedSDEError, ValueError):
    """An experiment configuration failed validation.

    Carries a list of individual problems in ``problems``.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
