"""Exception types shared across the scattering engine."""


class SzScatterError(Exception):
    """Base class for every error raised by this package."""


class AsymptoticallyClosedChannel(SzScatterError):
    """Asymptotic k^2 <= 0 on at least one side; scattering boundary
    conditions are undefined."""


class NoDecay(SzScatterError):
    """The potential does not approach its asymptotic values within the
    configured maximum window."""


class TurningPoint(SzScatterError):
    """k^2(x) <= 0 somewhere on the grid, so the local-wavenumber gauge
    cannot be constructed."""


class GaugeDegenerate(SzScatterError):
    """|phi'| fell below the degeneracy threshold (or phi' is otherwise
    unusable, e.g. discontinuous where continuity is required)."""


class ComplexGaugeRejected(SzScatterError):
    """A bound computation was attempted with a gauge that is not real."""


class StepUnderflow(SzScatterError):
    """The adaptive stepper needed a step below 1e-14 times the domain
    width."""


class NonConvergence(SzScatterError):
    """A panel refinement (the oracle, the product, the bound integral or
    an antiderivative) needs more than _panels.MAX_PANELS panels or
    narrower panels than it can sample, or its integrand or generator is
    not finite, before reaching the requested tolerance."""


class BoundViolation(SzScatterError):
    """An exact transmission/reflection value fell outside its rigorous
    bound.  This always signals an implementation bug, never a tolerable
    numerical outcome."""


class EmptyFamily(SzScatterError):
    """A gauge-family optimization was requested over a family with no
    admissible members."""


class ParseError(SzScatterError):
    """Malformed run-configuration text."""

    # args holds the constructor's arguments, so that pickling (which
    # calls the class with args) restores the line.
    def __init__(self, message: str, line: int):
        super().__init__(message, line)
        self.line = line

    def __str__(self):
        return f"line {self.line}: {self.args[0]}"


class ValidationError(SzScatterError):
    """A syntactically valid configuration failed semantic validation."""

    def __init__(self, field: str, message: str = ""):
        super().__init__(field, message)
        self.field = field

    def __str__(self):
        message = self.args[1]
        return self.field if not message else f"{self.field}: {message}"
