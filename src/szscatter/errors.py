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

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(SzScatterError):
    """A syntactically valid configuration failed semantic validation."""

    def __init__(self, field: str, message: str = ""):
        text = field if not message else f"{field}: {message}"
        super().__init__(text)
        self.field = field
