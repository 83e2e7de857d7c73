"""Exception hierarchy shared by all modules."""


class PoissonKamError(Exception):
    """Base class for all errors raised by this package."""


class StructureMismatchError(PoissonKamError):
    """Operands disagree on dimensions, decay rate or truncation orders."""


class EtaDegreeError(PoissonKamError):
    """A product would create an eta power >= 2; the scheme never does this."""


class NormDomainError(PoissonKamError):
    """Weighted norm requested for a series with eta-dependent terms."""


class SecularTermError(PoissonKamError):
    """Homological right-hand side contains an unsolvable k=0, p=0 term."""


class NearResonanceError(PoissonKamError):
    """A divisor i k.w - p a fell below the floating-point safety floor."""


class ResonanceError(PoissonKamError):
    """The torus frequency is resonant within the scanned mode range."""


class StepRefusedError(PoissonKamError):
    """A refusal (exit 2 at the CLI); LieDivergenceError is its one kind."""


class LieDivergenceError(StepRefusedError):
    """Measured Lie-series contraction factor exceeds 1/2."""


class ParameterError(PoissonKamError):
    """A numeric argument lies outside its valid range."""


class StiffnessError(PoissonKamError):
    """Adaptive integrator step size underflowed."""


class ProblemFormatError(PoissonKamError):
    """Problem or artifact file is malformed or unwritable; message carries diagnostics."""
