"""Typed exception hierarchy.

Validation errors signal bad inputs (CLI exit code 2); numerical errors signal
a computation that refused to produce an answer (CLI exit code 3).
"""


class QsdlabError(Exception):
    """Base class for all package errors."""


class ValidationError(QsdlabError):
    """Bad input: domain, schema, matrix shape, precondition."""


class NumericalError(QsdlabError):
    """A numerical procedure declined to return a result."""


# -- kernel construction ----------------------------------------------------

class InvalidDomain(ValidationError):
    pass


class NegativeDensity(ValidationError):
    pass


class RowSumExceedsOne(ValidationError):
    pass


class SchemaError(ValidationError):
    """Spec file does not match the documented schema."""


class NotApplicable(ValidationError):
    """Operation does not apply to this kernel family."""


class AllNodesEscape(NumericalError):
    """Every row has (numerically) zero mass; nothing survives two steps."""


# -- spectral extraction ----------------------------------------------------

class Reducible(NumericalError):
    """More than one communicating class among the non-escape nodes."""


class SizeLimitExceeded(ValidationError):
    """Operator larger than the dense eigensolver accepts."""


class NoSpectralGapWithinTol(NumericalError):
    """Peripheral band wider than the graph period, or a subdominant modulus in the gap floor."""


class NonConvergent(NumericalError):
    """Perron pair's residuals above tolerance, or a singular inverse-iteration shift."""


class PeriodMismatch(NumericalError):
    """Peripheral band is not one value at each root-of-unity angle of the graph period."""


class EscapeNode(ValidationError):
    pass


class ZeroEigenfunctionMass(ValidationError):
    """Starting measure has no overlap with the leading eigenfunction."""


# -- conditioned evolution --------------------------------------------------

class MassExtinct(NumericalError):
    """Survivor mass reached zero: every path of the start measure has died."""


class NotAperiodic(ValidationError):
    pass


class NotPeriodic(ValidationError):
    pass


class NotCyclic(NumericalError):
    """Class measures that one step does not cycle to 1e-8, or scalings off lam**m."""


class NeverSubunit(NumericalError):
    """sup_x of the n-step survival mass never drops below one."""


# -- Monte Carlo ------------------------------------------------------------

class TooFewSurvivors(NumericalError):
    """Fewer than 100 paths survived; the conditional estimate is meaningless."""


# -- finite oracle ----------------------------------------------------------

class IllConditionedEigenbasis(NumericalError):
    """Eigenvectors too ill-conditioned to resolve.

    The oracle's eigenbasis; in the peripheral spectrum, a Perron pair off the
    nonnegative cone, a vanishing Perron pairing, or pairs not biorthonormal.
    """
