"""Exception types shared across the toolkit.

Two families matter for the CLI exit-code contract: ``ValidationError``
(bad input data, exit 2) and ``FormError`` (a state that fails the matrix
form a formula requires, exit 3).
"""


class QQEntError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QQEntError):
    """Input fails a structural precondition."""


class FormError(QQEntError):
    """State does not have the matrix form a formula requires."""


# -- numerics -----------------------------------------------------------

class NotHermitian(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NotUnitary(ValidationError):
    pass


# -- states and spectra -------------------------------------------------

class InvalidState(ValidationError):
    pass


class InvalidSpectrum(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class InvalidQuartet(ValidationError):
    pass


class UnphysicalEntanglement(ValidationError):
    pass


class EtaOutOfRange(ValidationError):
    pass


class AngleOutOfRange(ValidationError):
    pass


class SpectrumMismatch(ValidationError):
    pass


# -- decomposition search -----------------------------------------------

class DTooSmall(ValidationError):
    pass


class DTooLarge(ValidationError):
    pass


class InvalidBudget(ValidationError):
    pass


class InvalidSeed(ValidationError):
    pass


# -- form gates ----------------------------------------------------------

class NotXForm(FormError):
    pass


class NotTGXForm(FormError):
    pass


class NotMinimalTGX(FormError):
    pass


class NotMinimalSGX(FormError):
    pass


class AmbiguousQuartet(FormError):
    pass
