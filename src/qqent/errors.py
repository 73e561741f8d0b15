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
    """Entanglement outside [0, cap], the range that the built family takes
    for the spectrum: the minimal-TGX cap max{0, e_mems} in 2x3, the
    two-qubit cap in 2x2.  In 2x3 that is the family's cap, not a physical
    limit: other states of the same spectrum can exceed it (states.e_mems).
    ``construct epu-x-2x2`` also raises it for an eta, the fraction of that
    cap, outside [0, 1]."""


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


# -- command line -------------------------------------------------------

class InvalidOutput(ValidationError):
    """The --output file cannot be opened for writing."""


# -- form gates ----------------------------------------------------------

class NotXForm(FormError):
    pass


class NotTGXForm(FormError):
    pass


class NotMinimalTGX(FormError):
    pass


class NotMinimalSGX(FormError):
    pass


class AmbiguousQuartet(NotMinimalSGX):
    """TGX coherence in more than one quartet, so no minimal-SGX template fits."""
