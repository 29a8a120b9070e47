"""Exception hierarchy.

Every error carries the operation it came from; the CLI reads the module
off the frame that raised it, reports both as the origin and maps the
failure to an exit code.  Budget exhaustion (``budget = True``) is
distinguished from domain errors because "gave up searching" must never be
confused with a negative mathematical answer.
"""


class OrderkitError(Exception):
    operation = ""
    budget = False

    def __init__(self, message, *, operation=None):
        super().__init__(message)
        if operation is not None:
            self.operation = operation


# --- raised anywhere --------------------------------------------------------

class SearchBudgetExceeded(OrderkitError):
    budget = True


class MethodDisagreement(OrderkitError):
    """Two independent routes to the same quantity disagree: a bug, not bad input."""


# --- intmat ---------------------------------------------------------------

class NotSublattice(OrderkitError):
    pass


class RankDeficient(OrderkitError):
    pass


class IndexTooLarge(OrderkitError):
    budget = True


# --- numberfield ----------------------------------------------------------

class NotMonic(OrderkitError):
    pass


class Reducible(OrderkitError):
    pass


class DegreeMismatch(OrderkitError):
    pass


# --- orders ---------------------------------------------------------------

class NotUnital(OrderkitError):
    pass


class NotClosed(OrderkitError):
    pass


class NotFullRank(OrderkitError):
    pass


class NeedsUserInput(OrderkitError):
    pass


class NotContained(OrderkitError):
    pass


class UnsupportedDegree(OrderkitError):
    pass


# --- ideals ---------------------------------------------------------------

class OrderMismatch(OrderkitError):
    pass


class FactorizationViolation(OrderkitError):
    """The class census found a class outside Pic * intermediate set: a bug."""


# --- gamma_structures -------------------------------------------------------

class NotFreeModule(OrderkitError):
    pass


class BoundViolation(OrderkitError):
    pass


class HypothesisViolated(OrderkitError):
    pass


# --- bounds ---------------------------------------------------------------

class NotPrime(OrderkitError):
    pass


# --- cli --------------------------------------------------------------------

class InvalidInput(OrderkitError):
    """A command-line value outside the domain of the operation it feeds."""
