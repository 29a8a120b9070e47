"""Exception hierarchy.

Every error carries the operation it came from; the CLI reads the module
off the frame that raised it, reports both as the origin and maps the
failure to an exit code.  Budget exhaustion (``budget = True``) is
distinguished from domain errors because "gave up searching" must never be
confused with a negative mathematical answer.  An error that stops at a
budget carries it as ``limit``, and as ``consumed`` how far the run got, or
asked to go when the budget is checked before the work; the CLI prints both.
"""


class OrderkitError(Exception):
    operation = ""
    budget = False

    def __init__(self, message, *, operation=None, limit=None, consumed=None):
        super().__init__(message)
        if operation is not None:
            self.operation = operation
        self.limit, self.consumed = limit, consumed


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
