"""Exception taxonomy for opalab.

Two families matter for callers and for the CLI exit-code mapping:

* ``DomainError`` -- the request itself is malformed or outside the domain
  where the algorithms are defined (bad coefficients, boundary zeros,
  empty target sets, parameters out of range).
* ``BudgetError`` -- the request is well posed but could not be completed
  within the configured resolution / degree / iteration budgets.

Everything raised on purpose by this package derives from ``OpalabError``.
"""

from __future__ import annotations


class OpalabError(Exception):
    """Base class for all errors raised deliberately by opalab."""


class DomainError(OpalabError):
    """The input is invalid or lies outside the algorithm's domain."""


class InvalidInputError(DomainError):
    """A numeric input is structurally unusable (empty, NaN, identically zero)."""


class InvalidParameterError(DomainError):
    """A tuning parameter is outside its documented range."""


class BoundaryRootError(DomainError):
    """A polynomial root sits on the unit circle, so the inner/outer
    splitting (and everything downstream of it) is undefined."""


class BudgetError(OpalabError):
    """A computation exceeded its resolution, degree, or iteration budget.

    Instances carry a ``diagnostics`` dict describing how far the
    computation got before giving up.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics) if diagnostics else {}


class ResolutionExceededError(BudgetError):
    """A grid or partition refinement hit its cap without resolving."""


class ApproximationBudgetError(BudgetError):
    """The degree/level search ended without meeting the error target."""


class ConstructionError(BudgetError):
    """A constructive step (peak function, completion) failed to meet
    its own certified bounds within budget."""


class IllConditionedError(BudgetError):
    """A linear system was too ill-conditioned to solve reliably.

    ``condition_estimate`` holds the estimate that triggered the abort.
    """

    def __init__(self, message: str, condition_estimate: float,
                 diagnostics: dict | None = None):
        diag = dict(diagnostics) if diagnostics else {}
        diag.setdefault("condition_estimate", condition_estimate)
        super().__init__(message, diag)
        self.condition_estimate = float(condition_estimate)
