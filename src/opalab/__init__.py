"""Numerical toolkit for reciprocal polynomial approximants on the unit disc.

The library covers weighted coefficient spaces on the disc, least-squares
approximants of reciprocals, finite Blaschke products, certified peak
functions on boundary sets, simultaneous zero-free polynomial
approximation, and the steering construction that prescribes approximant
boundary values.  A CLI front end (``opalab``) persists runs as JSON
artifacts.
"""

from .blaschke import InnerOuterFactorization, blaschke_series, polynomial_inner_outer
from .boundary import BoundarySet, neighborhood
from .errors import (
    ApproximationBudgetError,
    BoundaryRootError,
    BudgetError,
    ConstructionError,
    DomainError,
    IllConditionedError,
    InvalidInputError,
    InvalidParameterError,
    OpalabError,
    ResolutionExceededError,
)
from .opa import GramSystem, OpaResult, convergence_profile, gram_matrix, opa_solve
from .rudin import (
    BoundaryFunction,
    CertifiedBounds,
    DiscreteMeasure,
    RudinFunction,
    analytic_completion,
    bump_profile,
    dirichlet_rudin,
    equilibrium_measure,
    fejer_mean,
    hardy_rudin,
)
from .series import (
    CoeffSeries,
    ZeroFreeReport,
    dilate,
    evaluate,
    exp_series,
    multiply,
    zero_free_on_closed_disc,
)
from .spaces import (
    SPACES,
    AlphaWeight,
    dirichlet_integral,
    inner_product_alpha,
    norm_alpha,
    space_weight,
)
from .steer import AchievedErrors, SteerResult, StructuredProduct, opa_search_m, steer
from .zerofree import ZeroFreeApproxResult, ZeroFreeTrace, simultaneous_zero_free

__version__ = "0.1.0"
