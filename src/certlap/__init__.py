"""certlap: certified Laplace approximation of peaked integrals.

Leading-order values of integrals of g(x) exp(N f(x, N)) over boxes, with
numerically certified remainder enclosures, a high-accuracy quadrature
oracle, and a probability harness for the induced Gibbs measure (law of
large numbers, fluctuation limits, drift of the maximizer).
"""

from .catalog import catalog, catalog_names, get_problem
from .constants import ConstantsReport, audit_constants, estimate_constants
from .gibbs import (
    GibbsMeasure,
    MgfReport,
    SampleBatch,
    empirical_limit_test,
    fluctuation_sweep,
    gibbs_measure,
    ks_statistic,
    maximum_drift_check,
    measure_of,
    mgf_X,
    mgf_Y,
    sample,
    tilted_maximizer_check,
    transform_to_fluctuations,
)
from .laplace import (
    LaplaceResult,
    approx_1d_boundary,
    approx_boundary_md,
    approx_interior,
    approximate,
    gaussian_tail_bound,
)
from .oracle import OracleValue, integrate, tail_integral
from .problems import (
    BOUNDARY,
    INTERIOR,
    BoxDomain,
    EpsilonSchedule,
    MaximumInfo,
    ProblemSpec,
    ScalarField,
    classify_maximum,
    constant_field,
    default_neighborhood,
    exponential_field,
    linear_field,
    locate_maximum,
    polynomial_field,
    rotate_problem,
)

__version__ = "0.1.0"
