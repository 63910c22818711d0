"""Exact (q,r)-Whitney numbers, their identities, and q-distribution moments."""

from .errors import (
    DivergentSeriesError,
    DomainError,
    EvalAtZeroError,
    IncompatibleModeError,
    InexactDivisionError,
    InsufficientSequenceError,
    NonConvergenceError,
    QWhitneyError,
    UnknownIdentityError,
    ZeroMError,
)
from .identities import (
    DEFAULT_GRID,
    IdentityId,
    binomial_inverse,
    binomial_transform,
    hankel_probe,
    hankel_transform,
    verify,
    verify_all,
)
from .laurent import LaurentPoly, as_laurent, parse_laurent, q_monomial
from .modes import SYMBOLIC, FloatQ, RationalQ, canonical_text, parse_qmode
from .qcore import (
    complete_homogeneous,
    elementary_symmetric,
    q_binomial,
    q_exp,
    q_exp_hat,
    q_factorial,
    q_falling_factorial,
    q_integer,
)
from .qdist import (
    QDistSpec,
    direct_moment_oracle,
    series_moment,
    pmf,
    q_factorial_moment,
    sample,
    whitney_moment,
)
from .report import IdentityReport
from .tableaux import (
    ATableau,
    enumerate_distinct,
    enumerate_weak,
    tableau_sum_first,
    tableau_sum_second,
    tableau_weight,
)
from .whitney import (
    Triangle,
    WhitneyParams,
    defining_relation_check,
    dowling_number,
    dowling_polynomial,
    dowling_sequence,
    q_stirling_first,
    q_stirling_first_complement,
    q_stirling_second,
    whitney_first_elementary,
    whitney_first_triangle,
    whitney_second_alternating,
    whitney_second_compositions,
    whitney_second_multisets,
    whitney_second_triangle,
)

__version__ = "0.1.0"
