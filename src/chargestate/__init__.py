"""Two-mode charge coherent states on a truncated Fock ladder.

Builds linear and deformed fixed-charge states by three-term recursion and
continued fraction, verifies them against the tridiagonal operator they
diagonalize, and computes photon statistics, nonclassicality criteria and
Husimi phase-space grids.
"""

from .diagnostics import (
    DIAGNOSTICS,
    DiagnosticsReport,
    MomentSet,
    full_report,
    moments,
    photon_distribution,
)
from .errors import (
    ChargeStateError,
    ContinuedFractionPoleError,
    DegenerateStateError,
    LadderOverflowError,
    ParameterRangeError,
    PreconditionError,
    SpecParseError,
    ZeroDenominatorError,
)
from .husimi import HusimiGrid, husimi_grid, husimi_norm_check, husimi_point
from .nonlinearity import (
    NonlinearityFunction,
    intensity_sqrt,
    parse_spec,
    penson_solomon,
    q_deformed,
    unity,
)
from .states import (
    ChargeState,
    ConvergenceReport,
    TruncationPolicy,
    apply_tridiagonal,
    branch_for_charge,
    build_deformed,
    build_hermite_reference,
    build_linear_closed,
    continued_fraction_ratio,
    convergence_report,
    eigen_residual,
    ladder_elements,
    log_factorial,
    state_from_document,
    state_to_document,
)

__version__ = "0.1.0"
