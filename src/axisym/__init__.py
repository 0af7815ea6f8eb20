"""Axially symmetric 3D Hamiltonian systems with magnetic fields.

Catalog construction, exact-derivative Poisson-bracket verification,
high-order adaptive integration with conserved-quantity monitoring,
closed-form trajectory solutions, and figure reproduction.
"""

from .catalog import (
    SystemParams,
    SystemSpec,
    build,
    build_cp_general,
    build_linear_max,
    build_linear_min,
    build_max5,
    build_max6,
    build_op_min,
)
from .phase import (
    CovectorField,
    DomainError,
    EvaluationError,
    Observable,
    PhasePoint,
    TwoForm,
    apply_gauge,
    exterior_derivative,
    gradient6,
    make_rng,
)
from .verify import (
    QuadraticAnsatz,
    closure_residual,
    determining_residuals,
    functional_rank,
    is_integral,
    poisson,
    verify_system,
)
from .families import IntegrableFamily, build_family
from .dynamics import (
    PeriodReport,
    Trajectory,
    conservation_suite,
    detect_period,
    eom_rhs,
    integrate,
    reverse_momenta,
)
from .closedform import (
    ClosedFormConstants,
    ResonanceParams,
    cartesian_state,
    closed_state,
    constants,
    frequency,
    oscillator_image,
    resonance_check,
    rotating_frame,
)

__version__ = "0.1.0"
