"""Exact and certified sums behind fibred three-manifold invariants.

The package is organised around one chain of reductions: compact group
data (root systems, Weyl groups, characters) feeds equivariant genus
functions and coadjoint orbit transforms, those feed certified modular
matrices, and the modular matrices feed fusion dimensions, fibred
partition sums, flat-space heat kernel limits and the exact
quasi-polynomial structure of dimension tables.
"""

from .crosscheck import CheckResult, SuiteReport, run_crosschecks
from .errors import (
    BudgetExceededError,
    CertificationError,
    DegenerateOrbitError,
    IntegralityError,
    PreconditionError,
    QuasiPolynomialFitError,
    UnsupportedAlgebraError,
    WallProximityError,
    WeylGroupTooLargeError,
)
from .genera import (
    GenusValue,
    a_hat_function,
    j_function,
    j_inverse_sqrt,
    partial_euler_product,
    todd_function,
    wall_distance,
)
from .lie import (
    CartanElement,
    RootSystem,
    Weight,
    WeylElement,
    build_root_system,
    casimir,
    weyl_character,
    weyl_dimension,
    weyl_group,
)
from .modular import (
    ModularData,
    central_charge,
    integrable_weights,
    modular_data,
    s_matrix,
)
from .orbits import (
    CoadjointOrbit,
    dh_weyl_sum,
    kirillov_check,
    orbit_fourier,
    orbit_from_highest_weight,
    quantum_character_point,
    su2_orbit_quadrature,
    wilson_weight,
)
from .quasipoly import (
    PairingReport,
    QuasiPolynomial,
    fit_quasi_polynomial,
    pairing_report,
)
from .seifert import (
    ScanCell,
    SeifertSpec,
    SeifertValue,
    seifert_partition,
    seifert_scan,
)
from .verlinde import (
    VerlindeRequest,
    VerlindeTable,
    verlinde_dimension,
    verlinde_sum,
    verlinde_table,
)
from .ym2 import (
    CrosscheckReport,
    EpsilonProfile,
    YM2Request,
    YM2Result,
    verlinde_ym2_crosscheck,
    ym2_epsilon_profile,
    ym2_partition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
