"""Expansion invariants of finite measured graphs.

Exact Cheeger constants (vertex-measured and conductance flavors),
random-walk Laplacian spectral gaps, Lp Poincare constants, and verifiers
for the inequalities relating them, at desk scale with exact rational
arithmetic wherever the quantity is rational.
"""

__version__ = "0.1.0"

from .cheeger import (
    AsymptoticProfile,
    CheegerCertificate,
    DEFAULT_CAP,
    ExactModeInfeasible,
    NoFeasibleSubset,
    asymptotic_profile,
    cheeger_conductance,
    cheeger_vertex,
)
from .families import (
    FamilyReport,
    GeneralisedCertificate,
    GraphFamily,
    RhoTable,
    family_report,
    full_support_perturbation,
    generalised_certificate,
    product_segment,
)
from .graphs import (
    GraphFormatError,
    MeasuredGraph,
    VertexSubset,
    diameter,
    dump_graph,
    load_conductance,
    load_graph,
    measure_of,
    vertex_boundary,
)
from .inequalities import (
    BoundCheck,
    InequalityReport,
    distance_gap_bound,
    verify_auxiliary_walk,
    verify_cheeger_sandwich,
    verify_coarea,
    verify_gap_controls,
    verify_lp_poincare,
    verify_measured_sandwich,
    verify_poincare_to_cheeger,
)
from .poincare import (
    PoincareEstimate,
    cp_formula,
    kappa_constant,
    lp_energy_pair,
    lp_energy_ratio,
    measured_lp_check,
    optimal_lp_constant,
)
from .rationals import InputError
from .spectral import (
    CoareaReport,
    SelfAdjointOperator,
    SpectralResult,
    coarea_check,
    delta_gap,
    delta_operator,
    eigenpairs,
    lambda_operator,
    measured_gap,
    spectrum,
)
from .walks import (
    ReversibleWalk,
    WalkError,
    auxiliary_walk,
    from_conductance,
    heat_kernel_measure,
)
