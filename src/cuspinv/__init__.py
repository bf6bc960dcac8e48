"""Symplectic invariants of parabolic orbits and cuspidal tori.

Numerical and exact-algebraic tooling for two-degree-of-freedom integrable
systems near a cusp singularity: period integrals and action variables on
the model fibrations, Puiseux and logarithmic asymptotics, the Brieskorn
reduction of polynomial densities, equivalence criteria, and Hamiltonian
flows with period-lattice verification.
"""

from .series import (
    DEFAULT_ORDER,
    PuiseuxTriple,
    TruncatedSeries,
    phi_r_apply,
    phi_r_invert,
)
from .specfun import puiseux_constants
from .model import (
    CUSP_COMPACT,
    CUSP_LOCAL,
    NODE,
    ONE_DOF,
    BifurcationDiagram,
    CanonicalBaseTransform,
    Density,
    FibrationModel,
    IDENTITY_BASE_MAP,
    ParabolicVerdict,
    base_change_parabolic_test,
    bifurcation_diagram,
    canonicalize_base,
    cusp_compact_model,
    cusp_local_model,
    is_parabolic,
    node_model,
    one_dof_model,
)
from .brieskorn import BrieskornPair, model_pair, reduce
from .quadrature import (
    ActionChart,
    ActionChartRow,
    OnSigmaError,
    StratumError,
    action_chart,
    loop_action,
    loop_period,
    oval_bounds,
    passage_time,
    separatrix_action,
    wide_action,
)
from .asymptotics import (
    FitReport,
    fit_puiseux,
    hyperbolic_log_coeff,
    node_complex_period,
    node_passage,
    verify_node_log_identity,
)
from .equivalence import (
    EquivalenceVerdict,
    InvariantReport,
    OneDofVerdict,
    RescaleMap,
    cusp_torus_equivalent,
    invariant_report,
    normalize_invariant,
    one_dof_equivalent,
    parabolic_equivalent,
    verify_relations,
    verify_relations_numeric,
)
from .flows import (
    PeriodLattice,
    SymplecticModel,
    period_lattice,
    pullback_residual,
    trajectory_csv,
    transport_map,
    verify_lattice,
)

__version__ = "0.1.0"

#: the supported API, module by module in the order of the imports above
__all__ = [
    "DEFAULT_ORDER", "PuiseuxTriple", "TruncatedSeries", "phi_r_apply", "phi_r_invert",
    "puiseux_constants", "CUSP_COMPACT", "CUSP_LOCAL", "NODE", "ONE_DOF", "BifurcationDiagram",
    "CanonicalBaseTransform", "Density", "FibrationModel", "IDENTITY_BASE_MAP", "ParabolicVerdict",
    "base_change_parabolic_test", "bifurcation_diagram", "canonicalize_base", "cusp_compact_model",
    "cusp_local_model", "is_parabolic", "node_model", "one_dof_model", "BrieskornPair",
    "model_pair", "reduce", "ActionChart", "ActionChartRow", "OnSigmaError", "StratumError",
    "action_chart", "loop_action", "loop_period", "oval_bounds", "passage_time",
    "separatrix_action", "wide_action", "FitReport", "fit_puiseux",
    "hyperbolic_log_coeff", "node_complex_period", "node_passage", "verify_node_log_identity",
    "EquivalenceVerdict", "InvariantReport", "OneDofVerdict", "RescaleMap", "cusp_torus_equivalent",
    "invariant_report", "normalize_invariant", "one_dof_equivalent", "parabolic_equivalent",
    "verify_relations", "verify_relations_numeric", "PeriodLattice", "SymplecticModel",
    "period_lattice", "pullback_residual", "trajectory_csv", "transport_map", "verify_lattice",
]
