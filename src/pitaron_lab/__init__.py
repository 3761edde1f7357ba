"""Numerical laboratory for unitarized quantum time evolution.

Builds the standard propagator U(t, t0), the normalization operator
N = (U U^dagger)^(-1/2), and the manifestly unitary product P = N @ U on
dense desk-scale matrices, together with the perturbative expansions,
delta-kick closed forms and iteration pathologies needed to exercise
every claimed property.
"""

from .hamiltonian import (
    HamiltonianSpec,
    SplitHamiltonian,
    dirac_comb_spec,
    hermitian_split,
    nhse_hamiltonian,
    pauli_hamiltonian,
)
from .linalg import (
    lyapunov_solve,
    mat_exp,
    unitarity_defect,
)
from .propagation import (
    PropagatorTriple,
    Trajectory,
    evolve_trajectory,
    general_n_rhs,
    liouville_rhs,
    lyapunov_n_rhs,
    markov_check,
    pitaron,
    step_propagator,
    z_factor,
)
from .series import (
    SeriesExpansion,
    convergence_order,
    dyson_u,
    dyson_u_inverse,
    general_norm_expansion,
    general_pitaron_expansion,
)
from .singular_dynamics import (
    CombExpansionReport,
    SmearedDelta,
    comb_expansion_terms,
    comb_pitaron_expansion,
    comb_truncated_norm,
    dominated_convergence_demos,
    smeared_second_order,
)
from .picard import (
    BreakdownReport,
    PicardRun,
    error_bound,
    identity_sqrt_family,
    picard_delta_breakdown,
    picard_iterate,
)

__version__ = "0.1.0"
