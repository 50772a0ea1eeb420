"""triqom: exact and open-system dynamics of a qubit-cavity-mechanics triple.

A dispersive qubit and a single-mode cavity both push on one mechanical
oscillator (frequency = 1).  The closed problem factors into conserved
(spin, photon-number) branches and is solved in closed form; the open problem
integrates a dressed master equation.  Entanglement and phase-space
diagnostics live in their own modules, and a small CLI maps scenario config
files onto library calls.
"""

__version__ = "0.1.0"

from .core import (
    CompositeSpace,
    DensityMatrix,
    ModelParams,
    PureState,
    Space,
    coherent_dim,
    coherent_state,
    displaced_fock,
    fock_state,
    kitten_dim,
    mechanics_dim,
    partial_trace,
    qubit_state,
    tensor,
    thermal_density,
    thermal_dim,
)
from .dynamics import (
    Trajectory,
    branch_shifts,
    default_composite_space,
    evolve_coherent,
    evolve_fock_superposition,
    evolve_thermal,
    evolve_unitary,
    hamiltonian,
    qubit_cavity_at_cycle,
)
from .entanglement import (
    BipartitePartition,
    EntanglementRecord,
    entanglement_record,
    intrinsic_qc_analytic_fock,
    intrinsic_qc_2pi_coherent,
    intrinsic_qc_numeric,
    linear_entropy,
    negativity,
    partial_transpose,
)
from .lindblad import (
    DissipatorSpec,
    IntegrationError,
    OpenSystemConfig,
    build_dissipators,
    dressed_dephasing_rate,
    integrate,
    lindblad_rhs,
    negativity_sweep,
    photon_dephasing_rate,
    sweep_initial_state,
)
from .nonclassical import (
    CatSpec,
    WignerGrid,
    cat_condition,
    cavity_projected_plus,
    cavity_unconditional,
    fidelity_displaced_fock,
    kitten_coupling,
    optimize_g_for_kitten,
    projected_qubit_state,
    projection_probability,
    radial_lobe_count,
    wigner,
    wigner_at,
)

__all__ = [
    "__version__",
    "Space", "CompositeSpace", "ModelParams", "PureState", "DensityMatrix",
    "coherent_dim", "kitten_dim", "thermal_dim", "mechanics_dim",
    "fock_state", "qubit_state", "coherent_state", "thermal_density",
    "displaced_fock", "tensor", "partial_trace",
    "Trajectory", "branch_shifts", "hamiltonian", "evolve_unitary",
    "evolve_fock_superposition", "evolve_coherent", "evolve_thermal",
    "qubit_cavity_at_cycle", "default_composite_space",
    "BipartitePartition", "EntanglementRecord", "entanglement_record",
    "negativity", "partial_transpose", "linear_entropy",
    "intrinsic_qc_numeric", "intrinsic_qc_analytic_fock",
    "intrinsic_qc_2pi_coherent",
    "IntegrationError", "DissipatorSpec", "OpenSystemConfig",
    "build_dissipators", "dressed_dephasing_rate", "photon_dephasing_rate",
    "lindblad_rhs", "integrate", "sweep_initial_state", "negativity_sweep",
    "WignerGrid", "wigner", "wigner_at", "CatSpec", "cat_condition",
    "kitten_coupling", "cavity_unconditional", "projected_qubit_state",
    "cavity_projected_plus", "projection_probability",
    "fidelity_displaced_fock", "optimize_g_for_kitten", "radial_lobe_count",
]
