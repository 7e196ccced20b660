"""darwinlab: spectral laboratory for the six-component free-photon wave equation."""

from .algebra import (
    GammaSet,
    build_gamma_set,
    build_sigma,
    commutator_h_spin_residual,
    hamiltonian_matrix,
    helicity_frame,
    helicity_vectors,
    negative_energy_projector,
    positive_energy_projector,
    projected_spin_matrices,
    spin_direction_spectrum,
    transverse_projector,
    verify_matrix_identities,
)
from .dynamics import (
    ConservationReport,
    CurrentField,
    EvolutionResult,
    MaxwellReport,
    continuity_and_conservation,
    continuity_residual,
    dirac_residual,
    evolve,
    four_current,
    maxwell_residual,
)
from .fieldbridge import (
    ClassicalField,
    ComplexFieldPair,
    KernelCheckReport,
    classical_from_kspace,
    classical_from_state,
    extract_positive_frequency,
    kernel_pair_check,
    landau_peierls_transform,
    nonlocal_relation_check,
    state_from_classical,
)
from .kgrid import (
    Field,
    KGrid,
    k_gradient,
    momentum_field,
    position_field,
    spectral_curl,
    spectral_divergence,
    to_momentum,
    to_position,
)
from .observables import (
    DensityCandidates,
    ObservableReport,
    density_candidates,
    nonlocal_spin_density,
    oam_momentum,
    oam_position,
    observable_report,
    probability,
    spin_canonical,
    spin_cross,
    spin_position,
    spin_projected,
)
from .state import (
    ModeSpec,
    PhotonState,
    branch_residual,
    normalize,
    project_positive_energy,
    project_transverse,
    synthesize,
    transversality_residual,
)

__version__ = "0.1.0"
