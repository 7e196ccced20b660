"""darwinlab: spectral laboratory for the six-component free-photon wave equation.

The public names below load on first use (PEP 562), so ``import darwinlab``
and ``import darwinlab.cli`` load no numpy.  That lets `cli` cap the BLAS
thread pools before the first numerical module is imported, and lets each
``dpl`` subcommand load only the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": (
        "GammaSet",
        "build_gamma_set",
        "build_sigma",
        "commutator_h_spin_residual",
        "hamiltonian_matrix",
        "helicity_frame",
        "helicity_vectors",
        "projected_spin_matrices",
        "spin_direction_spectrum",
        "transverse_projector",
        "verify_matrix_identities",
    ),
    "dynamics": (
        "ConservationReport",
        "EvolutionResult",
        "MaxwellReport",
        "continuity_and_conservation",
        "dirac_residual",
        "evolve",
        "maxwell_residual",
    ),
    "fieldbridge": (
        "ClassicalField",
        "KernelCheckReport",
        "classical_from_state",
        "extract_positive_frequency",
        "kernel_pair_check",
        "nonlocal_relation_check",
        "state_from_classical",
    ),
    "kgrid": (
        "Field",
        "KGrid",
        "k_gradient",
        "momentum_field",
        "position_field",
        "spectral_curl",
        "to_momentum",
        "to_position",
    ),
    "observables": (
        "DensityCandidates",
        "ObservableReport",
        "density_candidates",
        "nonlocal_spin_density",
        "oam_momentum",
        "oam_position",
        "observable_report",
        "probability",
        "spin_canonical",
        "spin_projected",
    ),
    "state": (
        "ModeSpec",
        "PhotonState",
        "branch_residual",
        "normalize",
        "synthesize",
        "transversality_residual",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # the submodules stay reachable as attributes, as when they loaded eagerly
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
