"""Photon-assisted phonon tunneling and synthetic gauge fields in microtrap arrays.

A simulation library for the vibrations of trapped ions held in independent
microtraps: dipolar phonon hopping, drive-dressed couplings with tunable
amplitude and phase, exact driven dynamics on a truncated Fock space, ring
interference, flat bands, and edge states, plus a reproducible CLI for the
preset experiments.
"""

__version__ = "0.1.0"

from .couplings import (
    BrokenCycleError,
    CouplingMatrix,
    DomainError,
    DressedMapResult,
    bare_coupling_matrix,
    dressed_factor,
    dressed_map,
    effective_coupling_matrix,
    plaquette_flux,
)
from .dynamics import (
    DrivenHamiltonian,
    EvolutionResult,
    IntegrationError,
    LinkScanResult,
    driven_model,
    effective_hamiltonian,
    evolve,
    link_transfer_scan,
    plaquette_experiment,
)
from .fock import (
    CapacityError,
    FockSpace,
    build_fock_space,
    displacement_exponential,
    single_phonon_state,
)
from .model import (
    ConfigurationError,
    DriveSpec,
    GeometryError,
    TrapArray,
    build_array,
    cosine_drive,
    laser_drive,
)
from .spectra import (
    BandCluster,
    ButterflyResult,
    CustomSpectrumResult,
    EdgeState,
    FluxSweepResult,
    LadderSpectrumResult,
    NonHermitianError,
    SpectrumResult,
    butterfly_spectrum,
    dressed_ladder_couplings,
    edge_state_report,
    eigensystem,
    flat_band_report,
    flux_sweep,
    gap_windows_from_clusters,
    ladder_spectrum,
    rhombic_ladder_cells,
    rhombic_ladder_matrix,
    square_lattice_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
