"""Microtrap-array geometry and periodic-drive descriptions.

Reduced units throughout: frequencies in units of the base trap frequency
of the simulated direction (omega_ref), lengths in units of the x spacing
(d_ref = d_x), hbar = 1.  The Coulomb scale enters only through the single
dimensionless parameter beta; charge and mass are never stored.  A run
simulates one vibrational direction: `TrapArray` holds its base trap
frequency, and the direction enters only the dipolar coupling geometry.

Both `TrapArray` and `DriveSpec` are immutable after construction and safe
to share read-only across parallel workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

LAYOUTS = ("link", "plaquette", "rhombic_ladder", "square")

#: beta above this triggers a validity warning (the dipolar expansion assumes
#: Coulomb couplings much weaker than the trap frequency).
BETA_WARN_THRESHOLD = 0.1

#: Largest |r * drive_frequency - gradient| that counts as resonant.
_RESONANCE_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid lattice geometry (non-positive sizes, coincident sites, ...)."""


class ConfigurationError(ValueError):
    """Inconsistent physical configuration (drive/array mismatch, ...)."""


@dataclass(frozen=True)
class TrapArray:
    """A planar array of microtraps with a linear frequency gradient along x.

    lattice holds integer coordinates (i_x, i_y) per site; positions follow
    from the spacings.  The trap frequencies of the simulated direction are
    ``base_frequency + gradient * i_x``.
    """

    lattice: tuple[tuple[int, int], ...]
    spacing_x: float = 1.0
    spacing_y: float = 1.0
    base_frequency: float = 1.0
    gradient: float = 0.0
    coulomb_beta: float = 0.002

    def __post_init__(self):
        if len(self.lattice) < 1:
            raise GeometryError("array needs at least one site")
        if len(set(self.lattice)) != len(self.lattice):
            raise GeometryError("lattice sites must be distinct")
        if self.spacing_x <= 0 or self.spacing_y <= 0:
            raise GeometryError("spacings must be positive")
        if min(self.frequencies()) <= 0:
            raise ConfigurationError("trap frequencies must stay positive over the array")
        if self.coulomb_beta <= 0:
            raise ConfigurationError("coulomb_beta must be positive")
        if self.coulomb_beta >= BETA_WARN_THRESHOLD:
            warnings.warn(
                f"coulomb_beta = {self.coulomb_beta} is not << 1; the dipolar "
                "phonon-hopping description degrades",
                stacklevel=2,
            )

    @property
    def n_sites(self) -> int:
        return len(self.lattice)

    @property
    def positions(self) -> np.ndarray:
        """Site positions, shape (n_sites, 2), in units of the x spacing."""
        ratio = self.spacing_y / self.spacing_x
        pts = np.array(self.lattice, dtype=float)
        pts[:, 1] *= ratio
        return pts

    def frequencies(self) -> np.ndarray:
        """Per-site trap frequency (units of omega_ref)."""
        ix = np.array([i for i, _ in self.lattice], dtype=float)
        return self.base_frequency + self.gradient * ix


@dataclass(frozen=True)
class DriveSpec:
    """Periodic modulation of the trap frequencies.

    mode "cosine": direct frequency modulation of strength
    drive_strength * drive_frequency.  mode "laser": a two-photon Raman beat
    at drive_frequency implementing the same modulation with the
    identification drive_strength * drive_frequency = rabi_frequency *
    lamb_dicke**2, and site phases of opposite sign to the optical phases.
    A laser drive derives drive_strength and accepts none.

    Site phases grow linearly with position: phi_i = phase_x*i_x + phase_y*i_y.
    """

    mode: str
    drive_frequency: float
    resonance_order: int
    phase_x: float = 0.0
    phase_y: float = 0.0
    drive_strength: float | None = None
    rabi_frequency: float | None = None
    lamb_dicke: float | None = None

    def __post_init__(self):
        if self.mode not in ("cosine", "laser"):
            raise ConfigurationError(f"unknown drive mode {self.mode!r}")
        if self.drive_frequency <= 0:
            raise ConfigurationError("drive_frequency must be positive")
        if self.resonance_order < 1 or int(self.resonance_order) != self.resonance_order:
            raise ConfigurationError("resonance_order must be a positive integer")
        if self.mode == "cosine":
            if self.drive_strength is None or self.drive_strength < 0:
                raise ConfigurationError("cosine mode needs drive_strength >= 0")
        else:
            missing = [
                name
                for name, v in (
                    ("rabi_frequency", self.rabi_frequency),
                    ("lamb_dicke", self.lamb_dicke),
                )
                if v is None
            ]
            if missing:
                raise ConfigurationError(f"laser mode needs {', '.join(missing)}")
            if self.rabi_frequency < 0 or self.lamb_dicke < 0:
                raise ConfigurationError("laser parameters out of range")
            if self.drive_strength is not None:
                raise ConfigurationError("laser mode derives drive_strength from "
                                         "rabi_frequency * lamb_dicke**2 / drive_frequency")

    @property
    def eta_d(self) -> float:
        """Dimensionless modulation strength (drive amplitude / drive frequency)."""
        if self.mode == "cosine":
            return self.drive_strength
        return self.rabi_frequency * self.lamb_dicke**2 / self.drive_frequency

    def site_phases(self, array: TrapArray) -> np.ndarray:
        """Modulation phase per site: phase_x*i_x + phase_y*i_y."""
        lat = np.array(array.lattice, dtype=float)
        return self.phase_x * lat[:, 0] + self.phase_y * lat[:, 1]

    def optical_phases(self, array: TrapArray) -> np.ndarray:
        """Optical beat phases theta_i; these are minus the site phases."""
        return -self.site_phases(array)

    def is_resonant(self, array: TrapArray) -> bool:
        """True when resonance_order * drive_frequency matches the gradient."""
        return abs(self.resonance_order * self.drive_frequency - array.gradient) <= _RESONANCE_TOL


def cosine_drive(drive_frequency, drive_strength, resonance_order=1, phase_x=0.0, phase_y=0.0):
    return DriveSpec(
        mode="cosine",
        drive_frequency=drive_frequency,
        resonance_order=resonance_order,
        phase_x=phase_x,
        phase_y=phase_y,
        drive_strength=drive_strength,
    )


def laser_drive(rabi_frequency, beat_frequency, lamb_dicke, resonance_order=1,
                phase_x=0.0, phase_y=0.0):
    return DriveSpec(
        mode="laser",
        drive_frequency=beat_frequency,
        resonance_order=resonance_order,
        phase_x=phase_x,
        phase_y=phase_y,
        rabi_frequency=rabi_frequency,
        lamb_dicke=lamb_dicke,
    )


def build_array(layout, dims, spacing_x=1.0, spacing_y=1.0, base_frequency=1.0,
                gradient=0.0, coulomb_beta=0.002) -> TrapArray:
    """Construct a TrapArray for one of the preset layouts.

    dims: site counts per axis. "link" ignores dims (two sites along x),
    "plaquette" is the 2x2 cell, "square" takes (n_x, n_y), and
    "rhombic_ladder" takes the number of plaquette cells p and places
    3p+1 sites along a diagonal, terminated by hub sites at both ends.
    """
    if layout not in LAYOUTS:
        raise GeometryError(f"unknown layout {layout!r}")

    if layout == "link":
        lattice = [(0, 0), (1, 0)]
    elif layout == "plaquette":
        lattice = [(0, 0), (1, 0), (1, 1), (0, 1)]
    elif layout == "square":
        try:
            nx, ny = (int(d) for d in dims)
        except (TypeError, ValueError):
            raise GeometryError("square layout needs dims = (n_x, n_y)") from None
        if nx < 1 or ny < 1:
            raise GeometryError(f"square layout needs positive dims, got {(nx, ny)}")
        lattice = [(ix, iy) for ix in range(nx) for iy in range(ny)]
    else:  # rhombic_ladder
        p = int(dims[0]) if not isinstance(dims, (int, float)) else int(dims)
        if p < 1:
            raise GeometryError(f"rhombic_ladder needs at least one cell, got {p}")
        lattice = []
        for j in range(p):
            lattice += [(j, j), (j, j + 1), (j + 1, j)]  # hub b_j, upper a_j, lower c_j
        lattice.append((p, p))  # terminating hub

    return TrapArray(
        lattice=tuple(lattice),
        spacing_x=float(spacing_x),
        spacing_y=float(spacing_y),
        base_frequency=float(base_frequency),
        gradient=float(gradient),
        coulomb_beta=float(coulomb_beta),
    )
