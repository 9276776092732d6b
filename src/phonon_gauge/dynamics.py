"""Driven Hamiltonians and unitary time evolution on the truncated Fock space.

The integrator is a fixed-step 4th-order Magnus scheme (two Gauss-Legendre
nodes per step) whose step propagator is applied through a machine-precision
Taylor expansion of the exponential; each step is unitary up to roundoff, so
norm is conserved over arbitrarily long windows.  Evolutions are
deterministic and single-threaded; independent parameter points of a scan
may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .couplings import CouplingMatrix, dressed_factor, bare_coupling_matrix, \
    effective_coupling_matrix
from .fock import FockSpace, build_fock_space, displacement_exponential, \
    ladder_matrix, single_phonon_state
from .model import ConfigurationError, DriveSpec, TrapArray, build_array, laser_drive

_GL_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_GL_COMM = math.sqrt(3.0) / 12.0

#: Points below this dressed-coupling magnitude (units of omega_ref) are
#: reported as undefined instead of integrating to an unbounded window.
COUPLING_THRESHOLD = 1e-6

#: Norm drift that aborts an evolution.
NORM_ABORT = 1e-4


class IntegrationError(RuntimeError):
    """Time integration failed (norm drift or non-convergent step)."""


@dataclass(frozen=True)
class DrivenHamiltonian:
    """H(tau) = static + exp(i modulation tau) drive + h.c.

    `modulation` is a signed angular frequency; `drive` may be None for a
    purely static operator.  `frequency_scale` is the largest frequency
    scale present, used for the default step size.
    """

    static: np.ndarray
    drive: np.ndarray | None = None
    modulation: float = 0.0
    frequency_scale: float = 1.0

    @property
    def dim(self) -> int:
        return self.static.shape[0]

    def at(self, tau: float) -> np.ndarray:
        if self.drive is None:
            return self.static.copy()
        f = np.exp(1j * self.modulation * tau)
        return self.static + f * self.drive + np.conj(f) * self.drive.conj().T


def effective_hamiltonian(matrix: CouplingMatrix, space: FockSpace) -> np.ndarray:
    """Hopping Hamiltonian sum_ij J_ij a_i^dag a_j on the truncated space.

    The trap-frequency diagonal is omitted (rotating frame), so the result
    conserves total phonon number exactly.
    """
    if matrix.n != space.n_sites:
        raise ValueError(
            f"coupling matrix is {matrix.n}-site but the Fock space has {space.n_sites}"
        )
    dim = space.dim
    h = np.zeros((dim, dim), dtype=complex)
    raises = {}
    lowers = {}
    for i in range(space.n_sites):
        for j in range(space.n_sites):
            if i == j or matrix.matrix[i, j] == 0:
                continue
            if i not in raises:
                raises[i] = ladder_matrix(space, i, "raise")
            if j not in lowers:
                lowers[j] = ladder_matrix(space, j, "lower")
            h += matrix.matrix[i, j] * (raises[i] @ lowers[j])
    return h


def _trap_diagonal(array: TrapArray, space: FockSpace, direction: str) -> np.ndarray:
    freqs = array.frequencies(direction)
    occ = space.occupation_table()
    return np.diag(freqs @ occ).astype(complex)


def _hop_scale(matrix: CouplingMatrix) -> float:
    return float(np.abs(matrix.matrix).sum(axis=1).max()) if matrix.n else 0.0


def cosine_driven_model(array: TrapArray, drive: DriveSpec, bare: CouplingMatrix,
                        space: FockSpace, direction: str = "z") -> DrivenHamiltonian:
    """Lab-frame trap + hopping with direct cosine frequency modulation."""
    if drive.mode != "cosine":
        raise ConfigurationError("cosine_driven_model needs a cosine-mode drive")
    if space.n_sites != array.n_sites:
        raise ValueError("Fock space and array disagree on the site count")
    static = _trap_diagonal(array, space, direction) + effective_hamiltonian(bare, space)
    amp = drive.eta_d * drive.drive_frequency
    phases = drive.site_phases(array)
    occ = space.occupation_table()
    v = np.diag((amp / 2.0) * (np.exp(1j * phases) @ occ.astype(complex)))
    scale = float(array.frequencies(direction).max()) + amp + _hop_scale(bare)
    return DrivenHamiltonian(static=static, drive=v, modulation=drive.drive_frequency,
                             frequency_scale=scale)


def laser_driven_model(array: TrapArray, drive: DriveSpec, bare: CouplingMatrix,
                       space: FockSpace, direction: str = "z") -> DrivenHamiltonian:
    """Lab-frame trap + hopping driven by the full optical beat.

    The drive term is (rabi/2) sum_i exp(i(theta_i - beat tau)) D_i + h.c.
    with D_i the site displacement exponential of the simulated direction's
    Lamb-Dicke parameter and theta_i the optical phases.
    """
    if drive.mode != "laser":
        raise ConfigurationError("laser_driven_model needs a laser-mode drive")
    if space.n_sites != array.n_sites:
        raise ValueError("Fock space and array disagree on the site count")
    static = _trap_diagonal(array, space, direction) + effective_hamiltonian(bare, space)
    thetas = drive.optical_phases(array)
    v = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(space.n_sites):
        v += np.exp(1j * thetas[i]) * displacement_exponential(space, i, drive.lamb_dicke)
    v *= drive.rabi_frequency / 2.0
    scale = (float(array.frequencies(direction).max())
             + drive.eta_d * drive.drive_frequency
             + drive.rabi_frequency + _hop_scale(bare))
    return DrivenHamiltonian(static=static, drive=v, modulation=-drive.drive_frequency,
                             frequency_scale=scale)


# ---------------------------------------------------------------------------
# integrator internals


def _exp_action(omega: np.ndarray, state: np.ndarray, dt_label: float):
    """exp(omega) @ state by a Taylor sum, accurate to machine precision."""
    term = state.copy()
    out = state.copy()
    ref = np.linalg.norm(state)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 121):
            term = omega @ term / k
            size = np.linalg.norm(term)
            if not np.isfinite(size):
                break
            out += term
            if size <= 1e-16 * ref:
                return out
    raise IntegrationError(
        f"step propagator expansion did not converge; dt = {dt_label} is too large"
    )


class _MagnusStepper:
    """Fourth-order Magnus stepper for H(t) = Hs + f(t) V + conj(f(t)) V^dag."""

    def __init__(self, model: DrivenHamiltonian):
        dim = model.dim
        shift = np.trace(model.static).real / dim  # global phase only
        self.hs = model.static - shift * np.eye(dim)
        self.v = model.drive
        self.mod = model.modulation
        if self.v is not None:
            self.vd = self.v.conj().T
            self.c_hv = self.hs @ self.v - self.v @ self.hs
            self.c_hvd = self.hs @ self.vd - self.vd @ self.hs
            self.c_vvd = self.v @ self.vd - self.vd @ self.v

    def omega(self, t: float, h: float) -> np.ndarray:
        if self.v is None:
            return -1j * h * self.hs
        f1 = np.exp(1j * self.mod * (t + _GL_NODES[0] * h))
        f2 = np.exp(1j * self.mod * (t + _GL_NODES[1] * h))
        fm = 0.5 * (f1 + f2)
        a_mean = self.hs + fm * self.v + np.conj(fm) * self.vd
        comm = ((f2 - f1) * self.c_hv + np.conj(f2 - f1) * self.c_hvd
                + (f1 * np.conj(f2) - np.conj(f1) * f2) * self.c_vvd)
        return -1j * h * a_mean + (_GL_COMM * h * h) * comm


def _magnus_steps(stepper: _MagnusStepper, x: np.ndarray, t: float, h: float, n: int):
    """n Magnus steps of size h from time t on a state vector or a matrix of
    columns; returns the result and the accumulated time."""
    for _ in range(n):
        x = _exp_action(stepper.omega(t, h), x, h)
        t += h
    return x, t


def default_time_step(model: DrivenHamiltonian, time_step_divisor: int = 40) -> float:
    """Step rule: the shortest period in H(tau) divided by `time_step_divisor`."""
    return 2.0 * math.pi / (time_step_divisor * model.frequency_scale)


@dataclass
class EvolutionResult:
    """Site populations and state norm on a time grid, with a parameter echo."""

    times: np.ndarray
    populations: np.ndarray  # (n_times, n_sites)
    norms: np.ndarray
    model: str
    parameters: dict

    @property
    def n_sites(self) -> int:
        return self.populations.shape[1]

    def total_number(self) -> np.ndarray:
        return self.populations.sum(axis=1)

    def to_csv(self) -> str:
        head = "time," + ",".join(f"n_{k+1}" for k in range(self.n_sites)) + ",norm"
        lines = [head]
        for t, row, nrm in zip(self.times, self.populations, self.norms):
            vals = ",".join(format(v, ".17g") for v in row)
            lines.append(f"{t:.17g},{vals},{nrm:.17g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "parameters": self.parameters,
            "times": self.times.tolist(),
            "populations": self.populations.tolist(),
            "norms": self.norms.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _populations(space: FockSpace, psi: np.ndarray) -> np.ndarray:
    occ = space.occupation_table()
    return occ @ np.abs(psi) ** 2


def evolve(hamiltonian, psi0: np.ndarray, t_final: float, dt: float | None = None, *,
           space: FockSpace, samples: int = 401, time_step_divisor: int = 40,
           label: str = "evolution", parameters: dict | None = None) -> EvolutionResult:
    """Integrate i dpsi/dtau = H(tau) psi and record site populations.

    `hamiltonian` is either a constant matrix (propagated exactly through
    its eigensystem) or a DrivenHamiltonian (structured fixed-step Magnus
    scheme; `model.at(tau)` gives its matrix at one instant).  The output
    grid has `samples` points on [0, t_final]; steps are fitted to the grid
    so every sample lands on a step boundary.  Aborts if the norm drifts
    beyond 1e-4.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalised")
    times = np.linspace(0.0, t_final, samples)
    params = dict(parameters or {})

    if isinstance(hamiltonian, np.ndarray):
        vals, vecs = np.linalg.eigh(hamiltonian)
        coeff = vecs.conj().T @ psi0
        pops, norms = [], []
        for t in times:
            psi = vecs @ (np.exp(-1j * vals * t) * coeff)
            pops.append(_populations(space, psi))
            norms.append(np.linalg.norm(psi))
        params.update({"integrator": "eigendecomposition", "dt": 0.0})
        return EvolutionResult(times=times, populations=np.array(pops),
                               norms=np.array(norms), model=label, parameters=params)

    if not isinstance(hamiltonian, DrivenHamiltonian):
        raise TypeError("hamiltonian must be a matrix or a DrivenHamiltonian")
    stepper = _MagnusStepper(hamiltonian)
    if dt is None:
        dt = default_time_step(hamiltonian, time_step_divisor)

    seg = t_final / (samples - 1)
    n_sub = max(1, math.ceil(seg / dt - 1e-12))
    h = seg / n_sub
    psi = psi0.astype(complex)
    pops = [_populations(space, psi)]
    norms = [np.linalg.norm(psi)]
    t = 0.0
    for _ in range(samples - 1):
        psi, t = _magnus_steps(stepper, psi, t, h, n_sub)
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > NORM_ABORT:
            raise IntegrationError(
                f"norm drifted to {nrm:.6f} at t = {t:.3f}; dt = {h} is too large"
            )
        pops.append(_populations(space, psi))
        norms.append(nrm)
    params.update({"integrator": "magnus4", "dt": h, "dt_requested": dt})
    return EvolutionResult(times=times, populations=np.array(pops),
                           norms=np.array(norms), model=label, parameters=params)


# ---------------------------------------------------------------------------
# preset experiments


def _floquet_period_propagator(model: DrivenHamiltonian, dt: float):
    """Unitary over one modulation period, stepped with the Magnus scheme."""
    period = 2.0 * math.pi / abs(model.modulation)
    n = max(1, math.ceil(period / dt - 1e-12))
    h = period / n
    stepper = _MagnusStepper(model)
    u, _ = _magnus_steps(stepper, np.eye(model.dim, dtype=complex), 0.0, h, n)
    return u, period, h, stepper


def _state_at(model: DrivenHamiltonian, psi0: np.ndarray, t_target: float, dt: float):
    """psi(t_target) using the drive-periodic propagator, then a remainder."""
    u, period, h, stepper = _floquet_period_propagator(model, dt)
    n_per = int(t_target // period)
    psi = psi0.astype(complex)
    block = u
    k = n_per
    while k:  # binary power of the period propagator
        if k & 1:
            psi = block @ psi
        k >>= 1
        if k:
            block = block @ block
    remainder = t_target - n_per * period
    t = 0.0
    while remainder - t > 1e-12:
        psi, t = _magnus_steps(stepper, psi, t, min(h, remainder - t), 1)
    return psi


@dataclass
class LinkScanResult:
    """Transferred population at the full-transfer time, per phase step."""

    delta_phi: np.ndarray
    t_star: np.ndarray
    n2_effective: np.ndarray
    n2_exact: np.ndarray
    defined: np.ndarray

    def to_csv(self) -> str:
        lines = ["delta_phi,t_star,n2_effective,n2_exact,defined"]
        for k in range(self.delta_phi.size):
            lines.append(
                f"{self.delta_phi[k]:.17g},{self.t_star[k]:.17g},"
                f"{self.n2_effective[k]:.17g},{self.n2_exact[k]:.17g},"
                f"{int(self.defined[k])}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON with null where a point is undefined (coupling below threshold)."""
        def masked(values):
            return [v if d else None for v, d in zip(values.tolist(), self.defined)]

        payload = {
            "delta_phi": self.delta_phi.tolist(),
            "t_star": masked(self.t_star),
            "n2_effective": masked(self.n2_effective),
            "n2_exact": masked(self.n2_exact),
            "defined": self.defined.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def link_point(delta_phi: float, *, gradient=0.05, coulomb_beta=0.002,
               rabi_frequency=0.75, beat_frequency=0.05, lamb_dicke=0.2,
               resonance_order=1, n_max=4, direction="z", base_frequency=1.0,
               time_step_divisor=40, coupling_threshold=COUPLING_THRESHOLD):
    """(t_star, n2_effective, n2_exact, defined) for one phase step."""
    array = build_array("link", (2,), base_frequency=base_frequency,
                        gradient=gradient, coulomb_beta=coulomb_beta)
    drive = laser_drive(rabi_frequency, beat_frequency, lamb_dicke,
                        resonance_order, phase_x=delta_phi)
    space = build_fock_space(2, n_max)
    eff = effective_coupling_matrix(array, drive, direction)
    j_eff = abs(eff.matrix[1, 0])
    if j_eff < coupling_threshold:
        return math.nan, math.nan, math.nan, False
    t_star = math.pi / (2.0 * j_eff)
    psi0 = single_phonon_state(space, 0)

    h_eff = effective_hamiltonian(eff, space)
    res_eff = evolve(h_eff, psi0, t_star, space=space, samples=2, label="effective")
    n2_eff = float(res_eff.populations[-1, 1])

    bare = bare_coupling_matrix(array, direction)
    exact = laser_driven_model(array, drive, bare, space, direction)
    dt = default_time_step(exact, time_step_divisor)
    psi = _state_at(exact, psi0, t_star, dt)
    if abs(np.linalg.norm(psi) - 1.0) > NORM_ABORT:
        raise IntegrationError(f"norm drift in link run at delta_phi = {delta_phi}")
    n2_exact = float(_populations(space, psi)[1])
    return t_star, n2_eff, n2_exact, True


def link_transfer_scan(delta_phi_grid, *, map_fn=map, **kwargs) -> LinkScanResult:
    """Effective and laser-exact transfer curves over a grid of phase steps.

    Each point runs to its own full-transfer time pi / (2 |J|); points whose
    dressed coupling falls below the threshold are marked undefined instead
    of integrating to an unbounded window.  `map_fn` maps link_point over the
    grid; the points are independent, so a process-pool map may run them.
    """
    grid = np.asarray(list(delta_phi_grid), dtype=float)
    rows = list(map_fn(partial(link_point, **kwargs), grid))
    t_star, n2_eff, n2_exact, defined = (np.array(x) for x in zip(*rows))
    return LinkScanResult(delta_phi=grid, t_star=t_star, n2_effective=n2_eff,
                          n2_exact=n2_exact, defined=defined.astype(bool))


def plaquette_experiment(flux: float, *, rabi_frequency: float, n_max: int = 2,
                         gradient=0.05, coulomb_beta=0.002, beat_frequency=0.05,
                         lamb_dicke=0.2, resonance_order=1, direction="z",
                         window: float | None = None, samples: int = 601,
                         time_step_divisor: int = 40, initial_site: int = 0,
                         cutoff_range: float = 3.0):
    """Four-site interference experiment; returns (effective, exact) results.

    The geometry is tuned so every ring bond of the dressed model has the
    same magnitude: d_x = d_y |F_r(eta_d, pi)|^(1/3).  flux selects the
    synthetic plaquette flux through the phase generators (phase_x = pi,
    phase_y = flux); only 0 and pi are supported.
    """
    if not (abs(flux) < 1e-12 or abs(flux - math.pi) < 1e-12):
        raise ConfigurationError("plaquette_experiment supports flux 0 or pi")
    drive_probe = laser_drive(rabi_frequency, beat_frequency, lamb_dicke,
                              resonance_order, phase_x=math.pi, phase_y=flux)
    eta_d = drive_probe.eta_d
    f_mag = abs(dressed_factor(resonance_order, eta_d, math.pi))
    array = build_array("plaquette", (2, 2), spacing_y=f_mag ** (-1.0 / 3.0),
                        gradient=gradient, coulomb_beta=coulomb_beta)
    space = build_fock_space(4, n_max)
    psi0 = single_phonon_state(space, initial_site)

    eff = effective_coupling_matrix(array, drive_probe, direction, cutoff_range,
                                    reference_frequencies=True, diagonal_bonds=False)
    j_bond = abs(eff.matrix[1, 0])
    if window is None:
        window = math.pi / j_bond
    common = {
        "flux": flux,
        "rabi_frequency": rabi_frequency,
        "beat_frequency": beat_frequency,
        "lamb_dicke": lamb_dicke,
        "drive_strength": eta_d,
        "gradient": gradient,
        "coulomb_beta": coulomb_beta,
        "n_max": n_max,
        "window": window,
        "spacing_y": f_mag ** (-1.0 / 3.0),
        "bond_magnitude": j_bond,
    }
    res_eff = evolve(effective_hamiltonian(eff, space), psi0, window, space=space,
                     samples=samples, label="effective", parameters=common)
    bare = bare_coupling_matrix(array, direction, cutoff_range)
    exact_model = laser_driven_model(array, drive_probe, bare, space, direction)
    res_exact = evolve(exact_model, psi0, window, space=space, samples=samples,
                       time_step_divisor=time_step_divisor, label="laser_exact",
                       parameters=common)
    return res_eff, res_exact
