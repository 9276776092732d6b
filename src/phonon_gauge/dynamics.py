"""Driven Hamiltonians and unitary time evolution on the truncated Fock space.

`driven_model` builds the exact lab-frame Hamiltonian, trap diagonal plus
hopping plus the periodic drive, for both drive modes of `DriveSpec`: the
direct cosine modulation and the two-photon laser beat.
The integrator is a fixed-step 4th-order Magnus scheme (two Gauss-Legendre
nodes per step) on a grid that divides the drive period into equal steps.
Each step generator is five real coefficients times a table of fixed
matrices, and its exponential is a Taylor polynomial whose degree is fixed
before stepping from a bound on the generator's 1-norm, so that the
truncation stays below 2^-53.  The polynomial is applied to state vectors
by Horner's rule; the one-period propagator, used to cross stretches of
whole periods without a sample, is formed by Paterson-Stockmeyer.  Each
step is unitary up to roundoff, so norm is conserved over arbitrarily long
windows.  Evolutions are deterministic and single-threaded; independent
parameter points of a scan may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._text import csv_text, json_text
from .couplings import CouplingMatrix, dressed_factor, bare_coupling_matrix, \
    effective_coupling_matrix
from .fock import FockSpace, build_fock_space, displacement_exponential, \
    single_phonon_state
from .model import ConfigurationError, DriveSpec, TrapArray, build_array, laser_drive

_GL_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_GL_COMM = math.sqrt(3.0) / 12.0

#: Points below this dressed-coupling magnitude (units of omega_ref) are
#: reported as undefined instead of integrating to an unbounded window.
COUPLING_THRESHOLD = 1e-6

#: Norm drift that aborts an evolution.
NORM_ABORT = 1e-4

#: A drive V counts as normal when ||[V, V^dag]||_1 <= NORMAL_TOL ||V||_1^2.
#: Both drive models give a normal V, up to roundoff near 1e-15 relative.
NORMAL_TOL = 1e-12


class IntegrationError(RuntimeError):
    """Time integration failed (norm drift or non-convergent step)."""


@dataclass(frozen=True)
class DrivenHamiltonian:
    """H(tau) = static + exp(i modulation tau) drive + h.c., periodic in tau.

    `modulation` is a nonzero signed angular frequency, and `drive` must be
    a normal matrix (see NORMAL_TOL), so that [V, V^dag] drops out of the
    Magnus generator.  `frequency_scale` is the largest frequency scale
    present, used for the default step size.
    """

    static: np.ndarray
    drive: np.ndarray
    modulation: float
    frequency_scale: float

    def __post_init__(self):
        if self.modulation == 0:
            raise ValueError("modulation must be nonzero; evolve a constant matrix directly")
        v, vd = self.drive, self.drive.conj().T
        norm = np.abs(v).sum(axis=0).max()  # ||V||_1
        if np.abs(v @ vd - vd @ v).sum(axis=0).max() > NORMAL_TOL * norm * norm:
            raise ValueError("drive must be a normal matrix ([V, V^dag] = 0)")

    @property
    def dim(self) -> int:
        return self.static.shape[0]

    def at(self, tau: float) -> np.ndarray:
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
    occ = space.occupation_table()
    stride = space.local_dim ** np.arange(space.n_sites - 1, -1, -1)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for i, j in zip(*np.nonzero(matrix.matrix)):  # i != j: CouplingMatrix has a zero diagonal
        # a_i^dag a_j |n> = sqrt(n_i + 1) sqrt(n_j) |n + e_i - e_j> inside the truncation
        cols = np.flatnonzero((occ[j] > 0) & (occ[i] < space.n_max))
        h[cols + (stride[i] - stride[j]), cols] += matrix.matrix[i, j] * (
            np.sqrt(occ[i, cols] + 1) * np.sqrt(occ[j, cols]))
    return h


def driven_model(array: TrapArray, drive: DriveSpec, bare: CouplingMatrix,
                 space: FockSpace) -> DrivenHamiltonian:
    """Lab-frame trap + hopping with the periodic drive of `drive`.

    `bare` was built for the simulated direction; the trap part holds `array.frequencies()`.
    mode "cosine" modulates the trap frequencies directly: the drive term is
    (eta_d w / 2) sum_i exp(i(phi_i + w tau)) n_i + h.c. with phi_i the site
    phases.  mode "laser" drives with the full optical beat: the drive term
    is (rabi/2) sum_i exp(i(theta_i - w tau)) D_i + h.c. with D_i the site
    displacement exponential of the simulated direction's Lamb-Dicke
    parameter and theta_i the optical phases.
    """
    if space.n_sites != array.n_sites:
        raise ValueError("Fock space and array disagree on the site count")
    occ = space.occupation_table()
    static = np.diag(array.frequencies() @ occ).astype(complex)
    static += effective_hamiltonian(bare, space)
    amp = drive.eta_d * drive.drive_frequency
    if drive.mode == "cosine":
        phases = drive.site_phases(array)
        v = np.diag((amp / 2.0) * (np.exp(1j * phases) @ occ.astype(complex)))
        modulation, rabi = drive.drive_frequency, 0.0
    else:
        thetas = drive.optical_phases(array)
        v = np.zeros((space.dim, space.dim), dtype=complex)
        for i in range(space.n_sites):
            v += np.exp(1j * thetas[i]) * displacement_exponential(space, i, drive.lamb_dicke)
        v *= drive.rabi_frequency / 2.0
        modulation, rabi = -drive.drive_frequency, drive.rabi_frequency
    hop = float(np.abs(bare.matrix).sum(axis=1).max())  # largest row sum of |J|
    scale = float(array.frequencies().max()) + amp + rabi + hop
    return DrivenHamiltonian(static=static, drive=v, modulation=modulation,
                             frequency_scale=scale)


# ---------------------------------------------------------------------------
# integrator internals

#: Truncation target for the Taylor series of every step exponential.
_TAYLOR_TOL = 2.0 ** -53

#: A step whose exponential needs a higher Taylor degree is too large.
MAX_TAYLOR_DEGREE = 120


def _taylor_degree(beta: float, h: float) -> int:
    """Smallest degree m whose Taylor tail is below 2^-53 when ||Omega||_1 <= beta:
    sum_{k>m} beta^k / k! <= beta^(m+1) / (m+1)! / (1 - beta / (m+2))."""
    term = 1.0  # beta^m / m!
    for m in range(1, MAX_TAYLOR_DEGREE + 1):
        term *= beta / m
        if beta < m + 2 and term * beta / (m + 1) <= _TAYLOR_TOL * (1.0 - beta / (m + 2)):
            return m
    raise IntegrationError(f"step exponential needs a Taylor degree above "
                           f"{MAX_TAYLOR_DEGREE}; dt = {h} is too large")


def _taylor_apply(omega: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """sum_{k<=m} omega^k x / k! by Horner's rule (m products with x)."""
    y = x
    for k in range(m, 0, -1):
        y = omega @ y
        y *= 1.0 / k
        y += x
    return y


def _ps_shape(m: int) -> tuple[int, int]:
    """Paterson-Stockmeyer split of a degree-m polynomial: powers up to s, r blocks."""
    s = math.isqrt(m) + 1  # ceil(sqrt(m + 1))
    return s, -(-(m + 1) // s)


def _taylor_matrix(omega: np.ndarray, m: int) -> np.ndarray:
    """sum_{k<=m} omega^k / k! by Paterson-Stockmeyer: s - 1 products for the
    powers up to omega^s, then r - 1 for Horner in omega^s over the blocks."""
    s, r = _ps_shape(m)
    powers = [None, omega]
    while len(powers) <= s:
        powers.append(powers[-1] @ omega)
    out = np.zeros_like(omega)
    for j in range(r - 1, -1, -1):
        if j < r - 1:
            out = out @ powers[s]
        for i in range(1, min(s, m + 1 - j * s)):
            out += powers[i] * (1.0 / math.factorial(j * s + i))
        out.flat[::omega.shape[0] + 1] += 1.0 / math.factorial(j * s)
    return out


class _PeriodGrid:
    """Fourth-order Magnus steps of one size h = T / n on the grid t = j h.

    H(t) = Hs + f V + conj(f) V^dag with f = exp(i w t) repeats with period
    T = 2 pi / |w|, so step j uses the coefficients of step j mod n.  With
    f1, f2 at the two Gauss-Legendre nodes, (f1 + f2) / 2 = a + ib and
    f2 - f1 = p + iq, the step generator is
      Omega = h (-i Hs) + h a (-i (V + V^dag)) + h b (V - V^dag)
              + C h^2 [p ([Hs,V] + [Hs,V^dag]) + q i ([Hs,V] - [Hs,V^dag])]
    with C = sqrt(3) / 12: five real coefficients times a fixed table of
    anti-Hermitian matrices.  The commutator [H(t1), H(t2)] also holds a
    term Im(f1 conj(f2)) 2i [V,V^dag], which vanishes for the normal V that
    DrivenHamiltonian requires.
    """

    def __init__(self, model: DrivenHamiltonian, dt: float):
        period = 2.0 * math.pi / abs(model.modulation)
        self.n = max(1, math.ceil(period / dt - 1e-12))
        self.h = h = period / self.n
        self.mod = model.modulation
        dim = model.dim
        hs = model.static - (np.trace(model.static).real / dim) * np.eye(dim)  # global phase
        v, vd = model.drive, model.drive.conj().T
        self.table = tab = np.empty((5, dim, dim), dtype=complex)
        np.multiply(hs, -1j, out=tab[0])
        np.add(v, vd, out=tab[1])
        tab[1] *= -1j
        np.subtract(v, vd, out=tab[2])
        comm = hs @ v  # [Hs, V]; [Hs, V^dag] = -[Hs, V]^dag
        comm -= v @ hs
        np.subtract(comm, comm.conj().T, out=tab[3])
        np.add(comm, comm.conj().T, out=tab[4])
        tab[4] *= 1j
        self._flat = tab.reshape(5, -1).view(np.float64)
        # ||M_k||_1 with |(f1 + f2) / 2| <= 1 and |f2 - f1| <= min(x, 2), x the
        # drive phase between the nodes.  The bound grows with h, so it covers
        # the shorter partial steps too.
        n0, n1, n2, n3, n4 = (np.abs(mat).sum(axis=0).max() for mat in tab)
        x = abs(self.mod) * h / math.sqrt(3.0)
        beta = h * (n0 + math.hypot(n1, n2)) + _GL_COMM * h * h * min(x, 2.0) * math.hypot(n3, n4)
        self.degree = _taylor_degree(beta, h)
        self.coefs = self.coefficients(np.arange(self.n) * h, h)

    def coefficients(self, t, h) -> np.ndarray:
        """Table coefficients, one row per step of size h starting at t."""
        t, h = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(h, dtype=float))
        f1 = np.exp(1j * self.mod * (t + _GL_NODES[0] * h))
        f2 = np.exp(1j * self.mod * (t + _GL_NODES[1] * h))
        fm, df, ch2 = 0.5 * (f1 + f2), f2 - f1, _GL_COMM * h * h
        return np.stack((h, h * fm.real, h * fm.imag, ch2 * df.real, ch2 * df.imag), axis=-1)

    def omega(self, row: np.ndarray) -> np.ndarray:
        return (row @ self._flat).view(complex).reshape(self.table.shape[1:])

    def advance(self, x: np.ndarray, j: int, count: int) -> np.ndarray:
        """x moved by `count` grid steps from grid point j."""
        for i in range(j, j + count):
            x = _taylor_apply(self.omega(self.coefs[i % self.n]), x, self.degree)
        return x

    def period_propagator(self) -> np.ndarray:
        u = np.eye(self.table.shape[1], dtype=complex)
        for row in self.coefs:
            u = _taylor_matrix(self.omega(row), self.degree) @ u
        return u


def default_time_step(model: DrivenHamiltonian, time_step_divisor: int = 40) -> float:
    """Step rule: the shortest period in H(tau) divided by `time_step_divisor`."""
    return 2.0 * math.pi / (time_step_divisor * model.frequency_scale)


@dataclass
class EvolutionResult:
    """Site populations and state norm on a time grid, with a parameter echo.

    `diagnostics` reports what the integrator did; the writers leave it out.
    """

    times: np.ndarray
    populations: np.ndarray  # (n_times, n_sites)
    norms: np.ndarray
    model: str
    parameters: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_sites(self) -> int:
        return self.populations.shape[1]

    def total_number(self) -> np.ndarray:
        return self.populations.sum(axis=1)

    def to_csv(self) -> str:
        header = ["time"] + [f"n_{k+1}" for k in range(self.n_sites)] + ["norm"]
        return csv_text(header, ((t, *row, nrm) for t, row, nrm
                                 in zip(self.times, self.populations, self.norms)))

    def to_json(self) -> str:
        return json_text({
            "model": self.model,
            "parameters": self.parameters,
            "times": self.times.tolist(),
            "populations": self.populations.tolist(),
            "norms": self.norms.tolist(),
        })


def _populations(space: FockSpace, psi: np.ndarray) -> np.ndarray:
    occ = space.occupation_table()
    return occ @ np.abs(psi) ** 2


def evolve(hamiltonian, psi0: np.ndarray, t_final: float, dt: float | None = None, *,
           space: FockSpace, samples: int = 401, label: str = "evolution",
           parameters: dict | None = None) -> EvolutionResult:
    """Integrate i dpsi/dtau = H(tau) psi and record site populations.

    `hamiltonian` is either a constant matrix (propagated exactly through
    its eigensystem) or a DrivenHamiltonian (structured fixed-step Magnus
    scheme; `model.at(tau)` gives its matrix at one instant).  The output
    grid has `samples` points on [0, t_final].  Magnus steps of size
    h = T / ceil(T / dt) fill the drive period T, dt defaulting to
    `default_time_step(hamiltonian)`; each sample is one partial step from
    the last grid point.  Stretches of whole periods without a sample are
    crossed with the one-period propagator when that costs fewer flops than
    stepping.  Aborts if the norm drifts beyond 1e-4.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
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
    if dt is None:
        dt = default_time_step(hamiltonian)
    grid = _PeriodGrid(hamiltonian, dt)
    h, n, m = grid.h, grid.n, grid.degree

    # grid point at or below each sample, and the partial step beyond it
    points = np.floor(times / h + 1e-9).astype(np.int64)
    partial = np.maximum(times - points * h, 0.0)
    partial_coefs = grid.coefficients((points % n) * h, partial)

    # whole sample-free periods between one sample's grid point and the next
    starts = -(-np.concatenate(([0], points[:-1])) // n) * n
    skips = np.maximum(points - starts, 0) // n
    # stepping a period costs n m matrix-vector products; building the period
    # propagator costs n (s + r - 1) matrix products (Paterson-Stockmeyer + 1)
    use_period = int(skips.sum()) * m > (sum(_ps_shape(m)) - 1) * hamiltonian.dim
    if use_period:
        u_period = grid.period_propagator()
    else:
        skips[:] = 0

    psi = psi0.astype(complex)
    j = 0
    pops, norms = [], []
    for k, target in enumerate(points.tolist()):
        if skips[k]:
            psi = grid.advance(psi, j, int(starts[k]) - j)
            for _ in range(skips[k]):
                psi = u_period @ psi
            j = int(starts[k] + skips[k] * n)
        psi = grid.advance(psi, j, target - j)
        j = target
        out = _taylor_apply(grid.omega(partial_coefs[k]), psi, m)  # exact copy if on grid
        nrm = np.linalg.norm(out)
        if abs(nrm - 1.0) > NORM_ABORT:
            raise IntegrationError(
                f"norm drifted to {nrm:.6f} at t = {times[k]:.3f}; dt = {h} is too large"
            )
        pops.append(_populations(space, out))
        norms.append(nrm)
    norms = np.array(norms)
    params.update({"integrator": "magnus4", "dt": h, "dt_requested": dt})
    diagnostics = {
        "magnus_steps": int(points[-1] - skips.sum() * n + (partial > 0).sum()
                            + use_period * n),
        "taylor_degree": m,
        "period_propagator": use_period,
        "period_powers": int(skips.sum()),
        "max_norm_drift": float(np.abs(norms - 1.0).max()),
    }
    return EvolutionResult(times=times, populations=np.array(pops), norms=norms,
                           model=label, parameters=params, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# preset experiments


@dataclass
class LinkScanResult:
    """Transferred population at the full-transfer time, per phase step."""

    delta_phi: np.ndarray
    t_star: np.ndarray
    n2_effective: np.ndarray
    n2_exact: np.ndarray
    defined: np.ndarray

    def to_csv(self) -> str:
        return csv_text(("delta_phi", "t_star", "n2_effective", "n2_exact", "defined"),
                        zip(self.delta_phi, self.t_star, self.n2_effective, self.n2_exact,
                            self.defined.astype(int).tolist()))

    def to_json(self) -> str:
        """JSON with null where a point is undefined (coupling below threshold)."""
        def masked(values):
            return [v if d else None for v, d in zip(values.tolist(), self.defined)]

        return json_text({
            "delta_phi": self.delta_phi.tolist(),
            "t_star": masked(self.t_star),
            "n2_effective": masked(self.n2_effective),
            "n2_exact": masked(self.n2_exact),
            "defined": self.defined.tolist(),
        })


def link_point(delta_phi: float, *, gradient=0.05, coulomb_beta=0.002,
               rabi_frequency=0.75, beat_frequency=0.05, lamb_dicke=0.2,
               resonance_order=1, n_max=4, direction="z", base_frequency=1.0,
               time_step_divisor=40):
    """(t_star, n2_effective, n2_exact, defined) for one phase step."""
    array = build_array("link", (2,), base_frequency=base_frequency,
                        gradient=gradient, coulomb_beta=coulomb_beta)
    drive = laser_drive(rabi_frequency, beat_frequency, lamb_dicke,
                        resonance_order, phase_x=delta_phi)
    space = build_fock_space(2, n_max)
    eff = effective_coupling_matrix(array, drive, direction)
    j_eff = abs(eff.matrix[1, 0])
    if j_eff < COUPLING_THRESHOLD:
        return math.nan, math.nan, math.nan, False
    t_star = math.pi / (2.0 * j_eff)
    psi0 = single_phonon_state(space, 0)

    h_eff = effective_hamiltonian(eff, space)
    res_eff = evolve(h_eff, psi0, t_star, space=space, samples=2, label="effective")
    n2_eff = float(res_eff.populations[-1, 1])

    bare = bare_coupling_matrix(array, direction)
    exact = driven_model(array, drive, bare, space)
    res_exact = evolve(exact, psi0, t_star, default_time_step(exact, time_step_divisor),
                       space=space, samples=2, label="laser_exact")
    n2_exact = float(res_exact.populations[-1, 1])
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


def ring_bond_factor(drive: DriveSpec) -> float:
    """|F_r(eta_d, pi)| of every ring bond; ConfigurationError when it vanishes."""
    f_mag = abs(dressed_factor(drive.resonance_order, drive.eta_d, math.pi))
    if f_mag == 0:
        raise ConfigurationError(f"the dressed ring bond vanishes: |F_{drive.resonance_order}"
                                 f"(eta_d, pi)| = 0 at eta_d = {drive.eta_d}; the ring needs a "
                                 "nonzero drive")
    return f_mag


def plaquette_experiment(flux: float, *, rabi_frequency: float, n_max: int = 2,
                         gradient=0.05, coulomb_beta=0.002, beat_frequency=0.05,
                         lamb_dicke=0.2, resonance_order=1, direction="z",
                         window: float | None = None, samples: int = 601,
                         time_step_divisor: int = 40, cutoff_range: float = 3.0,
                         base_frequency: float = 1.0):
    """Four-site interference experiment; returns (effective, exact) results.

    The geometry is tuned so every ring bond of the dressed model has the
    same magnitude: d_x = d_y |F_r(eta_d, pi)|^(1/3).  flux selects the
    synthetic plaquette flux through the phase generators (phase_x = pi,
    phase_y = flux); only 0 and pi are supported.  The phonon starts on site 0.
    """
    if not (abs(flux) < 1e-12 or abs(flux - math.pi) < 1e-12):
        raise ConfigurationError("plaquette_experiment supports flux 0 or pi")
    drive_probe = laser_drive(rabi_frequency, beat_frequency, lamb_dicke,
                              resonance_order, phase_x=math.pi, phase_y=flux)
    spacing_y = ring_bond_factor(drive_probe) ** (-1.0 / 3.0)
    array = build_array("plaquette", (2, 2), spacing_y=spacing_y,
                        base_frequency=base_frequency, gradient=gradient,
                        coulomb_beta=coulomb_beta)
    space = build_fock_space(4, n_max)
    psi0 = single_phonon_state(space, 0)

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
        "drive_strength": drive_probe.eta_d,
        "gradient": gradient,
        "coulomb_beta": coulomb_beta,
        "n_max": n_max,
        "window": window,
        "spacing_y": spacing_y,
        "bond_magnitude": j_bond,
    }
    res_eff = evolve(effective_hamiltonian(eff, space), psi0, window, space=space,
                     samples=samples, label="effective", parameters=common)
    bare = bare_coupling_matrix(array, direction, cutoff_range)
    exact = driven_model(array, drive_probe, bare, space)
    res_exact = evolve(exact, psi0, window, default_time_step(exact, time_step_divisor),
                       space=space, samples=samples, label="laser_exact", parameters=common)
    return res_eff, res_exact
