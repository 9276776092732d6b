"""Driven Hamiltonians and unitary time evolution on the truncated Fock space.

`driven_model` builds the exact lab-frame Hamiltonian, trap diagonal plus
hopping plus the periodic drive, for both drive modes of `DriveSpec`: the
direct cosine modulation and the two-photon laser beat.
The integrator is a fixed-step 4th-order Magnus scheme (two Gauss-Legendre
nodes per step) on a grid that divides the drive period into equal steps.
Each step generator is five real coefficients times a table of fixed
matrices, and its exponential is a Taylor polynomial whose degree is fixed
before stepping from a bound on the generator's 1-norm, so that the
truncation stays below 2^-53.  One loop steps every state: a block of
columns under the Horner form of that polynomial, one column per period
that holds a sample.  Floquet sampling uses psi(qT + tau) = U(tau) U_T^q
psi0: it forms the one-period propagator U_T once, powers psi0 by it to
every sampled period and steps those columns through one period together.
When the samples fall on at most five distinct grid offsets, U_T keeps its
partial products there instead, and each column reaches its sample in one
matrix-vector product.  U_T takes its step exponentials by
Paterson-Stockmeyer, a cache-sized stack of step generators at a time.
Plain stepping, which a flop rule picks when U_T does not pay, is one
column stepped through the whole window.  Each step is unitary up to
roundoff, so norm is conserved over arbitrarily long windows.  Evolutions
are deterministic and single-threaded; independent parameter points of a
scan may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._text import csv_text, json_text
from .couplings import DEFAULT_CUTOFF_RANGE, CouplingMatrix, dressed_factor, \
    bare_coupling_matrix, effective_coupling_matrix
from .fock import DENSE_OPERATOR_LIMIT, FockSpace, add_local, build_fock_space, \
    displacement_exponential, lowering, single_phonon_state
from .model import ConfigurationError, DriveSpec, TrapArray, build_array, cosine_drive, \
    laser_drive

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
    a, d = lowering(space.n_max), space.local_dim
    hop = np.multiply.outer(a.T, a).swapaxes(1, 2).reshape(d * d, d * d)  # kron(a^dag, a)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for i, j in zip(*np.nonzero(matrix.matrix)):  # i != j: CouplingMatrix has a zero diagonal
        add_local(h, space, (i, j), matrix.matrix[i, j] * hop)
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
    else:
        thetas = drive.optical_phases(array)
        local = displacement_exponential(space.n_max, drive.lamb_dicke)
        v = np.zeros((space.dim, space.dim), dtype=complex)
        for i in range(space.n_sites):
            add_local(v, space, (i,), np.exp(1j * thetas[i]) * local)
        v *= drive.rabi_frequency / 2.0
    modulation = drive.drive_frequency if drive.mode == "cosine" else -drive.drive_frequency
    return DrivenHamiltonian(static=static, drive=v, modulation=modulation,
                             frequency_scale=frequency_scale(array, drive, bare))


def frequency_scale(array: TrapArray, drive: DriveSpec, bare: CouplingMatrix) -> float:
    """Largest frequency scale of `driven_model`: the top trap frequency, the
    drive amplitude, the Rabi frequency and the largest row sum of |J|."""
    rabi = drive.rabi_frequency if drive.mode == "laser" else 0.0
    hop = float(np.abs(bare.matrix).sum(axis=1).max())
    return float(array.frequencies().max()) + drive.eta_d * drive.drive_frequency + rabi + hop


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
    """sum_{k<=m} omega^k / k! for every matrix of the stack `omega` (K, d, d)
    by Paterson-Stockmeyer: s - 1 stacked products for the powers up to
    omega^s, then r - 1 for Horner in omega^s over the blocks."""
    s, r = _ps_shape(m)
    powers = [None, omega]
    while len(powers) <= s:
        powers.append(powers[-1] @ omega)
    out = np.zeros(omega.shape, dtype=omega.dtype)  # C order: the reshape below is a view
    for j in range(r - 1, -1, -1):
        if j < r - 1:
            out = out @ powers[s]
        for i in range(1, min(s, m + 1 - j * s)):
            out += powers[i] * (1.0 / math.factorial(j * s + i))
        out.reshape(len(omega), -1)[:, ::omega.shape[-1] + 1] += 1.0 / math.factorial(j * s)
    return out


#: Bytes of one stack of step generators in `_PeriodGrid.period_propagator`,
#: which holds K = `_stack_size(d)` complex d x d generators.  A stack spreads
#: numpy's per-call overhead on small matrices over K steps, until the stack
#: and its powers outgrow the cache.  One U_T in seconds, best of 5, on one
#: core of a 2-vCPU Xeon (numpy 2.4, OpenBLAS 0.3.31, 1 thread):
#:   K          1      2      4      8      13     16     32     64   unstacked
#:   d = 25   0.227  0.159  0.122  0.112  0.109  0.110  0.113  0.124   0.166
#:   d = 81   1.07   1.00   1.26   1.29   1.43   1.43   1.67   1.63    1.09
#: (d = 25 is the link's 1465 steps, d = 81 the preset ring's 1050; repeat
#: runs of K = 1-3 at d = 81 spread over 0.81-1.07 s.)  128 KiB gives K = 13
#: at d = 25 and K = 1 from d = 81 on, so the preset ring and criterion 8's
#: d = 625 form one generator at a time.
_STACK_BYTES = 128 * 1024


def _stack_size(dim: int) -> int:
    """Step generators per stack at state dimension `dim`."""
    return max(1, _STACK_BYTES // (16 * dim * dim))


def _period_steps(modulation: float, dt: float) -> tuple[int, float]:
    """(n, h): n steps of size h = T / n <= dt fill the period T = 2 pi / |modulation|."""
    period = 2.0 * math.pi / abs(modulation)
    n = max(1, math.ceil(period / dt - 1e-12))
    return n, period / n


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
        self.n, self.h = _period_steps(model.modulation, dt)
        h = self.h
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

    def period_propagator(self, offsets=frozenset()) -> tuple[np.ndarray, dict]:
        """U_T = E_{n-1} ... E_1 E_0, E_k the Taylor exponential of step k's
        generator, and the partial product P_o = E_{o-1} ... E_0 kept at each
        grid offset o in `offsets` (0 <= o < n; P_0 is the identity).

        The generators are formed, one row product each, into stacks of at
        most _STACK_BYTES and exponentiated a stack at a time; the product
        u = E_k u stays sequential, so U_T and the kept P_o do not depend on
        the stack size.  Each product is a new matrix, so keeping P_o copies
        nothing.
        """
        d = self.table.shape[1]
        size = _stack_size(d)
        flat = np.empty((size, self._flat.shape[1]))
        kept = {}
        u = np.eye(d, dtype=complex)
        for k in range(0, self.n, size):
            rows = self.coefs[k:k + size]
            for row, out in zip(rows, flat):
                np.matmul(row, self._flat, out=out)
            for o, step in enumerate(_taylor_matrix(
                    flat[:len(rows)].view(complex).reshape(-1, d, d), self.degree), k):
                if o in offsets:
                    kept[o] = u
                u = step @ u
        return u, kept


#: Throughput of a complex d x d matrix product over that of a d x d
#: matrix-vector product, per multiply-add, through numpy's `@`.  Measured
#: on one core of a 2-vCPU Xeon (numpy 2.4, OpenBLAS 0.3.31, 1 thread), best
#: of 5 in each of three runs: at d = 81 a matrix-vector product took
#: 4.4-5.0 us and a matrix product 95-109 us, ratio 3.7-3.8; at d = 25 the
#: ratio was 6.7-8.1 (1.7-2.3 us against 6.2-8.2 us) and at d = 625 4.6-5.3
#: (296-352 us against 36-42 ms).  Taken at the preset ring's d = 81, rounded.
_MATMUL_SPEEDUP = 4.0

#: Columns per state dimension in one Floquet-sampling block, so that the
#: block never outgrows the five-matrix generator table.  Up to this many
#: distinct sampled grid offsets, U_T keeps its partial products there
#: instead: as many d x d matrices as the table.
_BLOCK_WIDTH = 5


def _period_ends(periods: np.ndarray) -> np.ndarray:
    """Index of the last sample in each sampled period (`periods` ascending)."""
    return np.append(np.flatnonzero(np.diff(periods)), len(periods) - 1)


def _kept_offsets(offsets: np.ndarray) -> set[int]:
    """The distinct sampled grid offsets if U_T keeps its partial products
    there, at most _BLOCK_WIDTH of them; none if the block steps to them.

    A Python set: numpy's first integer sort would map about 1 MB more of
    its sorting code into the process."""
    distinct = set(offsets.tolist())
    return distinct if len(distinct) <= _BLOCK_WIDTH else set()


def _floquet_pays(dim: int, n: int, degree: int, points: np.ndarray) -> bool:
    """Whether Floquet sampling to the ascending grid `points` (n steps per
    period) costs fewer weighted multiply-adds than plain stepping.

    Plain stepping takes points[-1] steps of `degree` matrix-vector
    products.  Floquet sampling builds U_T (n steps of s + r - 1 matrix
    products, Paterson-Stockmeyer and the accumulation) and applies it once
    per period up to the last sample.  When U_T keeps its partial products
    at the sampled offsets (`_kept_offsets`), each sample then costs one
    matrix-vector product.  Otherwise it steps blocks of at most
    _BLOCK_WIDTH d columns, one column per sampled period, to each column's
    last sample; a block step streams the generator once, a matrix-vector
    product, and pays the columns after the first at matrix-product speed.
    The partial steps of the samples cost the same on both paths and are
    left out.  The U_T term still prices the unstacked build, one generator
    at a time; at d = 25 stacks make that build about a third cheaper (see
    _STACK_BYTES), and that term is left as it was so that no preset
    changes path.
    """
    periods, offsets = np.divmod(points, n)
    s, r = _ps_shape(degree)
    floquet = n * (s + r - 1) * dim / _MATMUL_SPEEDUP + int(periods[-1])
    if _kept_offsets(offsets):
        floquet += len(points)
    else:
        last = offsets[_period_ends(periods)]
        width = _BLOCK_WIDTH * dim
        steps = sum(int(last[i:i + width].max()) for i in range(0, len(last), width))
        floquet += degree * (steps + (int(last.sum()) - steps) / _MATMUL_SPEEDUP)
    return bool(floquet < degree * int(points[-1]))


def default_time_step(scale: float, time_step_divisor: int = 40) -> float:
    """Step rule: the shortest period 2 pi / `scale` in H(tau) over `time_step_divisor`."""
    return 2.0 * math.pi / (time_step_divisor * scale)


def check_exact_grid(cfg, array: TrapArray, drive: DriveSpec, window: float, samples: int,
                     cutoff_range: float = DEFAULT_CUTOFF_RANGE) -> None:
    """ConfigurationError when `evolve` of the exact model of `cfg` would put more than the
    dense-operator budget, 16 DENSE_OPERATOR_LIMIT^2 bytes, in its table of steps per drive
    period or of samples (five float64 a row), or index its grid beyond int64."""
    scale = frequency_scale(array, drive, bare_coupling_matrix(array, cfg["direction"],
                                                               cutoff_range))
    divisor, rows = cfg["numerics.time_step_divisor"], 16 * DENSE_OPERATOR_LIMIT ** 2 // 40
    try:
        n, h = _period_steps(drive.drive_frequency, default_time_step(scale, divisor))
    except (OverflowError, ZeroDivisionError):  # a step below the float range
        n, h = math.inf, math.nan
    if max(n, samples) > rows or not window / h < 2.0 ** 63:
        raise ConfigurationError(
            f"the exact drive takes {n:.3g} Magnus steps per drive period (frequency scale "
            f"{scale:.3g}, numerics.time_step_divisor = {divisor}), {samples} samples and a "
            f"grid index of {window / h:.3g} at the window's end: memory holds {rows} steps "
            "or samples, and int64 indices stay below 9.2e18")


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
    `default_time_step(hamiltonian.frequency_scale)`; each sample is one
    partial step from the grid point at or below it.  One block loop steps
    the states to those grid points.  When `_floquet_pays`, it builds the one-period
    propagator U_T, powers psi0 by it to every period that holds a sample,
    and steps those states through one period as the columns of one block;
    otherwise plain stepping runs the same loop with one column through the
    whole window.  With at most _BLOCK_WIDTH distinct offsets o of the
    samples within their periods, U_T keeps its partial products P_o, and a
    column reaches offset o as P_o times its state instead of by stepping;
    a link point, sampled at 0 and t*, takes this path.  Aborts if the norm
    drifts beyond 1e-4 or is not finite, naming the earliest such sample.
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
        dt = default_time_step(hamiltonian.frequency_scale)
    grid = _PeriodGrid(hamiltonian, dt)
    h, n, m = grid.h, grid.n, grid.degree

    # grid point at or below each sample, and the partial step beyond it
    points = np.floor(times / h + 1e-9).astype(np.int64)
    partial = np.maximum(times - points * h, 0.0)
    partial_coefs = grid.coefficients((points % n) * h, partial)

    occ = space.occupation_table()
    top = (occ == space.n_max).any(axis=0)  # Fock states with some n_i = n_max
    pops = np.empty((samples, space.n_sites))
    norms, leakage = np.empty(samples), np.empty(samples)

    def emit(k, x):
        out = _taylor_apply(grid.omega(partial_coefs[k]), x, m)  # exact copy if on grid
        weights = np.abs(out) ** 2
        pops[k] = occ @ weights
        norms[k] = np.linalg.norm(out)
        leakage[k] = weights[top].sum()

    # plain stepping: the whole window is period 0, and U_T is never applied
    floquet = _floquet_pays(hamiltonian.dim, n, m, points)
    periods, offsets = np.divmod(points, n) if floquet else (np.zeros_like(points), points)
    u_period, kept = grid.period_propagator(_kept_offsets(offsets)) if floquet else (None, {})
    ends = _period_ends(periods)
    width = _BLOCK_WIDTH * hamiltonian.dim
    phi, power, first, block_steps = psi0.astype(complex), 0, 0, 0
    for pass_ends in (ends[i:i + width] for i in range(0, len(ends), width)):
        # Pass 1: U_T^q psi0 for each sampled period q, in columns ordered
        # by their last sample's offset, latest first
        last = offsets[pass_ends]
        order = np.argsort(-last, kind="stable")
        column = np.argsort(order)  # block column of each sampled period
        block = np.empty((hamiltonian.dim, len(order)), dtype=complex)
        for c, q in zip(column, periods[pass_ends]):
            for _ in range(q - power):
                phi = u_period @ phi
            power = q
            block[:, c] = phi
        last = last[order]
        # Pass 2: bring the block to each offset, emitting in offset order:
        # a kept P_o takes a column there in one product; otherwise the block
        # steps through the period, and a column leaves once its last sample is out
        ks = np.arange(first, pass_ends[-1] + 1)
        sample_column = column[np.searchsorted(pass_ends, ks)]
        j = 0
        for i in np.argsort(offsets[ks], kind="stable"):
            o = offsets[ks[i]]
            if o > j and not kept:
                block = grid.advance(block[:, :np.count_nonzero(last >= o)], j, o - j)
                block_steps += o - j
                j = o
            x = block[:, sample_column[i]]
            emit(ks[i], kept[o] @ x if kept else x)
        first = pass_ends[-1] + 1
    steps = (n if floquet else 0) + block_steps

    drifted = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_ABORT))  # a nan norm drifts too
    if drifted.size:
        k = drifted[0]
        raise IntegrationError(
            f"norm drifted to {norms[k]:.6f} at t = {times[k]:.3f}; dt = {h} is too large"
        )
    params.update({"integrator": "magnus4", "dt": h, "dt_requested": dt})
    diagnostics = {
        "magnus_steps": int(steps + (partial > 0).sum()),
        "taylor_degree": m,
        "period_propagator": floquet,
        "period_powers": int(power),
        "max_norm_drift": float(np.abs(norms - 1.0).max()),
        "max_top_level_population": float(leakage.max()),
    }
    return EvolutionResult(times=times, populations=pops, norms=norms,
                           model=label, parameters=params, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# preset experiments


def config_drive(cfg, mode: str, phase_x: float, phase_y: float) -> DriveSpec:
    """The `mode` drive of the `drive.*` keys of `cfg` (a parsed config or its value dict)."""
    if mode == "cosine":
        return cosine_drive(cfg["drive.beat_frequency"], cfg["drive.strength"],
                            cfg["drive.resonance_order"], phase_x=phase_x, phase_y=phase_y)
    return laser_drive(cfg["drive.rabi_frequency"], cfg["drive.beat_frequency"],
                       cfg["drive.lamb_dicke"], cfg["drive.resonance_order"],
                       phase_x=phase_x, phase_y=phase_y)


def _effective_and_exact(cfg, array: TrapArray, drive: DriveSpec, eff: CouplingMatrix,
                         t_final: float, samples: int, cutoff_range: float,
                         parameters: dict | None):
    """Evolve one phonon from site 0 under `eff` and under the exact model of `drive`."""
    space = build_fock_space(array.n_sites, cfg["numerics.n_max"])
    psi0 = single_phonon_state(space, 0)
    res_eff = evolve(effective_hamiltonian(eff, space), psi0, t_final, space=space,
                     samples=samples, label="effective", parameters=parameters)
    bare = bare_coupling_matrix(array, cfg["direction"], cutoff_range)
    exact = driven_model(array, drive, bare, space)
    res_exact = evolve(exact, psi0, t_final,
                       default_time_step(exact.frequency_scale,
                                         cfg["numerics.time_step_divisor"]),
                       space=space, samples=samples, label="laser_exact", parameters=parameters)
    return res_eff, res_exact


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


def link_array(cfg) -> TrapArray:
    """The two-site array of the link config `cfg`."""
    return build_array("link", (2,), base_frequency=cfg["array.base_frequency"],
                       gradient=cfg["array.gradient"], coulomb_beta=cfg["array.beta"])


def link_point(cfg, delta_phi: float):
    """(t_star, n2_effective, n2_exact, defined) for one phase step of the link config `cfg`."""
    array = link_array(cfg)
    drive = config_drive(cfg, "laser", delta_phi, 0.0)
    eff = effective_coupling_matrix(array, drive, cfg["direction"])
    j_eff = abs(eff.matrix[1, 0])
    if j_eff < COUPLING_THRESHOLD:
        return math.nan, math.nan, math.nan, False
    t_star = math.pi / (2.0 * j_eff)
    res_eff, res_exact = _effective_and_exact(cfg, array, drive, eff, t_star, 2,
                                              DEFAULT_CUTOFF_RANGE, None)
    return t_star, float(res_eff.populations[-1, 1]), float(res_exact.populations[-1, 1]), True


def link_transfer_scan(cfg, *, map_fn=map) -> LinkScanResult:
    """Effective and laser-exact transfer curves over `scan.points` phase steps in [0, 2 pi].

    Each point runs to its own full-transfer time pi / (2 |J|); points whose
    dressed coupling falls below the threshold are marked undefined instead
    of integrating to an unbounded window.  `map_fn` maps link_point over the
    grid; the points are independent, so a process-pool map may run them.
    """
    grid = np.linspace(0.0, 2.0 * math.pi, cfg["scan.points"])
    rows = list(map_fn(partial(link_point, cfg), grid))
    t_star, n2_eff, n2_exact, defined = (np.array(x) for x in zip(*rows))
    return LinkScanResult(delta_phi=grid, t_star=t_star, n2_effective=n2_eff,
                          n2_exact=n2_exact, defined=defined.astype(bool))


def ring_couplings(cfg):
    """(drive, array, effective couplings, window) of the ring config `cfg`.

    The geometry is tuned so every ring bond of the dressed model has the
    same magnitude: d_x = d_y |F_r(eta_d, pi)|^(1/3).  `plaquette.flux`
    selects the synthetic plaquette flux through the phase steps
    (phase_x = pi, phase_y = flux).  The automatic window is one full
    ring-transfer cycle, pi / |J|.  ConfigurationError when the bond
    vanishes, when it is below COUPLING_THRESHOLD on the automatic window,
    which would then be too long to integrate, or by `check_exact_grid`.
    """
    drive = config_drive(cfg, "laser", math.pi, cfg["plaquette.flux"])
    f_mag = abs(dressed_factor(drive.resonance_order, drive.eta_d, math.pi))
    if f_mag == 0:
        raise ConfigurationError(f"the dressed ring bond vanishes: |F_{drive.resonance_order}"
                                 f"(eta_d, pi)| = 0 at eta_d = {drive.eta_d}; the ring needs a "
                                 "nonzero drive")
    array = build_array("plaquette", (2, 2), spacing_y=f_mag ** (-1.0 / 3.0),
                        base_frequency=cfg["array.base_frequency"],
                        gradient=cfg["array.gradient"], coulomb_beta=cfg["array.beta"])
    eff = effective_coupling_matrix(array, drive, cfg["direction"], cfg["numerics.cutoff_range"],
                                    reference_frequencies=True, diagonal_bonds=False)
    window = cfg["numerics.window"]
    if window is None:
        j_bond = abs(eff.matrix[1, 0])
        if j_bond < COUPLING_THRESHOLD:
            raise ConfigurationError(
                f"the dressed ring bond |J| = {j_bond:.3g} is below {COUPLING_THRESHOLD}, so "
                "the automatic window pi / |J| is too long to integrate; set numerics.window "
                "or strengthen the drive")
        window = math.pi / j_bond
    check_exact_grid(cfg, array, drive, window, cfg["numerics.samples"],
                     cfg["numerics.cutoff_range"])
    return drive, array, eff, window


def plaquette_experiment(cfg):
    """Four-site interference of the ring config `cfg`; returns (effective, exact) results.

    The ring is that of `ring_couplings`; the phonon starts on site 0.
    """
    drive, array, eff, window = ring_couplings(cfg)
    common = {
        "flux": cfg["plaquette.flux"],
        "rabi_frequency": cfg["drive.rabi_frequency"],
        "beat_frequency": cfg["drive.beat_frequency"],
        "lamb_dicke": cfg["drive.lamb_dicke"],
        "drive_strength": drive.eta_d,
        "gradient": cfg["array.gradient"],
        "coulomb_beta": cfg["array.beta"],
        "n_max": cfg["numerics.n_max"],
        "window": window,
        "spacing_y": array.spacing_y,
        "bond_magnitude": abs(eff.matrix[1, 0]),
    }
    return _effective_and_exact(cfg, array, drive, eff, window, cfg["numerics.samples"],
                                cfg["numerics.cutoff_range"], common)
