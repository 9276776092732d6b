"""Driven Hamiltonians and unitary time evolution on a truncated Fock space.

`driven_model` builds the exact lab-frame Hamiltonian, trap diagonal plus
hopping plus the periodic drive, for both drive modes of `DriveSpec`: the
direct cosine modulation and the two-photon laser beat.
The integrator is a fixed-step 4th-order Magnus scheme (two Gauss-Legendre
nodes per step) on a grid that divides the drive period into equal steps.
Each step generator is five real coefficients times a table of fixed
matrices, and its exponential is a Taylor polynomial whose degree is fixed
before stepping from a bound on the generator's 1-norm, so that the
truncation stays below 2^-53.  One loop steps every state, a block of
columns, one column per period that holds a sample.  Floquet sampling uses
psi(qT + tau) = U(tau) U_T^q psi0: it forms the one-period propagator U_T
once, powers psi0 by it to every sampled period and steps those columns
through one period together.  When the samples fall on at most five
distinct grid offsets, U_T keeps its partial products there instead, and
each column reaches its sample in one matrix-vector product.  U_T needs
only a few step exponentials: the exponential of a full step is a smooth
periodic function of the drive phase, so U_T takes it by Paterson-Stockmeyer
at 2M + 1 equispaced phases, transforms those to harmonics, and sums each
step's exponential E_k from them, a cache-sized stack per product, with M
fixed before stepping from a norm bound so that the dropped harmonics stay
below 2^-53.  U_T multiplies each stack of E_k pairwise, one stacked product
per level, before it takes the stack's product in.  The block crosses the
period by the same E_k, one product per step.  The Hamiltonian is real up
to its drive phases, so the Fock parity Pi and complex conjugation map the
drive with phases theta to the one with -theta, and the symmetric Magnus
grid keeps this exactly: E_{n-1-k} of one is Pi E_k^T Pi of the other.  A
drive whose phases are all 0 or pi is its own reverse, and U_T forms and
multiplies only the first half period of E_k.  Plain stepping, which a flop
rule picks when U_T does not pay, is one column stepped through the whole
window under the Horner form of the Taylor polynomial.  Samples may also lie
before t = 0, reached by U_T^dag or by stepping back by -Omega; the link scan
runs one exact drive per pair of mirrored phase steps delta and 2 pi - delta
this way.  Each sample's partial step beyond its grid point is that Horner
form too, applied to a queue of sampled states a cache-sized stack at a time.
Each step is unitary up to roundoff, so norm is conserved over arbitrarily
long windows.  Evolutions are deterministic and single-threaded; independent
parameter points of a scan may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._text import csv_text, json_text
from .couplings import DEFAULT_CUTOFF_RANGE, CouplingMatrix, dressed_factor, \
    bare_coupling_matrix, effective_coupling_matrix
from .fock import DENSE_BYTE_BUDGET, FockSpace, add_local, build_fock_space, \
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

#: A drive V counts as normal when ||[V, V^dag]||_1 <= NORMAL_TOL ||V||_1 s,
#: s = max(||Hs||_1, ||V||_1) the Hamiltonian's scale: the dropped Magnus term
#: [V, V^dag] is measured against the kept commutators [Hs, V].  Both drive
#: models give a normal V up to the roundoff of its site terms, which may
#: cancel to a V far smaller than they are (laser phases 0, pi, pi, 0).
NORMAL_TOL = 1e-12

#: A drive counts as its own time reverse when ||Pi conj(M) Pi - M||_1 <=
#: REVERSAL_TOL s for M = Hs and V, Pi the Fock-parity diagonal and s the
#: scale of NORMAL_TOL: a few roundoffs of the unit phases exp(i theta) and of
#: the displacement exponentials.  Measured over s: at most 1.6e-16 on the
#: preset rings (n_max = 2 and 4) and the link at phase steps pi and 2 pi,
#: against 0.046 and more on the link's other steps.
REVERSAL_TOL = 8 * 2.0 ** -52


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
        scale = max(np.abs(self.static).sum(axis=0).max(), norm)
        if np.abs(v @ vd - vd @ v).sum(axis=0).max() > NORMAL_TOL * norm * scale:
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
    """sum_{k<=m} omega^k x / k! by Horner's rule (m products with x), for one
    matrix omega or a stack (K, d, d) of them, each applied to its x (K, d, 1)."""
    y = x
    for k in range(m, 0, -1):
        y = omega @ y
        y *= 1.0 / k
        y += x
    return y


def _chain(stack: np.ndarray) -> np.ndarray:
    """stack[K-1] ... stack[1] stack[0] for a stack (K, d, d), K >= 1, reduced
    pairwise: one stacked product per level, an odd last matrix folded onto
    the product before it.  The levels take turns between a scratch of K // 2
    matrices and `stack` itself, which this overwrites; a stack of one is its
    own result, a view of `stack`."""
    src, dst = stack, np.empty((len(stack) // 2,) + stack.shape[1:], dtype=stack.dtype)
    while len(src) > 1:
        pairs = np.matmul(src[1::2], src[:len(src) - 1:2], out=dst[:len(src) // 2])
        if len(src) % 2:
            pairs[-1] = src[-1] @ pairs[-1]
        src, dst = pairs, src
    return src[0]


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


#: Bytes of one stack of complex d x d matrices in
#: `_PeriodGrid.period_propagator`, which exponentiates its nodes
#: K = `_stack_size(d)` at a time.  A stack spreads numpy's per-call
#: overhead on small matrices over K steps, until the stack and its powers
#: outgrow the cache.  One U_T, best of 5, on one core of a 2-vCPU Xeon
#: (numpy 2.4, OpenBLAS 0.3.31, 1 thread), two runs: at d = 25 (the link)
#: 0.036-0.050 s at K = 1 and 0.020-0.030 s at K = 8 to 64; at d = 81 (the
#: preset ring) K = 1 to 64 all took 0.16-0.29 s.  128 KiB gives K = 13 at
#: d = 25 and K = 1 from d = 81 on.
_STACK_BYTES = 128 * 1024

#: Bytes of one stack of step exponentials in `_PeriodGrid.exponential_stacks`,
#: which forms K = `_stack_size(d, _FORMATION_BYTES)` of them by one product
#: of K phase rows with the N x d^2 harmonic table, into one buffer of
#: K 16 d^2 bytes that stays resident while the generator runs.  A stack of
#: one is a matrix-vector product that streams the whole table for each
#: step; a stack of K streams it once per K steps.  One pass over a period,
#: per step, best of 5, phase rows included, on one core of a 2-vCPU Xeon
#: (numpy 2.4, OpenBLAS 0.3.31, 1 thread), three runs: at d = 81 (the preset
#: ring, N = 15) 80-107 us at K = 1, 35-58 at K = 8-9, 37-44 at 16 and 34-37
#: at 32; at d = 25 (the link, N = 17) 21-25 us at K = 1, 5.3-7.7 at K = 13
#: and 4.7-5.0 at K = 64.  1 MiB gives K = 104 at d = 25, 9 at d = 81 and 1
#: from d = 257 on (criterion 8's d = 625), a buffer below the d = 81 table
#: itself (1.6 MB).  The node exponentials keep _STACK_BYTES: their stack
#: also holds its Paterson-Stockmeyer powers, 5.7 MB for K = 9 at d = 81.
_FORMATION_BYTES = 1024 * 1024

#: Bytes of one stack of partial-step generators in `evolve`'s sample
#: read-out, which forms K = `_stack_size(d, _READOUT_BYTES)` of them by one
#: product and applies them to the K queued states by one stacked Horner.
#: One sample at a time is 14 one-column products at degree 14, each a numpy
#: call.  The read-out of 601 random states at d = 81 (the preset ring), median
#: of 15 on one core of a 2-vCPU Xeon (numpy 2.4, OpenBLAS 0.3.31, 1 thread):
#: 69 ms one sample at a time, 79 at K = 1, 39 at K = 4, 35 at K = 6 to 9,
#: 37 at K = 12, and 55-67 at K = 16 to 32, whose stacks outgrow the cache.
#: 512 KiB gives K = 4 at d = 81, 52 at d = 25 and 1 from d = 129 on: the
#: ring's tracemalloc peak stays that of U_T's build, which K = 9 would
#: raise by 0.4 MiB.
_READOUT_BYTES = 512 * 1024


def _stack_size(dim: int, budget: int = _STACK_BYTES) -> int:
    """Matrices per stack of `budget` bytes at state dimension `dim`."""
    return max(1, budget // (16 * dim * dim))


def _node_count(a: float, b: float, c: float, n: int, degree: int) -> int:
    """Interpolation nodes N = 2M + 1 in the drive phase for the n step
    exponentials of one period, or n when 2M + 1 >= n (the grid points).

    A step generator is A + z B + C / z with z = exp(i w t) and 1-norms a,
    b, c of A, B, C.  Majorising its exponential term by term, the harmonic
    z^m has norm at most e^(a + bc) b^m / m! (c^|m| / |m|! for m < 0), and
    trigonometric interpolation on N nodes errs by at most twice the
    harmonics beyond M.  M is the smallest with
    2 e^(a + bc) sum_{m>M} (b^m + c^m) / m! <= 2^-53, the tails bounded as in
    `_taylor_degree`; at most `degree`, since the Taylor polynomial of that
    degree holds no higher harmonic.
    """
    terms = [1.0, 1.0]  # x^(M+1) / (M+1)! for x = b, c
    for m in range(degree):
        if 2 * m + 1 >= n:
            return n
        terms = [t * x / (m + 1) for t, x in zip(terms, (b, c))]
        tail = sum(t / (1.0 - x / (m + 2)) if x < m + 2 else math.inf
                   for t, x in zip(terms, (b, c)))
        if tail == 0 or math.log(2.0 * tail) + a + b * c <= math.log(_TAYLOR_TOL):
            return 2 * m + 1
    return min(2 * degree + 1, n)


def period_steps(modulation: float, dt: float) -> tuple[int, float]:
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

    def __init__(self, model: DrivenHamiltonian, dt: float, parity: np.ndarray | None = None):
        self.n, self.h = period_steps(model.modulation, dt)
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
        # The row of a full step from t holds Re and Im of z mu and z delta,
        # z = exp(i w t) and mu, delta their values at t = 0, so its generator
        # is A + z B + C / z: A = h table[0], and B and C weigh the table by w
        # and conj(w)
        f1, f2 = np.exp(1j * self.mod * h * np.array(_GL_NODES))
        mu, delta = 0.5 * h * (f1 + f2), _GL_COMM * h * h * (f2 - f1)
        w = np.array([0.0, mu, -1j * mu, delta, -1j * delta]) / 2.0
        b, c = (np.abs(np.tensordot(x, tab, 1)).sum(axis=0).max() for x in (w, w.conj()))
        self.nodes = _node_count(h * n0, b, c, self.n, self.degree)
        # Pi K, Pi = diag(`parity`) and K complex conjugation, maps the drive
        # with phases theta to the one with -theta: Hs is real and commutes with
        # Pi, and Pi conj(D_i) Pi = D_i.  A drive that it maps to itself is reversed.
        self.reversed, self.flip = False, None
        if parity is not None:
            self.flip = np.outer(parity, parity)  # Pi M Pi = flip * M
            scale = max(np.abs(mat).sum(axis=0).max() for mat in (model.static, v))
            self.reversed = all(np.abs(mat.conj() * self.flip - mat).sum(axis=0).max()
                                <= REVERSAL_TOL * scale for mat in (model.static, v))
        self.formed = self.n - self.n // 2 if self.reversed else self.n  # E_k that U_T forms

    def coefficients(self, t, h) -> np.ndarray:
        """Table coefficients, one row per step of size h starting at t."""
        t, h = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(h, dtype=float))
        f1 = np.exp(1j * self.mod * (t + _GL_NODES[0] * h))
        f2 = np.exp(1j * self.mod * (t + _GL_NODES[1] * h))
        fm, df, ch2 = 0.5 * (f1 + f2), f2 - f1, _GL_COMM * h * h
        return np.stack((h, h * fm.real, h * fm.imag, ch2 * df.real, ch2 * df.imag), axis=-1)

    def omega(self, rows: np.ndarray) -> np.ndarray:
        """Step generators of the coefficient rows `rows` (..., 5): (..., d, d)."""
        return (rows @ self._flat).view(complex).reshape(rows.shape[:-1] + self.table.shape[1:])

    def advance(self, x: np.ndarray, j: int, count: int) -> np.ndarray:
        """x moved by `count` grid steps from grid point j, each a Taylor
        polynomial applied by Horner's rule (plain stepping).  A negative count
        steps back, from i to i - 1 by -Omega of the step from i - 1 to i (the
        symmetric Magnus step is its own time reverse; ||-Omega|| = ||Omega||)."""
        step = 1 if count >= 0 else -1
        for i in range(j, j + count, step):
            row = self.coefs[min(i, i + step) % self.n]  # the step between i and i + step
            x = _taylor_apply(self.omega(step * row), x, self.degree)
        return x

    def period_propagator(self, offsets=frozenset()) -> tuple[np.ndarray, dict]:
        """U_T = E_{n-1} ... E_1 E_0, E_k the Taylor exponential of step k's
        generator, and the partial product P_o = E_{o-1} ... E_0 kept at each
        grid offset o in `offsets` (0 <= o < n; P_0 is the identity).

        E(t), the exponential of a full step from t, is periodic and smooth in
        the drive phase.  Its Taylor exponentials at N = `nodes` equispaced
        phases t_j = j T / N, a stack of at most _STACK_BYTES at a time, are
        transformed in place to the harmonics F_m, |m| <= (N - 1) / 2, which
        the grid keeps for `exponential_stacks`; `_node_count` bounds the error
        by 2^-53.  With N = n the nodes are the grid points, and E_k is their
        exponential up to roundoff.  Each stack of E_k that
        `exponential_stacks` forms is cut at the kept offsets within it, and
        each segment is multiplied out pairwise by `_chain` (one stacked
        product per level) and then taken into u = segment u, so that every
        kept offset ends a segment and P_o is the u reached there.  Each u is
        a new matrix, so keeping P_o copies nothing, and no P_o shares memory
        with the formation buffer, which the next stack overwrites.  At
        d = 625 a stack holds one E_k, and u = E_k u is one product a step.

        A reversed drive (`reversed`, checked in the constructor) has
        E_{n-1-k} = Pi E_k^T Pi: the symmetric Magnus step is its own time
        reverse.  Then only E_0 ... E_{c-1}, c = ceil(n / 2), are formed and
        multiplied, and U_T = Pi P_{n//2}^T Pi P_c (for odd n, P_c = E_{n//2}
        P_{n//2}).  A kept offset o > c is P_o = Pi conj(P_{n-o}) Pi U_T, one
        more product, since E_{n-1} ... E_o = Pi P_{n-o}^T Pi is unitary.
        """
        d, n, nodes, half = self.table.shape[1], self.n, self.nodes, self.formed
        size = _stack_size(d)
        self.orders = m = (np.arange(nodes) + nodes // 2) % nodes - nodes // 2  # 0 .. M, -M .. -1
        # the only nodes x d^2 array, kept for `exponential_stacks`
        self.harmonics = harmonics = np.empty((nodes, d * d), dtype=complex)
        rows = self.coefficients(np.arange(nodes) * (n / nodes * self.h), self.h)
        for j in range(0, nodes, size):
            omega = self.omega(rows[j:j + size])
            harmonics[j:j + size] = _taylor_matrix(omega, self.degree).reshape(-1, d * d)
        # F_m = sum_j E_j exp(-2 pi i m j / N) / N in place, a stack of columns at
        # a time: loading numpy.fft raised the ring's peak RSS by 0.15 to 0.6 MB
        dft = np.exp((-2j * math.pi / nodes) * (np.outer(m, np.arange(nodes)) % nodes)) / nodes
        cols = _STACK_BYTES // (16 * nodes)
        for c in range(0, d * d, cols):
            harmonics[:, c:c + cols] = dft @ harmonics[:, c:c + cols]
        cuts = {o if o <= half else n - o for o in offsets}
        if self.reversed:
            cuts.add(n // 2)
        part, cuts = {}, sorted(cuts)  # a Python sort, as in `_kept_offsets`
        u = np.eye(d, dtype=complex)
        for k, stack in self.exponential_stacks(0, half):
            start = 0  # the stack's segments end at the kept offsets within it
            for cut in [o - k for o in cuts if k <= o < k + len(stack)]:
                if cut > start:
                    u = _chain(stack[start:cut]) @ u
                part[k + cut], start = u, cut
            if start < len(stack):
                u = _chain(stack[start:]) @ u
        part[half] = u
        if self.reversed:
            u = (self.flip * part[n // 2].T) @ u
        return u, {o: part[o] if o <= half else (self.flip * part[n - o].conj()) @ u
                   for o in offsets}

    def exponential_stacks(self, j: int, o: int):
        """(k, stack): the step exponentials E_k ... E_{k+K-1} of the grid
        offsets in [j, o), 0 <= j <= o <= n, a stack (K, d, d) at a time, with
        E_k = sum_m F_m exp(2 pi i m k / n) from the harmonics that
        `period_propagator` kept: one product of K phase rows with them per
        stack of _FORMATION_BYTES, into one buffer allocated per call.  A
        yielded stack is a view of that buffer, valid only until the generator
        moves on: use it, or copy it, before asking for the next."""
        d, n = self.table.shape[1], self.n
        size = min(_stack_size(d, _FORMATION_BYTES), max(o - j, 1))
        buffer = np.empty((size, d * d), dtype=complex)
        for k in range(j, o, size):
            out = buffer[:min(size, o - k)]
            turns = np.outer(np.arange(k, k + len(out)), self.orders) % n  # exact in integers
            np.matmul(np.exp((2j * math.pi / n) * turns), self.harmonics, out=out)
            yield k, out.reshape(-1, d, d)


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


def path_work(dim: int, n: int, nodes: int, degree: int, points: np.ndarray,
              reversed_drive: bool, product: float) -> tuple:
    """(plain, floquet): the work of plain stepping and of Floquet sampling to
    the ascending grid `points` (n steps per period), in units of d^2
    multiply-adds; a d x d matrix product weighs `product` d units.  `evolve`
    takes the cheaper path at 1 / _MATMUL_SPEEDUP, `config.run_price` at 1.

    Plain stepping takes `degree` matrix-vector products a step, points[-1]
    steps and |points[0]| more back below zero.  Floquet sampling builds U_T
    from `nodes` Paterson-Stockmeyer step exponentials (s + r - 2 products
    each), n formation rows of nodes d^2 multiply-adds at matrix-vector speed
    and n products for the accumulation, or ceil(n / 2) rows and
    ceil(n / 2) + 1 products for a `reversed_drive` (`period_propagator`,
    less the at most _BLOCK_WIDTH products that mirror kept offsets past the
    middle).  It powers psi0 to every sampled period: by U_T^dag down to the
    lowest, q_0 < 0, by U_T up through the other negative ones (at most |q_0|
    more products), and from psi0 up to the last.  With U_T's partial products
    kept at the sampled offsets (`_kept_offsets`), each sample costs one
    matrix-vector product.  Otherwise blocks of at most _BLOCK_WIDTH d
    columns, one per sampled period, step to each column's last sample by the
    E_k of U_T: a block step forms E_k again, one row at matrix-vector speed,
    and multiplies the block by it, its first column at matrix-vector speed
    and the others at matrix-product speed.  Formation, one row a step, and
    the accumulation are upper bounds: `exponential_stacks` forms and `_chain`
    multiplies a stack of E_k per call (104 at d = 25, 9 at d = 81, 1 at
    d = 625).  The samples' partial steps cost the same on both paths and are
    left out.  Floquet sampling is infinite when its node harmonics, `nodes`
    complex d x d matrices, would exceed DENSE_BYTE_BUDGET.
    """
    plain = degree * (int(points[-1]) - min(int(points[0]), 0))
    if 16 * nodes * dim * dim > DENSE_BYTE_BUDGET:
        return plain, math.inf
    periods, offsets = np.divmod(points, n)
    formed = n - n // 2 if reversed_drive else n
    floquet = ((nodes * (sum(_ps_shape(degree)) - 2) + formed + reversed_drive) * dim * product
               + formed * nodes + int(periods[-1]) - 2 * min(int(periods[0]), 0))
    if _kept_offsets(offsets):
        floquet += len(points)
    else:
        last = offsets[_period_ends(periods)]
        width = _BLOCK_WIDTH * dim
        steps = sum(int(last[i:i + width].max()) for i in range(0, len(last), width))
        floquet += steps * (nodes + 1) + (int(last.sum()) - steps) * product
    return plain, floquet


def default_time_step(scale: float, time_step_divisor: int = 40) -> float:
    """Step rule: the shortest period 2 pi / `scale` in H(tau) over `time_step_divisor`."""
    return 2.0 * math.pi / (time_step_divisor * scale)


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

    def to_csv(self):
        header = ["time"] + [f"n_{k+1}" for k in range(self.n_sites)] + ["norm"]
        return csv_text(header, zip(self.times, *self.populations.T, self.norms))

    def to_json(self) -> str:
        return json_text({
            "model": self.model,
            "parameters": self.parameters,
            "times": self.times.tolist(),
            "populations": self.populations.tolist(),
            "norms": self.norms.tolist(),
        })


def _observables(occ: np.ndarray, top: np.ndarray, states: np.ndarray):
    """(populations, norms, top-level populations) of the rows of `states`
    (K, dim), with `occ` the (sites, dim) occupation table and `top` the mask
    of its states with some site at the table's largest entry."""
    weights = np.abs(states) ** 2
    return weights @ occ.T, np.sqrt(weights.sum(axis=1)), weights[:, top].sum(axis=1)


def evolve(hamiltonian, psi0: np.ndarray, t_final: float, dt: float | None = None, *,
           occupation: np.ndarray, samples: int = 401, label: str = "evolution",
           parameters: dict | None = None, t_start: float = 0.0) -> EvolutionResult:
    """Integrate i dpsi/dtau = H(tau) psi and record site populations.

    `hamiltonian` is either a constant matrix (propagated exactly through
    its eigensystem) or a DrivenHamiltonian (structured fixed-step Magnus
    scheme; `model.at(tau)` gives its matrix at one instant).  `occupation`
    holds each site's phonon number in each basis state, (sites, dim):
    `space.occupation_table()` on a Fock space, or `np.eye(n_sites)` in the
    one-phonon sector, whose constant H is the coupling matrix.  The top
    level is the table's largest entry (n_max on a Fock space).  The output
    grid has `samples` points on [t_start, t_final], psi0 being the state at
    t = 0; a t_start below 0 samples the past.  Magnus steps of size
    h = T / ceil(T / dt) fill the drive period T, dt defaulting to
    `default_time_step(hamiltonian.frequency_scale)`; each sample is one
    partial step from the grid point at or below it.  One block loop steps
    the states to those grid points.  When it pays (`path_work`), it builds the
    one-period propagator U_T from step exponentials interpolated in the
    drive phase (`_PeriodGrid.period_propagator`; `diagnostics["period_nodes"]`
    counts the exponentials it takes), powers psi0 by it to every period
    that holds a sample, and steps those states through one period as the
    columns of one block, block <- E_k block with the step exponentials E_k
    that built U_T (`_PeriodGrid.exponential_stacks`); otherwise plain
    stepping runs the same loop with one column through the whole window,
    each step a Taylor polynomial applied by Horner's rule.  The lowest
    sampled period q < 0 is (U_T^dag)^|q| psi0, each later one is reached
    by U_T from the one before it, and the periods from 0 on start again
    from psi0 (`diagnostics["period_powers"]` counts these products).  Plain
    stepping steps back from psi0 to the samples below 0 by exp(-Omega) of
    each step behind (`_PeriodGrid.advance`), then starts again from psi0.
    `diagnostics["magnus_steps"]` counts the E_k that U_T forms, the steps
    either way and the partial steps.  The Fock parity Pi = (-1)^(n_1 + ...),
    read from `occupation`, and complex conjugation map the drive with
    phases theta to the one with -theta, so psi_{-theta}(t) =
    Pi conj(psi_theta(-t)) for a real psi0 of one parity; a drive that this
    maps to itself (every exp(i theta_i) real, checked on the matrices to
    REVERSAL_TOL) builds U_T from half a period
    (`diagnostics["period_reversed"]`).  With at most
    _BLOCK_WIDTH distinct offsets o of the samples within their periods, U_T
    keeps its partial products P_o, and a column reaches offset o as P_o
    times its state instead of by stepping; a link point, sampled at 0 and
    t*, takes this path.  Each sample's state at its grid point is queued,
    and a stack of _READOUT_BYTES of them takes its partial steps by one
    stacked Horner (a state on the grid comes out an exact copy); the
    eigendecomposition reads a block of _STACK_BYTES of times out per
    product.  Aborts if the norm drifts beyond 1e-4 or is not finite, naming
    the earliest such sample.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if not (math.isfinite(t_start) and t_start < t_final):
        raise ValueError(f"t_start must be finite and below t_final, got {t_start}")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not isinstance(hamiltonian, (np.ndarray, DrivenHamiltonian)):
        raise TypeError("hamiltonian must be a matrix or a DrivenHamiltonian")
    occ = np.asarray(occupation)
    dim, matrix = occ.shape[1], getattr(hamiltonian, "static", hamiltonian)
    for name, value, shape in (("psi0", psi0, (dim,)), ("hamiltonian", matrix, (dim, dim))):
        if np.shape(value) != shape:
            raise ValueError(f"{name} has shape {np.shape(value)}, occupation {occ.shape}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalised")
    times = np.linspace(t_start, t_final, samples)
    params = dict(parameters or {})
    top = (occ == occ.max()).any(axis=0)  # states with some site at the top level
    pops = np.empty((samples, len(occ)))
    norms, leakage = np.empty(samples), np.empty(samples)

    if isinstance(hamiltonian, np.ndarray):
        vals, vecs = np.linalg.eigh(hamiltonian)
        coeff = vecs.conj().T @ psi0
        # psi(t) = vecs exp(-i vals t) coeff, a block of _STACK_BYTES of times per product
        size = max(1, _STACK_BYTES // (16 * len(vals)))
        for i in range(0, samples, size):
            phases = np.exp(np.multiply.outer(times[i:i + size], -1j * vals)) * coeff
            pops[i:i + size], norms[i:i + size], _ = _observables(occ, top, phases @ vecs.T)
        params.update({"integrator": "eigendecomposition", "dt": 0.0})
        return EvolutionResult(times=times, populations=pops, norms=norms, model=label,
                               parameters=params)

    if dt is None:
        dt = default_time_step(hamiltonian.frequency_scale)
    grid = _PeriodGrid(hamiltonian, dt, np.where(occ.sum(axis=0) % 2, -1.0, 1.0))
    h, n, m = grid.h, grid.n, grid.degree

    # grid point at or below each sample, and the partial step beyond it
    index = times / h + 1e-9  # beyond int64 the point is 0, and all of t reads out nan
    points = np.floor(np.where(np.abs(index) < 2.0 ** 62, index, 0.0)).astype(np.int64)
    partial = np.maximum(times - points * h, 0.0)
    partial_coefs = grid.coefficients((points % n) * h, partial)

    # the samples' grid-point states, queued a stack of _READOUT_BYTES of
    # partial-step generators at a time
    queue, queued = np.empty((min(_stack_size(dim, _READOUT_BYTES), samples), dim, 1),
                             dtype=complex), []

    def read_out():
        """The queued samples, each its partial step from its grid point: one
        stacked Horner over the queue (an exact copy of a state on the grid)."""
        out = _taylor_apply(grid.omega(partial_coefs[queued]), queue[:len(queued)], m)
        pops[queued], norms[queued], leakage[queued] = _observables(occ, top, out[..., 0])
        queued.clear()

    def emit(k, x):
        queue[len(queued), :, 0] = x
        queued.append(k)
        if len(queued) == len(queue):
            read_out()

    # plain stepping: the whole window is period 0, and U_T is never applied
    plain, floquet = path_work(dim, n, grid.nodes, m, points, grid.reversed, 1 / _MATMUL_SPEEDUP)
    floquet = floquet < plain  # the cheaper path
    periods, offsets = np.divmod(points, n) if floquet else (np.zeros_like(points), points)
    u_period, kept = grid.period_propagator(_kept_offsets(offsets)) if floquet else (None, {})
    ends = _period_ends(periods)
    width = _BLOCK_WIDTH * dim
    back = u_period.conj().T if periods[0] < 0 else None  # U_T^dag = U_T^-1
    phi, power, powers, first, block_steps = psi0.astype(complex), 0, 0, 0, 0
    for pass_ends in (ends[i:i + width] for i in range(0, len(ends), width)):
        # Pass 1: U_T^q psi0 for each sampled period q, in columns ordered
        # by their last sample's offset, latest first
        last = offsets[pass_ends]
        order = np.argsort(-last, kind="stable")
        column = np.argsort(order)  # block column of each sampled period
        block = np.empty((dim, len(order)), dtype=complex)
        spare = np.empty_like(block) if floquet else None
        for c, q in zip(column, periods[pass_ends]):
            if power < 0 <= q:  # the periods from 0 on start again from psi0
                phi, power = psi0.astype(complex), 0
            for _ in range(abs(q - power)):  # down only from 0 to the lowest period
                phi = (u_period if q > power else back) @ phi
            powers, power = powers + abs(q - power), q
            block[:, c] = phi
        last = last[order]
        # Pass 2: bring the block to each offset, emitting in offset order:
        # a kept P_o takes a column there in one product; otherwise the block
        # steps through the period, and a column leaves once its last sample is
        # out.  Plain stepping first takes the offsets below 0, from 0 down
        ks = np.arange(first, pass_ends[-1] + 1)
        sampled = offsets[ks]
        sample_column = column[np.searchsorted(pass_ends, ks)]
        # one generator over the pass, so that every stack of E_k is formed full
        steps = (step for _, stack in grid.exponential_stacks(0, int(last[0]))
                 for step in stack) if floquet and not kept else None
        j = 0
        for i in np.argsort(np.where(sampled < 0, sampled.min() - 1 - sampled, sampled),
                            kind="stable"):
            o = sampled[i]
            if o >= 0 > j:  # back from the past: the offsets from 0 on start again from psi0
                block, j = psi0.astype(complex)[:, None], 0
            if o != j and not kept:
                live = np.count_nonzero(last >= o)
                if floquet:  # block <- E_k block, the two buffers taking turns
                    for _ in range(o - j):
                        np.matmul(next(steps), block[:, :live], out=spare[:, :live])
                        block, spare = spare, block
                else:
                    block = grid.advance(block[:, :live], j, o - j)
                block_steps += abs(o - j)
                j = o
            x = block[:, sample_column[i]]
            emit(ks[i], kept[o] @ x if kept else x)
        first = pass_ends[-1] + 1
    if queued:
        read_out()
    steps = (grid.formed if floquet else 0) + block_steps

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
        "period_nodes": grid.nodes if floquet else 0,
        "period_reversed": floquet and grid.reversed,
        "period_powers": int(powers),
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


def _effective_run(eff: CouplingMatrix, t_final: float, samples: int, parameters: dict | None):
    """One phonon from site 0 under `eff`: sum_ij J_ij a_i^dag a_j conserves the
    phonon number, so this is e^{-iJt} e_0 in the one-phonon sector, on J itself."""
    sector = np.eye(eff.n)
    return evolve(eff.matrix, sector[0], t_final, occupation=sector, samples=samples,
                  label="effective", parameters=parameters)


def _exact_run(cfg, array: TrapArray, drive: DriveSpec, t_final: float, samples: int,
               cutoff_range: float, parameters: dict | None, t_start: float = 0.0):
    """One phonon from site 0 under the exact model of `drive`, on the Fock
    space of `numerics.n_max`, sampled on [t_start, t_final]."""
    space = build_fock_space(array.n_sites, cfg["numerics.n_max"])
    bare = bare_coupling_matrix(array, cfg["direction"], cutoff_range)
    exact = driven_model(array, drive, bare, space)
    return evolve(exact, single_phonon_state(space, 0), t_final,
                  default_time_step(exact.frequency_scale, cfg["numerics.time_step_divisor"]),
                  occupation=space.occupation_table(), samples=samples, label="laser_exact",
                  parameters=parameters, t_start=t_start)


@dataclass
class LinkScanResult:
    """Transferred population at the full-transfer time, per phase step."""

    delta_phi: np.ndarray
    t_star: np.ndarray
    n2_effective: np.ndarray
    n2_exact: np.ndarray
    defined: np.ndarray

    def to_csv(self):
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


def link_point(cfg, delta_phi: float, mirror: float | None = None) -> list[tuple]:
    """[(t_star, n2_effective, n2_exact, defined)] for the phase step
    `delta_phi` of the link config `cfg`, and a second row for `mirror`, the
    step 2 pi - delta_phi, if given.

    Each step runs the effective model to its own full-transfer time
    t* = pi / (2 |J|), or is undefined when its dressed coupling falls below
    COUPLING_THRESHOLD.  The exact drive at 2 pi - delta is the time reverse
    of the one at delta, and psi0 is a real one-phonon state (see `evolve`),
    so the mirror's n2 at its t* is that of delta_phi's drive at -t*.  One
    exact run serves both steps: delta_phi's drive on [-t*(mirror),
    t*(delta_phi)] when both are defined, else the defined step's own drive
    on [0, t*], by Floquet sampling or plain stepping as `evolve` prices them."""
    array = link_array(cfg)
    rows, runs = [], []  # runs: (row, drive, t_star) of each defined step
    for phi in (delta_phi,) if mirror is None else (delta_phi, mirror):
        drive = config_drive(cfg, "laser", phi, 0.0)
        eff = effective_coupling_matrix(array, drive, cfg["direction"])
        j_eff = abs(eff.matrix[1, 0])
        if j_eff < COUPLING_THRESHOLD:
            rows.append((math.nan, math.nan, math.nan, False))
            continue
        t_star = math.pi / (2.0 * j_eff)
        runs.append((len(rows), drive, t_star))
        rows.append((t_star, float(_effective_run(eff, t_star, 2, None).populations[-1, 1])))
    if runs:  # one exact run: the mirror's sample at -t*, before delta_phi's at t*
        _, drive, t_star = runs[0]
        pops = _exact_run(cfg, array, drive, t_star, 2, DEFAULT_CUTOFF_RANGE, None,
                          t_start=-runs[1][2] if len(runs) == 2 else 0).populations
        for (i, _, _), sample in zip(runs, (1, 0)):
            rows[i] += (float(pops[sample, 1]), True)
    return rows


def link_transfer_scan(cfg, *, map_fn=map) -> LinkScanResult:
    """Effective and laser-exact transfer curves over `scan.points` phase steps in [0, 2 pi].

    Each point runs to its own full-transfer time pi / (2 |J|); points whose
    dressed coupling falls below the threshold are marked undefined instead
    of integrating to an unbounded window.  Point points - 1 - k of the grid
    is 2 pi minus point k, whose exact drive is its time reverse, so
    `map_fn` (called as the builtin map with two iterables) maps link_point
    over the first points - points // 2 points, each with its mirror: one
    exact run per pair, sampled at -t* of the mirror and at t* of the point,
    whether `evolve` takes U_T or plain stepping.  The effective runs and t*
    stay per point.  The pairs are independent, so a process-pool map may run
    them.
    """
    grid = np.linspace(0.0, 2.0 * math.pi, cfg["scan.points"])
    half = len(grid) - len(grid) // 2
    mirrors = [grid[-1 - k] if k < len(grid) // 2 else None for k in range(half)]
    pairs = list(map_fn(partial(link_point, cfg), grid[:half], mirrors))
    rows = [pair[0] for pair in pairs] + [pair[1] for pair in pairs[::-1] if len(pair) == 2]
    t_star, n2_eff, n2_exact, defined = (np.array(x) for x in zip(*rows))
    return LinkScanResult(delta_phi=grid, t_star=t_star, n2_effective=n2_eff,
                          n2_exact=n2_exact, defined=defined.astype(bool))


def ring_couplings(cfg):
    """(drive, array, effective couplings, window) of the ring config `cfg`.

    The geometry is tuned so every ring bond of the dressed model has the
    same magnitude: d_x = d_y |F_r(eta_d, pi)|^(1/3).  `plaquette.flux`
    selects the synthetic plaquette flux through the phase steps
    (phase_x = pi, phase_y = flux).  The automatic window is one full
    ring-transfer cycle, pi / |J|.  ConfigurationError when the bond vanishes,
    or is below COUPLING_THRESHOLD on the automatic window, which would then be
    too long to integrate; `config.run_price` prices the window's grid.
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
    samples = cfg["numerics.samples"]
    return (_effective_run(eff, window, samples, common),
            _exact_run(cfg, array, drive, window, samples, cfg["numerics.cutoff_range"], common))
