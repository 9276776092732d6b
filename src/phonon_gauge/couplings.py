"""Dipolar phonon couplings and their dressing by a drive, i^r J_r(2 eta sin(dphi / 2)).

One walk over the site pairs, `_pair_table`, gives the bare amplitudes to
both coupling builders and to the parse-time reach check.  One Bessel
recurrence, `_bessel_j`, gives the dressed factor and the public J table.

All functions here are pure and operate on immutable inputs, so they can be
evaluated in parallel across parameter grids.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._text import csv_text, json_text
from .model import ConfigurationError, DriveSpec, GeometryError, TrapArray

#: Largest argument accepted by bessel_first_kind_array and dressed_factor.
BESSEL_MAX_ARGUMENT = 50.0

#: Largest resonance order of dressed_factor (|J_s(x)| < 3e-16, s >= 150, |x| <= 100).
_BESSEL_ZERO_ORDER = 150

#: Default dipolar cutoff, in lattice constants (Euclidean lattice distance).
DEFAULT_CUTOFF_RANGE = 3.0


class DomainError(ValueError):
    """Argument outside the supported range of a special function."""


class BrokenCycleError(ValueError):
    """A plaquette cycle crosses a missing (zero) bond."""


def _bessel_j(orders: range, x: np.ndarray, reach: float) -> np.ndarray:
    """J_s(x) for s in `orders` (rows) at each x in [0, reach]: Miller's
    backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1} from order
    max(top + 1, reach) + 16 + sqrt(40 reach), normalised by J_0 + 2 (J_2 + J_4
    + ...) = 1 summed step by step, so each value depends on its own x alone.
    Below x = 1e-8, where 2k / x overflows, the leading term (x/2)^s / s!."""
    lo, small = orders.start, x < 1e-8
    two_over_x = 2.0 / np.where(small, 1.0, x)
    out = np.empty((len(orders),) + x.shape)
    prev, cur, norm = np.zeros(x.shape), np.full(x.shape, 1e-300), np.zeros(x.shape)
    for k in range(int(max(orders.stop, reach) + 16 + math.sqrt(40.0 * reach)), 0, -1):
        prev, cur = cur, (k * two_over_x) * cur - prev  # cur holds order k - 1
        # four steps grow a value by less than 1e100: rescale every fourth
        if k % 4 == 0 and (big := np.maximum(np.abs(cur), np.abs(prev)) > 1e200).any():
            scale = np.where(big, 1e-200, 1.0)
            prev, cur, norm = prev * scale, cur * scale, norm * scale
            out[max(k - lo, 0):] *= scale  # the orders >= k stored so far
        if k - 1 in orders:
            out[k - 1 - lo] = cur
        if k % 2 and k > 1:
            norm += cur
    out /= 2.0 * norm + cur
    half = x[small] / 2.0
    out[:, small] = [half ** s * math.exp(-math.lgamma(s + 1)) for s in orders]
    return out


def bessel_first_kind_array(n_top: int, x: float) -> np.ndarray:
    """Array [J_0(x), ..., J_{n_top}(x)] for 0 <= x <= 50."""
    if not math.isfinite(x):
        raise DomainError(f"bessel_first_kind_array expects a finite x, got {x}")
    if x < 0:
        raise DomainError("bessel_first_kind_array expects x >= 0")
    if x > BESSEL_MAX_ARGUMENT:
        raise DomainError(f"argument {x} outside supported range |x| <= {BESSEL_MAX_ARGUMENT}")
    return _bessel_j(range(n_top + 1), np.asarray(float(x)), x)


def dressed_factor(resonance_order: int, eta_d: float, delta_phi):
    """Drive-dressed renormalisation of a hopping bridged by r drive quanta:
    the sum over s of J_s(eta_d) J_{s+r}(eta_d) exp(i (s + r/2) delta_phi),
    which is i^r J_r(2 eta_d sin(delta_phi / 2)) by Graf's addition theorem
    (DLMF 10.23.7), real or imaginary, so its abs is exact.  A scalar
    delta_phi gives a complex, an array a complex array of its shape."""
    r = int(resonance_order)
    if not 0 <= r <= _BESSEL_ZERO_ORDER:
        raise DomainError(f"resonance_order must be in [0, {_BESSEL_ZERO_ORDER}], got {r}")
    if not 0 <= eta_d <= BESSEL_MAX_ARGUMENT:  # also rejects nan and inf
        raise DomainError(f"eta_d must be in [0, {BESSEL_MAX_ARGUMENT}], got {eta_d}")
    z = 2.0 * eta_d * np.sin(np.asarray(delta_phi, dtype=float) / 2.0)
    j = _bessel_j(range(r, r + 1), np.abs(z), 2.0 * eta_d)[0]
    out = np.where(z < 0, (-1j) ** (r % 4), 1j ** (r % 4)) * j  # J_r(-z) = (-1)^r J_r(z)
    return complex(out) if out.ndim == 0 else out


#: Phase steps per dressed_factor call of dressed_map: its recurrence holds
#: about ten float64 arrays of this length, 1.3 MiB.
_PHASE_BLOCK = 2 ** 14


@dataclass(frozen=True)
class DressedMapResult:
    """|dressed_factor| over drive strengths (rows) and phase steps (columns)."""

    eta_d: np.ndarray
    delta_phi: np.ndarray
    magnitude: np.ndarray

    def to_csv(self):
        return csv_text(("eta_d", "delta_phi", "magnitude"),
                        ((eta, dp, mag) for eta, row in zip(self.eta_d, self.magnitude)
                         for dp, mag in zip(self.delta_phi, row)))

    def to_json(self) -> str:
        return json_text({"eta_d": self.eta_d.tolist(), "delta_phi": self.delta_phi.tolist(),
                          "magnitude": self.magnitude.tolist()})


def dressed_map(resonance_order: int, eta_grid, delta_phi_grid) -> DressedMapResult:
    """Dressed-coupling magnitude on a grid, one dressed_factor call per
    strength and block of phase steps, so the recurrence holds no whole row."""
    etas = np.asarray(eta_grid, dtype=float)
    dphis = np.asarray(delta_phi_grid, dtype=float)
    magnitude = np.empty((etas.size, dphis.size))
    for row, eta in zip(magnitude, etas):
        # one call at least, so that an empty phase grid still checks eta
        for lo in range(0, max(dphis.size, 1), _PHASE_BLOCK):
            block = slice(lo, lo + _PHASE_BLOCK)
            row[block] = np.abs(dressed_factor(resonance_order, eta, dphis[block]))
    return DressedMapResult(eta_d=etas, delta_phi=dphis, magnitude=magnitude)


#: Rows per block of `CouplingMatrix`'s Hermiticity check: 1 MiB of
#: complex conjugate at 4096 sites.
_HERMITIAN_ROWS = 16


@dataclass(frozen=True)
class CouplingMatrix:
    """Hermitian matrix of complex hopping amplitudes for one direction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("coupling matrix must be square")
        if np.any(np.diagonal(m) != 0):
            raise ValueError("coupling matrix must have zero diagonal")
        # a block of rows at a time, so the check never copies the whole matrix
        if not all(np.array_equal(m[i:i + _HERMITIAN_ROWS], m[:, i:i + _HERMITIAN_ROWS].conj().T)
                   for i in range(0, len(m), _HERMITIAN_ROWS)):
            raise ValueError("coupling matrix must be exactly Hermitian")
        m.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def check_dipolar_reach(array: TrapArray, cutoff_range: float) -> None:
    """The GeometryError of `_pair_table` when a retained pair is too far apart
    or too close for |dr|^5, in O(n_sites) when no pair can be.

    |dr|^5 stays a normal float for 1e-61 <= |dr| <= 1e61.  The lattice
    extent bounds every distance from above.  Distinct integer sites differ
    by a whole step in x or in y, so min(1, d_y / d_x) bounds every distance
    from below.  Only an array whose bounds leave that range builds the pair
    table, which names the farthest or nearest pair.
    """
    if (np.hypot(*np.ptp(array.positions, axis=0)) > 1e61
            or array.spacing_y / array.spacing_x < 1e-61):
        _pair_table(array, "z", cutoff_range, reference_frequencies=True)


def _pair_table(array: TrapArray, direction: str, cutoff_range: float,
                reference_frequencies: bool):
    """Bare dipolar amplitude for every retained pair i > j, as arrays (i, j, amp).

    The one pair enumeration.  It walks one site i at a time over the sites
    j < i, in the order of np.tril_indices, so its scratch memory is
    O(n_sites + retained pairs).  ConfigurationError for an unknown direction
    or a cutoff below 1.  GeometryError, naming the farthest or the nearest
    pair, when |dr|^5 overflows (beyond about 1.6e61 x-spacings) or falls
    below the smallest normal float (below about 2.9e-62), where it is zero
    or has too few digits to divide by.
    """
    if direction not in ("x", "y", "z"):
        raise ConfigurationError(f"unknown direction {direction!r}")
    if cutoff_range < 1:
        raise ConfigurationError("cutoff_range must be >= 1")
    pos = array.positions
    lat = np.array(array.lattice, dtype=float)
    if reference_frequencies:
        w = np.full(array.n_sites, array.base_frequency)
    else:
        w = array.frequencies()
    axis = {"x": 0, "y": 1, "z": None}[direction]
    retained = [np.flatnonzero(np.hypot(lat[i, 0] - lat[:i, 0], lat[i, 1] - lat[:i, 1])
                               <= cutoff_range + 1e-9) for i in range(array.n_sites)]
    i = np.repeat(np.arange(array.n_sites), [len(j) for j in retained])
    j = np.concatenate(retained)
    dr = pos[i] - pos[j]
    dist = np.hypot(dr[:, 0], dr[:, 1])
    comp = np.zeros_like(dist) if axis is None else dr[:, axis]
    # |dr|^5 through the C library's pow, once per distinct distance: numpy's
    # vectorised power may round differently in the last bit on some CPUs.
    distinct, which = np.unique(dist, return_inverse=True)
    try:
        dist5 = np.array([d**5 for d in distinct.tolist()])[which]
    except OverflowError:
        k = int(np.argmax(dist))
        raise GeometryError(f"sites {i[k]} and {j[k]} are {dist[k]:.3g} x-spacings apart, "
                            "too far for the dipolar coupling (|dr|^5 overflows)") from None
    if dist.size and dist5.min() < sys.float_info.min:
        k = int(np.argmin(dist))
        raise GeometryError(f"sites {i[k]} and {j[k]} are {dist[k]:.3g} x-spacings apart, "
                            "too close for the dipolar coupling (|dr|^5 underflows)")
    geom = (3.0 * comp * comp - dist * dist) / dist5
    return i, j, -(array.coulomb_beta / 2.0) * geom / np.sqrt(w[i] * w[j])


def bare_coupling_matrix(array: TrapArray, direction: str,
                         cutoff_range: float = DEFAULT_CUTOFF_RANGE, *,
                         reference_frequencies: bool = False) -> CouplingMatrix:
    """Static dipolar couplings for the chosen vibrational direction.

    Amplitudes follow the harmonic expansion of the Coulomb interaction:
    -(beta/2) [3 (dr)_a (dr)_a - |dr|^2] / |dr|^5 / sqrt(w_i w_j) in reduced
    units.  Pairs beyond `cutoff_range` (Euclidean distance in lattice
    coordinates) are dropped.  With reference_frequencies=True the
    per-site frequency factor is evaluated at the base frequency, i.e. at
    leading order in the gradient.
    """
    i, j, amp = _pair_table(array, direction, cutoff_range, reference_frequencies)
    m = np.zeros((array.n_sites, array.n_sites), dtype=complex)
    m[i, j] = amp
    m[j, i] = amp
    return CouplingMatrix(matrix=m)


def effective_coupling_matrix(array: TrapArray, drive: DriveSpec, direction: str,
                              cutoff_range: float = DEFAULT_CUTOFF_RANGE, *,
                              reference_frequencies: bool = False,
                              diagonal_bonds: bool = True) -> CouplingMatrix:
    """Drive-assisted couplings on a gradient array.

    Bonds that climb one column (i_x = j_x + 1) acquire the dressed factor
    and the phase exp(-i (r/2)(phi_i + phi_j)); bonds within a column keep
    the bare amplitude; bonds spanning two or more columns are dropped as
    off-resonant.  diagonal_bonds=False additionally drops the assisted
    bonds that also step in y, leaving the pure tight-binding form.
    """
    if array.gradient == 0.0:
        raise ConfigurationError("effective couplings need a frequency gradient along x")
    drive.check_resonance(array.gradient)
    i, j, bare = _pair_table(array, direction, cutoff_range, reference_frequencies)
    lat = np.array(array.lattice)
    dix = lat[i, 0] - lat[j, 0]
    bonded = bare != 0  # a vanishing bare amplitude leaves both entries +0.0
    m = np.zeros((array.n_sites,) * 2, dtype=complex)  # calloc'd: unwritten pages add no RSS
    within = bonded & (dix == 0)
    m[i[within], j[within]] = bare[within]
    m[j[within], i[within]] = bare[within]
    assisted = bonded & (np.abs(dix) == 1)
    if not diagonal_bonds:
        assisted &= lat[i, 1] == lat[j, 1]
    # the table holds i > j: put the climbing site of each assisted bond first
    up = dix[assisted] == 1
    i, j = np.where(up, i[assisted], j[assisted]), np.where(up, j[assisted], i[assisted])
    phases = drive.site_phases(array)
    r = drive.resonance_order
    dphi, bond_dphi = np.unique(phases[i] - phases[j], return_inverse=True)
    scaled = bare[assisted] * dressed_factor(r, drive.eta_d, dphi)[bond_dphi]
    turn = np.exp(-0.5j * r * (phases[i] + phases[j]))
    # The complex product in real arithmetic: numpy's vectorised complex
    # multiply may fuse it (FMA) and round differently from one CPU to another.
    amp = np.empty(i.size, dtype=complex)
    amp.real = scaled.real * turn.real - scaled.imag * turn.imag
    amp.imag = scaled.real * turn.imag + scaled.imag * turn.real
    m[i, j] = amp
    m[j, i] = np.conj(amp)
    return CouplingMatrix(matrix=m)


def plaquette_flux(matrix, cycle) -> float:
    """Gauge-invariant phase accumulated around a closed path of bonds.

    The path visits `cycle` in order and closes on its first site; the bond
    factor for the step a -> b is matrix[a, b].  Returns arg of the product,
    mapped to (-pi, pi].
    """
    m = matrix.matrix if isinstance(matrix, CouplingMatrix) else np.asarray(matrix)
    sites = list(cycle)
    if len(sites) < 3:
        raise BrokenCycleError("a plaquette cycle must visit at least three sites")
    prod = 1.0 + 0.0j
    for a, b in zip(sites, sites[1:] + sites[:1]):
        v = m[a, b]
        if v == 0:
            raise BrokenCycleError(f"zero bond on cycle: {a} -> {b}")
        prod *= v
    flux = float(np.angle(prod))
    if flux <= -math.pi + 1e-12:
        flux += 2.0 * math.pi
    return flux
