"""Dipolar phonon couplings and their Bessel-series dressing under a drive.

One walk over the site pairs, `_pair_table`, gives the bare amplitudes to
both coupling builders and to the parse-time reach check.

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

#: Orders above this are indistinguishable from zero at the supported
#: arguments (|J_s(x)| < 1e-50 for s >= 150, |x| <= 50).
_BESSEL_ZERO_ORDER = 150

#: Default dipolar cutoff, in lattice constants (Euclidean lattice distance).
DEFAULT_CUTOFF_RANGE = 3.0


class DomainError(ValueError):
    """Argument outside the supported range of a special function."""


class BrokenCycleError(ValueError):
    """A plaquette cycle crosses a missing (zero) bond."""


def _bessel_series(order: int, x: float) -> float:
    # Ascending power series; stable for small |x| where no cancellation occurs.
    half = x / 2.0
    if half == 0.0:  # includes subnormal x whose half underflows
        return 1.0 if order == 0 else 0.0
    term = math.exp(order * math.log(half) - math.lgamma(order + 1))
    total = term
    q = (x / 2.0) ** 2
    for k in range(1, 200):
        term *= -q / (k * (k + order))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def _bessel_array_miller(n_top: int, x: float) -> np.ndarray:
    """J_0..J_{n_top} at x > 0 by backward (Miller) recurrence."""
    start = max(n_top, int(x)) + 36
    out = np.zeros(start + 2)
    out[start] = 1e-30  # arbitrary seed; normalisation fixes the scale
    for k in range(start, 0, -1):
        out[k - 1] = (2.0 * k / x) * out[k] - out[k + 1]
        if abs(out[k - 1]) > 1e250:  # rescale to dodge overflow
            out[k - 1:] *= 1e-250
    norm = out[0] + 2.0 * out[2:start + 1:2].sum()
    return out[: n_top + 1] / norm


def bessel_first_kind_array(n_top: int, x: float) -> np.ndarray:
    """Array [J_0(x), ..., J_{n_top}(x)] for 0 <= x <= 50."""
    if x < 0:
        raise DomainError("bessel_first_kind_array expects x >= 0")
    if x > BESSEL_MAX_ARGUMENT:
        raise DomainError(f"argument {x} outside supported range |x| <= {BESSEL_MAX_ARGUMENT}")
    if x == 0.0:
        out = np.zeros(n_top + 1)
        out[0] = 1.0
        return out
    if x <= 8.0:
        return np.array([_bessel_series(s, x) for s in range(n_top + 1)])
    return _bessel_array_miller(n_top, x)


def dressed_series_cutoff(eta_d: float) -> int:
    # The Bessel tail decays super-exponentially once the order exceeds the
    # argument; this margin keeps the truncated tail below 1e-14.
    return 25 + math.ceil(3.0 * eta_d)


def dressed_factor(resonance_order: int, eta_d: float, delta_phi):
    """Drive-dressed renormalisation of a hopping bridged by r drive quanta.

    Sums J_s(eta_d) J_{s+r}(eta_d) exp(i (s + r/2) delta_phi) over integer s,
    truncated where the tail is below 1e-14.  Satisfies
    |value| = |J_r(2 eta_d sin(delta_phi / 2))|.  A scalar delta_phi gives a
    complex; an array gives a complex array of the same shape.
    """
    r = int(resonance_order)
    if not 0 <= r <= _BESSEL_ZERO_ORDER:
        raise DomainError(f"resonance_order must be in [0, {_BESSEL_ZERO_ORDER}], got {r}")
    if not 0 <= eta_d <= BESSEL_MAX_ARGUMENT:  # also rejects nan and inf
        raise DomainError(f"eta_d must be in [0, {BESSEL_MAX_ARGUMENT}], got {eta_d}")
    cut = dressed_series_cutoff(eta_d)
    table = bessel_first_kind_array(cut + r, eta_d)
    orders = np.arange(-cut, cut + r + 1)
    # J_{-k} = (-1)^k J_k
    signed = np.where((orders < 0) & (orders % 2 == 1), -1.0, 1.0) * table[np.abs(orders)]
    s_vals = orders[: 2 * cut + 1]
    weights = signed[: 2 * cut + 1] * signed[r:]
    phases = np.exp(1j * np.multiply.outer(np.asarray(delta_phi, dtype=float),
                                           s_vals + r / 2.0))
    total = np.sum(weights * phases, axis=-1)
    return complex(total) if total.ndim == 0 else total


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
    """Dressed-coupling magnitude on a grid, one dressed_factor call per strength."""
    etas = np.asarray(eta_grid, dtype=float)
    dphis = np.asarray(delta_phi_grid, dtype=float)
    magnitude = np.empty((etas.size, dphis.size))
    for row, eta in zip(magnitude, etas):
        # Python's complex abs per value, as numpy's vectorised abs may round differently
        values = dressed_factor(resonance_order, eta, dphis).tolist()
        row[:] = np.fromiter(map(abs, values), float, dphis.size)
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
