"""Single-particle spectra: ladder and square-lattice tight-binding matrices,
dense Hermitian eigensystems with localisation metrics, and flux sweeps.

Diagonalisations at different flux values are independent; a sweep may be
mapped over workers with no shared mutable state.  Both flux sweeps mirror:
the ladder's matrix at -phi and the square lattice's at 2 pi - alpha (Landau
gauge) are the complex conjugates of those at phi and alpha, so
`_mirrored_spectra` diagonalises half of each grid and mirrors the rest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ._text import csv_text, json_text
from .couplings import dressed_factor
from .model import DriveSpec

#: Relative tolerance used to verify Hermiticity of eigensystem inputs.
HERMITICITY_TOL = 1e-12

#: Eigenvalue clustering tolerance, relative to max |E|.
CLUSTER_TOL = 1e-8

#: Fraction of each gap between cluster centers left out at both ends of a
#: gap window.
GAP_MARGIN = 0.1

#: A flux sweep counts eigenvalues below this fraction of its largest |E| as
#: the zero band.
ZERO_BAND_TOL = 1e-8


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


def _bond_matrix(n: int, starts, ends, values) -> np.ndarray:
    """n x n matrix with values[b] at (starts[b], ends[b]) and its conjugate at the
    transposed entry, from lists of per-kind bond arrays.  The sums are unbuffered,
    as bond by bond: periodic wraps may put two bonds on one pair."""
    i, k, v = (np.concatenate(a) for a in (starts, ends, values))
    m = np.zeros((n, n), dtype=complex)
    np.add.at(m, (i, k), v)
    np.add.at(m, (k, i), np.conj(v))
    return m


def rhombic_ladder_matrix(n_cells: int, j1: float, j2: float, phi: float,
                          boundary: str = "open") -> np.ndarray:
    """Three-leg rhombic ladder with one flux-carrying bond per plaquette.

    Site order is (hub_0, up_0, low_0, hub_1, ...); open boundaries append a
    terminating hub, giving 3p+1 sites, while periodic boundaries keep 3p.
    Per cell j the bonds are hub_j-up_j and low_j-hub_{j+1} at j1,
    hub_j-low_j at j2, and up_j-hub_{j+1} at j2*exp(i phi).
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    if j1 <= 0 or j2 < 0:
        raise ValueError("couplings must be positive (j2 may be zero)")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    cells = np.arange(n_cells)
    hub, up, low = 3 * cells, 3 * cells + 1, 3 * cells + 2
    next_hub = 3 * ((cells + 1) % n_cells) if boundary == "periodic" else hub + 3
    return _bond_matrix(3 * n_cells + (boundary == "open"),
                        [hub, hub, low, up], [up, low, next_hub, next_hub],
                        [np.full(n_cells, v) for v in (j1, j2, j1, j2 * np.exp(1j * phi))])


def rhombic_ladder_cells(n_cells: int, boundary: str = "open") -> np.ndarray:
    """Cell index per site; the terminating hub joins the last cell."""
    cells = np.repeat(np.arange(n_cells), 3)
    if boundary == "open":
        cells = np.append(cells, n_cells - 1)
    return cells


def dressed_ladder_couplings(j1: float, drive: DriveSpec, spacing_ratio: float):
    """(j1, j2, phi) for a ladder whose assisted bonds derive from a drive.

    j2 = j1 * |dressed_factor(r, eta_d, phase_x)| * spacing_ratio**3 with
    spacing_ratio = d_y / d_x; the plaquette flux is r * phase_y up to the
    orientation gauge (spectra are even in the flux).
    """
    f = dressed_factor(drive.resonance_order, drive.eta_d, drive.phase_x)
    j2 = j1 * abs(f) * spacing_ratio**3
    return j1, j2, drive.resonance_order * drive.phase_y


def square_lattice_matrix(l_x: int, l_y: int, alpha: float, j_x: float, j_y: float,
                          m_max: int = 1, boundary: str = "open") -> np.ndarray:
    """Square lattice with a uniform flux alpha per plaquette (Landau gauge).

    x bonds carry j_x * exp(-i alpha i_y); y bonds at range m carry the
    dipolar tail j_y / m^3 for m <= m_max.  Periodic boundaries require
    alpha * l_y to be a multiple of 2 pi for a consistent flux pattern.
    Periodic bonds that wrap onto the same pair add up.  With i_y an integer,
    the matrix at 2 pi - alpha is the complex conjugate of the one at alpha,
    for either boundary and every m_max, so both have one spectrum;
    `butterfly_spectrum` diagonalises half its flux grid by this mirror.
    """
    if l_x < 1 or l_y < 1:
        raise ValueError("lattice sizes must be >= 1")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    periodic = boundary == "periodic"
    n = l_x * l_y
    ix, iy = np.divmod(np.arange(n), l_y)  # site i = ix * l_y + iy
    i = np.flatnonzero((periodic and l_x > 1) | (ix + 1 < l_x))
    starts, ends = [i], [(ix[i] + 1) % l_x * l_y + iy[i]]
    values = [j_x * np.exp(-1j * alpha * iy[i])]
    for step in range(1, min(m_max, l_y - 1) + 1):
        i = np.flatnonzero(periodic | (iy + step < l_y))
        starts.append(i)
        ends.append(ix[i] * l_y + (iy[i] + step) % l_y)
        values.append(np.full(i.size, j_y / step**3))
    return _bond_matrix(n, starts, ends, values)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigen-data of a Hermitian lattice matrix with localisation metrics."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ipr: np.ndarray
    boundary_weight: np.ndarray
    band_labels: np.ndarray
    cells: np.ndarray
    flux: float | None = None

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def cell_probabilities(self, state: int) -> np.ndarray:
        prob = np.abs(self.eigenvectors[:, state]) ** 2
        n_cells = int(self.cells.max()) + 1
        return np.array([prob[self.cells == c].sum() for c in range(n_cells)])

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "ipr": self.ipr.tolist(),
            "boundary_weight": self.boundary_weight.tolist(),
            "band_labels": self.band_labels.tolist(),
            "flux": self.flux,
        }


def _greedy_clusters(values: np.ndarray, tol: float) -> np.ndarray:
    """Chain clustering of sorted values: a gap above tol starts a new cluster."""
    return np.concatenate(([0], np.cumsum(np.diff(values) > tol)))


def eigensystem(matrix: np.ndarray, *, cells: np.ndarray | None = None,
                flux: float | None = None) -> SpectrumResult:
    """Full spectrum of a Hermitian matrix.

    Eigenvalues ascend; eigenvectors are `eigh`'s, and every metric reads
    only their weights |v_i|^2.  Per-state metrics: inverse participation
    ratio sum |v_i|^4 and the probability weight on the outermost cell at
    each end (sites are their own cells unless `cells` is given).  Band
    labels number the clusters of eigenvalues closer than CLUSTER_TOL max |E|.
    FloatingPointError when a sum over the spectrum may leave the float
    range: n max |E| is not finite (a nan or an infinity included).
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianError("eigensystem needs a square matrix")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL * scale:
        raise NonHermitianError("matrix is not Hermitian within 1e-12")
    vals, vecs = np.linalg.eigh(m)
    top = float(np.abs(vals).max())
    if not math.isfinite(len(vals) * top):  # a Python product: inf, not a warning
        at = "" if flux is None else f" at flux {flux:.17g}"
        raise FloatingPointError(f"the spectrum{at} is too large to sum: {len(vals)} "
                                 f"eigenvalues up to |E| = {top:.3g}")
    prob = np.abs(vecs) ** 2
    cells = np.arange(m.shape[0]) if cells is None else np.asarray(cells)
    edge_mask = (cells == cells.min()) | (cells == cells.max())
    return SpectrumResult(eigenvalues=vals, eigenvectors=vecs, ipr=(prob**2).sum(axis=0),
                          boundary_weight=prob[edge_mask].sum(axis=0),
                          band_labels=_greedy_clusters(vals, CLUSTER_TOL * max(top, 1e-300)),
                          cells=cells, flux=flux)


@dataclass(frozen=True)
class BandCluster:
    energy: float
    count: int
    spread: float


def flat_band_report(spectrum: SpectrumResult) -> list[BandCluster]:
    """Center, multiplicity and spread of each band-label cluster of the spectrum."""
    vals, labels = spectrum.eigenvalues, spectrum.band_labels
    out = []
    for lab in range(labels.max() + 1):
        sel = vals[labels == lab]
        out.append(BandCluster(energy=float(sel.mean()), count=int(sel.size),
                               spread=float(sel.max() - sel.min())))
    return out


def gap_windows_from_clusters(clusters: list[BandCluster]):
    """Open energy intervals between consecutive cluster centers, less GAP_MARGIN
    of the gap at each end."""
    centers = sorted(c.energy for c in clusters)
    windows = []
    for lo, hi in zip(centers, centers[1:]):
        margin = GAP_MARGIN * (hi - lo)
        windows.append((lo + margin, hi - margin))
    return windows


@dataclass(frozen=True)
class EdgeState:
    energy: float
    boundary_weight: float
    localization_length: float


def _localization_length(cell_prob: np.ndarray) -> float:
    """Decay length (in cells) from an exponential fit of the cell profile.

    The profile is read away from the dominant edge; compactly localised
    states with no resolvable tail report 0, and a flat profile inf.
    """
    p = cell_prob
    if p[-1] > p[0]:
        p = p[::-1]
    valid = p > 1e-14
    cut = int(np.argmin(valid)) if not valid.all() else p.size  # leading run
    if cut < 2:
        return 0.0
    slope = np.polyfit(np.arange(cut), np.log(p[:cut]), 1)[0]
    if slope > -1e-12:  # flat within the fit's rounding: no decay
        return math.inf
    return float(-1.0 / slope)


def edge_state_report(spectrum: SpectrumResult, gap_windows) -> list[EdgeState]:
    """States inside the given spectral gaps carrying most of their weight
    on the outermost cells (boundary weight above 0.5)."""
    out = []
    for k, e in enumerate(spectrum.eigenvalues):
        if not any(lo < e < hi for lo, hi in gap_windows):
            continue
        bw = float(spectrum.boundary_weight[k])
        if bw <= 0.5:
            continue
        xi = _localization_length(spectrum.cell_probabilities(k))
        out.append(EdgeState(energy=float(e), boundary_weight=bw,
                             localization_length=xi))
    return out


@dataclass(frozen=True)
class LadderSpectrumResult:
    """Rhombic-ladder spectrum with its flat bands, gap windows and edge states."""

    spectrum: SpectrumResult
    flat_bands: list[BandCluster]
    gap_windows: list[tuple[float, float]]
    edge_states: list[EdgeState]

    def to_json(self) -> str:
        """JSON with null for an edge state's unbounded localisation length."""
        edges = [asdict(e) for e in self.edge_states]
        for e in edges:
            if math.isinf(e["localization_length"]):
                e["localization_length"] = None
        return json_text({
            "spectrum": self.spectrum.to_json_dict(),
            "flat_bands": [asdict(c) for c in self.flat_bands],
            "gap_windows": [list(w) for w in self.gap_windows],
            "edge_states": edges,
        })


def ladder_spectrum(n_cells: int, j1: float, j2: float, phi: float,
                    boundary: str = "open") -> LadderSpectrumResult:
    """Rhombic-ladder spectrum, flat-band clusters and mid-gap edge states.

    The gap windows lie between the bulk clusters (three or more states)
    when there are at least two of them, else between all clusters.
    """
    matrix = rhombic_ladder_matrix(n_cells, j1, j2, phi, boundary)
    spectrum = eigensystem(matrix, cells=rhombic_ladder_cells(n_cells, boundary), flux=phi)
    clusters = flat_band_report(spectrum)
    bulk = [c for c in clusters if c.count >= 3]
    windows = gap_windows_from_clusters(bulk if len(bulk) >= 2 else clusters)
    return LadderSpectrumResult(spectrum=spectrum, flat_bands=clusters, gap_windows=windows,
                                edge_states=edge_state_report(spectrum, windows))


@dataclass(frozen=True)
class CustomSpectrumResult:
    """Spectrum of the effective coupling matrix of a user-defined array."""

    layout: str
    n_sites: int
    spectrum: SpectrumResult

    def to_json(self) -> str:
        return json_text({"layout": self.layout, "n_sites": self.n_sites,
                          "spectrum": self.spectrum.to_json_dict()})


@dataclass(frozen=True)
class FluxSweepResult:
    fluxes: np.ndarray
    eigenvalues: np.ndarray  # shape (n_flux, n_states)
    gaps: np.ndarray

    def to_csv(self):
        header = ["phi"] + [f"E_{k+1}" for k in range(self.eigenvalues.shape[1])] + ["min_gap"]
        return csv_text(header, zip(self.fluxes, *self.eigenvalues.T, self.gaps))


@dataclass(frozen=True)
class ButterflyResult:
    """Square-lattice spectra over a grid of flux per plaquette."""

    alphas: np.ndarray
    eigenvalues: np.ndarray  # shape (n_alpha, n_states)

    def to_csv(self):
        return csv_text(["alpha"] + [f"E_{k+1}" for k in range(self.eigenvalues.shape[1])],
                        zip(self.alphas, *self.eigenvalues.T))


def _eigenvalues_at(model_builder, phi: float) -> np.ndarray:
    return np.linalg.eigvalsh(model_builder(phi))


def _mirrored_spectra(builder, grid: np.ndarray, map_fn) -> np.ndarray:
    """Eigenvalues of builder(x) per flux x of `grid`, whose point points - 1 - k has
    the complex conjugate matrix of point k: `map_fn` diagonalises the first
    points - points // 2 points (a process pool gets a picklable partial when
    `builder` is one), and row points - 1 - k repeats row k.  FloatingPointError
    names the first flux whose spectrum is not finite."""
    points = grid.size
    rows = list(map_fn(partial(_eigenvalues_at, builder), grid[:points - points // 2]))
    for x, row in zip(grid, rows):
        if not np.isfinite(row).all():
            raise FloatingPointError(f"the spectrum at flux {x:.17g} is not finite")
    return np.array(rows + rows[:points // 2][::-1])


def butterfly_spectrum(size: int, points: int, j_x: float, j_y: float, m_max: int,
                       boundary: str, *, map_fn=map) -> ButterflyResult:
    """Spectra of the size x size square lattice at `points` fluxes alpha evenly
    spaced over [0, 2 pi], ends included, mirrored about pi (`square_lattice_matrix`)."""
    alphas = np.linspace(0.0, 2.0 * math.pi, points)
    builder = partial(square_lattice_matrix, size, size, j_x=j_x, j_y=j_y, m_max=m_max,
                      boundary=boundary)
    return ButterflyResult(alphas=alphas, eigenvalues=_mirrored_spectra(builder, alphas, map_fn))


def flux_sweep(n_cells: int, j1: float, j2: float, points: int, boundary: str, *,
               map_fn=map) -> FluxSweepResult:
    """Rhombic-ladder spectra at `points` fluxes phi evenly spaced over [-pi, pi],
    ends included, plus the minimal inter-band gap.

    Only the flux bond is complex, so the matrix at -phi is the conjugate of the
    one at phi, and `_mirrored_spectra` diagonalises half the grid.  The gap at
    each flux is the smallest |E| outside the geometry-protected zero band; the
    zero-band size is the minimal count of eigenvalues below ZERO_BAND_TOL max |E|
    across the sweep.  It closes where a dispersive band touches the zero band.
    """
    phis = np.linspace(-math.pi, math.pi, points)
    builder = partial(rhombic_ladder_matrix, n_cells, j1, j2, boundary=boundary)
    table = _mirrored_spectra(builder, phis, map_fn)
    absvals = np.sort(np.abs(table), axis=1)
    scale = max(np.abs(table).max(), 1e-300)
    n_zero = int(min((row < ZERO_BAND_TOL * scale).sum() for row in absvals))
    if n_zero >= table.shape[1]:
        gaps = np.zeros(phis.size)
    else:
        gaps = absvals[:, n_zero]
    return FluxSweepResult(fluxes=phis, eigenvalues=table, gaps=gaps)
