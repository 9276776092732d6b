import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from phonon_gauge import fock
from phonon_gauge.cli import run_experiment
from phonon_gauge.config import parse_config
from phonon_gauge.model import laser_drive
from phonon_gauge.spectra import (
    EdgeState,
    LadderSpectrumResult,
    NonHermitianError,
    _localization_length,
    butterfly_spectrum,
    dressed_ladder_couplings,
    edge_state_report,
    eigensystem,
    flat_band_report,
    flux_sweep,
    gap_windows_from_clusters,
    rhombic_ladder_cells,
    rhombic_ladder_matrix,
    square_lattice_matrix,
)

# -- ladder builder -----------------------------------------------------------


def test_ladder_sizes():
    assert rhombic_ladder_matrix(10, 1, 1, 0.0).shape == (31, 31)
    assert rhombic_ladder_matrix(10, 1, 1, 0.0, "periodic").shape == (30, 30)


def test_single_cell_without_rung_splits_into_dimers():
    # j2 = 0 keeps only hub-upper and lower-nexthub bonds: two decoupled
    # dimers, eigenvalues +-j1 twice (direct 4x4 diagonalization oracle)
    m = rhombic_ladder_matrix(1, 1.3, 0.0, 0.0)
    vals = np.sort(np.linalg.eigvalsh(m))
    assert np.allclose(vals, [-1.3, -1.3, 1.3, 1.3], atol=1e-12)


def test_pi_flux_periodic_bands_are_exactly_flat():
    m = rhombic_ladder_matrix(10, 1.0, 1.0, math.pi, "periodic")
    spectrum = eigensystem(m)
    clusters = flat_band_report(spectrum)
    centers = sorted(c.energy for c in clusters)
    assert np.allclose(centers, [-2.0, 0.0, 2.0], atol=1e-12)
    assert all(c.spread < 1e-10 for c in clusters)
    assert all(c.count == 10 for c in clusters)


def test_pi_flux_band_positions_scale_with_couplings():
    j1, j2 = 0.8, 1.7
    m = rhombic_ladder_matrix(8, j1, j2, math.pi, "periodic")
    vals = np.linalg.eigvalsh(m)
    top = math.sqrt(2 * (j1**2 + j2**2))
    assert np.allclose(sorted(set(np.round(vals, 10))), [-top, 0.0, top], atol=1e-10)


def test_zero_flux_dispersive_bands():
    m = rhombic_ladder_matrix(10, 1.0, 1.0, 0.0)
    spectrum = eigensystem(m)
    clusters = flat_band_report(spectrum)
    for c in clusters:
        if abs(c.energy) > 1e-6:  # the geometric zero band stays degenerate
            assert c.count <= 2


def test_zero_energy_cluster_exists_for_all_fluxes():
    for phi in np.linspace(-math.pi, math.pi, 7):
        m = rhombic_ladder_matrix(6, 1.0, 1.0, phi)
        clusters = flat_band_report(eigensystem(m))
        assert any(abs(c.energy) < 1e-9 and c.count >= 3 for c in clusters)


def _loop_rhombic_ladder(n_cells, j1, j2, phi, boundary="open"):
    """The cell-by-cell reference build of rhombic_ladder_matrix."""
    p = n_cells
    n = 3 * p + 1 if boundary == "open" else 3 * p
    hub = lambda j: 3 * (j % p) if boundary == "periodic" else 3 * j
    m = np.zeros((n, n), dtype=complex)

    def add(i, k, v):
        m[i, k] += v
        m[k, i] += np.conj(v)

    for j in range(p):
        up, low = 3 * j + 1, 3 * j + 2
        add(hub(j), up, j1)
        add(hub(j), low, j2)
        add(low, hub(j + 1), j1)
        add(up, hub(j + 1), j2 * np.exp(1j * phi))
    return m


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_ladder_equals_the_loop_build_byte_for_byte(boundary):
    # one periodic cell joins its hub to itself: two bonds land on each hub pair
    for cells, j1, j2, phi in itertools.product((1, 2, 3, 10), (1, 0.7), (0.0, 1.3, 2),
                                                (0.0, -0.4, 1.1, math.pi, -math.pi, 7.9)):
        fast = rhombic_ladder_matrix(cells, j1, j2, phi, boundary)
        loop = _loop_rhombic_ladder(cells, j1, j2, phi, boundary)
        assert fast.tobytes() == loop.tobytes(), (cells, j1, j2, phi)


def test_dressed_ladder_couplings_match_at_pi():
    drive = laser_drive(0.75, 0.05, 0.2, 1, phase_x=math.pi, phase_y=math.pi)
    f_mag = 0.4982890575672154
    ratio = f_mag ** (-1.0 / 3.0)  # the magnitude-matched geometry
    j1, j2, phi = dressed_ladder_couplings(1.0, drive, ratio)
    assert j2 == pytest.approx(j1, rel=1e-10)
    assert phi == pytest.approx(math.pi)


# -- eigensystem --------------------------------------------------------------


def test_eigensystem_trivial():
    s = eigensystem(np.eye(4))
    assert np.allclose(s.eigenvalues, 1.0)
    s2 = eigensystem(np.array([[0.0, 0.7], [0.7, 0.0]]))
    assert np.allclose(s2.eigenvalues, [-0.7, 0.7])


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        eigensystem(np.array([[0.0, 1.0], [0.5, 0.0]]))


class _ReachedEigh(Exception):
    """Raised in place of numpy's eigh: the Hermiticity check passed."""


def _stop_at_eigh(monkeypatch):
    def stop(*args, **kwargs):
        raise _ReachedEigh

    monkeypatch.setattr(np.linalg, "eigh", stop)


def test_eigensystem_hermiticity_check_copies_no_whole_matrix(monkeypatch):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
    m += m.conj().T
    _stop_at_eigh(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(_ReachedEigh):
            eigensystem(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 4


@pytest.mark.parametrize("i, j", [(199, 5), (5, 199), (198, 199)])
def test_eigensystem_hermiticity_tolerance_in_the_last_row_block(monkeypatch, i, j):
    monkeypatch.setattr(fock, "BLOCK_BYTES", 16 * 200 * 16)  # 12 blocks of 16 rows, one of 8
    m = np.zeros((200, 200), dtype=complex)  # the largest entry is 4
    m[0, 1] = m[1, 0] = 4.0
    m[i, j] = 3e-12  # a defect of 3e-12 over the scale 4 passes
    _stop_at_eigh(monkeypatch)
    with pytest.raises(_ReachedEigh):
        eigensystem(m)
    m[i, j] = 5e-12  # 5e-12 does not
    with pytest.raises(NonHermitianError, match="not Hermitian within 1e-12"):
        eigensystem(m)


def test_eigensystem_hermiticity_check_passes_a_nan(monkeypatch):
    # a nan makes the scale and the defect nan, and the check lets eigh see it
    m = np.eye(40)
    m[37, 2] = math.nan
    _stop_at_eigh(monkeypatch)
    with pytest.raises(_ReachedEigh):
        eigensystem(m)


def test_eigensystem_conventions_and_residuals():
    m = rhombic_ladder_matrix(6, 1.0, 0.7, 1.1)
    s = eigensystem(m)
    assert np.all(np.diff(s.eigenvalues) >= 0)
    gram = s.eigenvectors.conj().T @ s.eigenvectors
    assert np.abs(gram - np.eye(s.n)).max() < 1e-10
    scale = np.abs(m).max()
    for k in range(s.n):
        v = s.eigenvectors[:, k]
        res = np.linalg.norm(m @ v - s.eigenvalues[k] * v)
        assert res < 1e-9 * scale


def test_eigenvalue_gauge_invariance():
    m = rhombic_ladder_matrix(5, 1.0, 1.0, 0.9)
    rng = np.random.default_rng(3)
    gauge = np.exp(1j * rng.uniform(-math.pi, math.pi, m.shape[0]))
    rotated = gauge[:, None] * m * np.conj(gauge)[None, :]
    a = np.linalg.eigvalsh(m)
    b = np.linalg.eigvalsh(rotated)
    assert np.abs(a - b).max() < 1e-10


def test_flux_periodicity_of_spectrum():
    a = np.linalg.eigvalsh(rhombic_ladder_matrix(6, 1.0, 1.0, 0.63))
    b = np.linalg.eigvalsh(rhombic_ladder_matrix(6, 1.0, 1.0, 0.63 + 2 * math.pi))
    assert np.abs(a - b).max() < 1e-10


# -- edge states and cages ----------------------------------------------------


@pytest.fixture(scope="module")
def open_pi_ladder():
    p = 10
    m = rhombic_ladder_matrix(p, 1.0, 1.0, math.pi)
    return eigensystem(m, cells=rhombic_ladder_cells(p), flux=math.pi)


def test_midgap_edge_states(open_pi_ladder):
    clusters = flat_band_report(open_pi_ladder)
    bulk = [c for c in clusters if c.count >= 3]
    windows = gap_windows_from_clusters(bulk)
    edges = edge_state_report(open_pi_ladder, windows)
    by_window = {w: [e for e in edges if w[0] < e.energy < w[1]] for w in windows}
    assert all(len(v) >= 1 for v in by_window.values())
    assert all(e.boundary_weight > 0.9 for e in edges)


def test_periodic_ladder_has_no_edge_states():
    p = 10
    m = rhombic_ladder_matrix(p, 1.0, 1.0, math.pi, "periodic")
    s = eigensystem(m, cells=rhombic_ladder_cells(p, "periodic"))
    windows = gap_windows_from_clusters(flat_band_report(s))
    assert edge_state_report(s, windows) == []


def test_bulk_flat_band_states_are_not_edge_states(open_pi_ladder):
    s = open_pi_ladder
    sel = np.abs(s.eigenvalues - 2.0) < 1e-9
    # the +2J band holds 9 states; at most 2 of them can hug the ends
    assert (s.boundary_weight[sel] > 0.9).sum() <= 2


@pytest.mark.parametrize("reverse", [False, True], ids=["left", "right"])
def test_localization_length_fits_an_exponential_tail(reverse):
    profile = np.exp(-np.arange(12) / 2.5)
    assert _localization_length(profile[::-1] if reverse else profile) == pytest.approx(2.5)


@pytest.mark.parametrize("cells", [5, 7, 12])
def test_localization_length_of_a_flat_profile_is_infinite(cells):
    assert _localization_length(np.full(cells, 0.1)) == math.inf


def test_ladder_json_writes_null_for_an_infinite_localization_length(open_pi_ladder):
    result = LadderSpectrumResult(spectrum=open_pi_ladder, flat_bands=[], gap_windows=[],
                                  edge_states=[EdgeState(0.5, 0.9, math.inf),
                                               EdgeState(-0.5, 0.8, 2.5)])
    edges = json.loads(result.to_json())["edge_states"]
    assert [e["localization_length"] for e in edges] == [None, 2.5]


def test_cage_projector_locality(open_pi_ladder):
    """pi-flux band projectors couple only cells at most two apart."""
    s = open_pi_ladder
    sel = np.abs(s.eigenvalues - 2.0) < 1e-9
    proj = s.eigenvectors[:, sel] @ s.eigenvectors[:, sel].conj().T
    cells = s.cells
    for i in range(s.n):
        for j in range(s.n):
            if abs(int(cells[i]) - int(cells[j])) > 2:
                assert abs(proj[i, j]) < 1e-10


# -- square lattice -----------------------------------------------------------


def test_zero_flux_open_lattice_is_separable():
    lx, ly, jx, jy = 7, 5, 1.0, 0.7
    vals = np.sort(np.linalg.eigvalsh(square_lattice_matrix(lx, ly, 0.0, jx, jy)))
    kx = np.arange(1, lx + 1)
    ky = np.arange(1, ly + 1)
    analytic = np.sort(
        (2 * jx * np.cos(np.pi * kx / (lx + 1)))[:, None]
        + (2 * jy * np.cos(np.pi * ky / (ly + 1)))[None, :],
        axis=None,
    )
    assert np.abs(vals - analytic).max() < 1e-10


def test_pi_flux_spectrum_is_chiral_symmetric():
    vals = np.sort(np.linalg.eigvalsh(square_lattice_matrix(8, 8, math.pi, 1.0, 1.0)))
    assert np.abs(vals + vals[::-1]).max() < 1e-10


def test_landau_gauge_plaquette_fluxes():
    from phonon_gauge.couplings import plaquette_flux

    alpha = 1.234
    m = square_lattice_matrix(4, 4, alpha, 1.0, 1.0)
    idx = lambda ix, iy: ix * 4 + iy
    for ix in range(3):
        for iy in range(3):
            cyc = [idx(ix, iy), idx(ix + 1, iy), idx(ix + 1, iy + 1), idx(ix, iy + 1)]
            assert plaquette_flux(m, cyc) == pytest.approx(alpha, abs=1e-12)


def test_dipolar_tail_range():
    m = square_lattice_matrix(1, 5, 0.0, 1.0, 1.0, m_max=3)
    assert m[0, 1] == pytest.approx(1.0)
    assert m[0, 2] == pytest.approx(1.0 / 8.0)
    assert m[0, 3] == pytest.approx(1.0 / 27.0)
    assert m[0, 4] == 0.0


def test_rational_flux_band_count():
    """Flux 2 pi / 3 on a torus splits the spectrum into three bands."""
    vals = np.sort(np.linalg.eigvalsh(
        square_lattice_matrix(12, 12, 2 * math.pi / 3, 1.0, 1.0, boundary="periodic")
    ))
    big_gaps = (np.diff(vals) > 0.6).sum()
    assert big_gaps == 2


def _loop_square_lattice(l_x, l_y, alpha, j_x, j_y, m_max=1, boundary="open"):
    """The bond-by-bond reference build of square_lattice_matrix."""
    periodic = boundary == "periodic"
    n = l_x * l_y
    idx = lambda ix, iy: ix * l_y + iy
    m = np.zeros((n, n), dtype=complex)

    def add(i, k, v):
        m[i, k] += v
        m[k, i] += np.conj(v)

    for ix in range(l_x):
        for iy in range(l_y):
            i = idx(ix, iy)
            if ix + 1 < l_x or (periodic and l_x > 1):
                add(i, idx((ix + 1) % l_x, iy), j_x * np.exp(-1j * alpha * iy))
            for step in range(1, m_max + 1):
                if iy + step < l_y or (periodic and l_y > step):
                    add(i, idx(ix, (iy + step) % l_y), j_y / step**3)
    return m


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("m_max", [1, 2, 3, 4])
def test_square_lattice_equals_the_loop_build_byte_for_byte(boundary, m_max):
    # l = 2 and m_max >= l_y make periodic wraps land twice on one pair
    sizes = (1, 2, 3, 5, 12)
    for l_x, l_y, alpha in itertools.product(sizes, sizes, (0.0, 0.7, math.pi, 5.1)):
        fast = square_lattice_matrix(l_x, l_y, alpha, 1.3, 0.6, m_max, boundary)
        loop = _loop_square_lattice(l_x, l_y, alpha, 1.3, 0.6, m_max, boundary)
        assert fast.tobytes() == loop.tobytes(), (l_x, l_y, alpha)


def _counted_eigvalsh(monkeypatch):
    """The real eigvalsh and the list that each patched call appends to."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    return eigvalsh, calls


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("points", [2, 5, 6])
def test_butterfly_mirrors_half_the_flux_grid(monkeypatch, boundary, points):
    eigvalsh, calls = _counted_eigvalsh(monkeypatch)
    alphas = np.linspace(0.0, 2 * math.pi, points)
    for size, m_max in itertools.product(range(2, 8), (1, 2, 3)):
        calls.clear()
        res = butterfly_spectrum(size, points, 1.0, 0.8, m_max, boundary)
        assert len(calls) == points - points // 2
        assert np.array_equal(res.alphas, alphas)
        assert np.array_equal(res.eigenvalues[::-1][:points // 2],
                              res.eigenvalues[:points // 2])
        for alpha, row in zip(alphas, res.eigenvalues):
            direct = eigvalsh(square_lattice_matrix(size, size, alpha, 1.0, 0.8, m_max, boundary))
            assert np.abs(row - direct).max() <= 1e-12 * np.abs(direct).max()


# -- flux sweep ---------------------------------------------------------------


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("points", [2, 5, 6, 41])
def test_flux_sweep_mirrors_half_the_flux_grid(monkeypatch, boundary, points):
    eigvalsh, calls = _counted_eigvalsh(monkeypatch)
    phis = np.linspace(-math.pi, math.pi, points)
    for cells, j2 in itertools.product((1, 2, 3, 10), (0.0, 0.6, 1.0)):
        calls.clear()
        res = flux_sweep(cells, 1.0, j2, points, boundary)
        assert len(calls) == points - points // 2
        assert np.array_equal(res.fluxes, phis)
        assert np.array_equal(res.eigenvalues[::-1][:points // 2],
                              res.eigenvalues[:points // 2])
        for phi, row in zip(phis, res.eigenvalues):
            direct = eigvalsh(rhombic_ladder_matrix(cells, 1.0, j2, phi, boundary))
            assert np.abs(row - direct).max() <= 1e-12 * np.abs(direct).max()


def test_preset_sweep_diagonalises_21_of_its_41_fluxes(monkeypatch, tmp_path):
    _, calls = _counted_eigvalsh(monkeypatch)
    run_experiment(parse_config("experiment = fig2f_flux_sweep\n"), tmp_path)
    assert len(calls) == 21


@pytest.fixture(scope="module")
def ladder_sweep():
    return flux_sweep(10, 1.0, 1.0, 41, "periodic")


def test_sweep_gap_closes_at_zero_flux(ladder_sweep):
    mid = ladder_sweep.gaps[20]
    assert abs(ladder_sweep.fluxes[20]) < 1e-12
    assert mid < 1e-6


def test_sweep_gap_maximal_at_pi(ladder_sweep):
    assert ladder_sweep.gaps[-1] == pytest.approx(math.sqrt(4.0), abs=1e-9)
    assert ladder_sweep.gaps.max() == ladder_sweep.gaps[-1]


def test_sweep_monotone_towards_pi(ladder_sweep):
    g = ladder_sweep.gaps
    assert all(g[i + 1] >= g[i] - 1e-12 for i in range(20, 40))
    assert all(g[i] >= g[i + 1] - 1e-12 for i in range(0, 20))


def test_sweep_spectrum_even_in_flux(ladder_sweep):
    table = ladder_sweep.eigenvalues
    assert np.abs(table - table[::-1]).max() < 1e-10


def test_sweep_csv_shape(ladder_sweep):
    lines = "".join(ladder_sweep.to_csv()).splitlines()
    assert lines[0].startswith("phi,E_1")
    assert lines[0].endswith("min_gap")
    assert len(lines) == 42
