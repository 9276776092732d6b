import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from phonon_gauge import couplings, fock
from phonon_gauge.couplings import (
    BrokenCycleError,
    CouplingMatrix,
    DomainError,
    bare_coupling_matrix,
    bessel_first_kind_array,
    check_dipolar_reach,
    dressed_factor,
    effective_coupling_matrix,
    plaquette_flux,
)
from phonon_gauge.model import ConfigurationError, GeometryError, TrapArray, build_array, \
    cosine_drive, laser_drive

# -- Bessel J -----------------------------------------------------------------


def power_series_j(order, x, terms=80):
    """Independent ascending-series oracle for small arguments."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (2 * k + order) / (
            math.factorial(k) * math.factorial(k + order)
        )
    return total


def test_bessel_trivial_values():
    assert bessel_first_kind_array(5, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_bessel_matches_power_series_oracle():
    for x in (0.1, 0.7, 1.2, 3.3, 6.5):
        table = bessel_first_kind_array(7, x)
        for order in (0, 1, 2, 3, 7):
            assert table[order] == pytest.approx(power_series_j(order, x), abs=1e-13)


def test_bessel_frozen_value():
    # computed from the power-series oracle above
    assert bessel_first_kind_array(1, 1.2)[1] == pytest.approx(0.4982890575672154, abs=1e-12)


def test_bessel_against_scipy_over_supported_range():
    orders = np.array([0, 1, 2, 5, 13, 40, 60, 149, 151])
    worst = 0.0
    for x in (0.05, 1.2, 7.9, 8.1, 12.0, 25.0, 49.9, 50.0):
        table = bessel_first_kind_array(151, x)
        worst = max(worst, np.abs(table[orders] - jv(orders, x)).max())
    assert worst < 1e-12


def test_bessel_recurrence_against_scipy_up_to_twice_the_drive_strength():
    """The dressed factor's arguments reach 2 * 50; near and below the
    leading-term switch at 1e-8 the recurrence rescales its steps."""
    x = np.concatenate([np.linspace(0.0, 100.0, 801), [1e-9, 9.99e-9, 1e-8, 1.01e-8, 1e-7]])
    orders = np.arange(152)
    table = couplings._bessel_j(range(152), x, 100.0)
    assert np.abs(table - jv(orders[:, None], x)).max() < 1e-14
    for top in (0, 3, 151):  # each x on its own reach, as bessel_first_kind_array does
        worst = max(np.abs(couplings._bessel_j(range(top + 1), np.asarray(v), v)
                           - jv(orders[:top + 1], v)).max() for v in x[::8])
        assert worst < 1e-14


def test_bessel_domain_error():
    with pytest.raises(DomainError):
        bessel_first_kind_array(0, 50.1)
    with pytest.raises(DomainError):
        bessel_first_kind_array(2, -1.0)


@pytest.mark.parametrize("n_top", [-1, -5])
def test_bessel_table_rejects_a_negative_top_order(n_top):
    # range(n_top + 1) would be empty, and the table an empty array
    with pytest.raises(DomainError, match="n_top >= 0"):
        bessel_first_kind_array(n_top, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_bessel_table_rejects_a_non_finite_argument(x):
    # nan passes both range comparisons and would reach the recurrence's start order
    with pytest.raises(DomainError, match="finite"):
        bessel_first_kind_array(3, x)


# -- dressed factor -----------------------------------------------------------


@pytest.mark.parametrize("r", [-1, 151, 99999999999])
def test_dressed_factor_order_outside_the_bessel_table(r):
    with pytest.raises(DomainError, match=r"resonance_order must be in \[0, 150\]"):
        dressed_factor(r, 0.6, math.pi)


@pytest.mark.parametrize("eta", [-0.1, 50.5, math.inf, math.nan])
def test_dressed_factor_strength_outside_the_bessel_table(eta):
    with pytest.raises(DomainError, match=r"eta_d must be in \[0, 50.0\]"):
        dressed_factor(1, eta, math.pi)


def test_dressed_factor_trivial():
    assert dressed_factor(0, 0.8, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert dressed_factor(0, 0.0, 1.3) == pytest.approx(1.0, abs=1e-14)
    assert abs(dressed_factor(1, 0.0, 1.3)) < 1e-14


def test_dressed_factor_full_phase_step_suppression():
    for eta in (0.1, 0.3, 0.6, 1.0, 2.0):
        assert abs(dressed_factor(1, eta, 2 * math.pi)) < 1e-12


def test_dressed_factor_frozen_magnitude():
    # |F_1(0.6, pi)| equals |J_1(1.2)|; value frozen from the series oracle
    assert abs(dressed_factor(1, 0.6, math.pi)) == pytest.approx(
        0.4982890575672154, abs=1e-10
    )


def test_dressed_factor_small_eta_limit():
    for r in (0, 1, 2):
        val = dressed_factor(r, 1e-9, 0.7)
        assert abs(val - (1.0 if r == 0 else 0.0)) < 1e-8


def test_dressed_factor_truncation_converged():
    a = dressed_factor(2, 1.9, 2.1)
    # rebuild with a much longer tail by shifting eta's cutoff indirectly:
    s = 80
    brute = sum(
        jv(k, 1.9) * jv(k + 2, 1.9) * np.exp(1j * (k + 1.0) * 2.1)
        for k in range(-s, s + 1)
    )
    assert a == pytest.approx(brute, abs=1e-14)


@pytest.mark.parametrize("r", [0, 1, 2, 3, 7, 150])
@pytest.mark.parametrize("eta", [0.0, 1e-9, 0.6, 2.0, 7.9, 8.1, 25.0, 50.0])
def test_dressed_factor_matches_the_brute_force_series(r, eta):
    """The closed form against sum_s J_s J_{s+r} exp(i (s + r/2) dphi) from scipy's jv."""
    dphis = np.linspace(-7.0, 13.0, 61)
    s = np.arange(-int(eta) - 60 - r, int(eta) + 61)
    brute = np.exp(1j * np.multiply.outer(dphis, s + r / 2.0)) @ (jv(s, eta) * jv(s + r, eta))
    values = dressed_factor(r, eta, dphis)
    assert np.abs(values - brute).max() < 1e-12
    # i^r times a real number: the other part is exactly zero
    assert not np.any(values.imag if r % 2 == 0 else values.real)


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(min_value=0, max_value=3),
    eta=st.floats(min_value=0.0, max_value=2.0),
    dphi=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_dressed_factor_closed_form_equivalence(r, eta, dphi):
    """|F_r(eta, dphi)| equals |J_r(2 eta sin(dphi/2))| (Bessel addition)."""
    series = abs(dressed_factor(r, eta, dphi))
    closed = abs(jv(r, 2.0 * eta * math.sin(dphi / 2.0)))
    assert series == pytest.approx(closed, abs=1e-10)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_dressed_factor_array_matches_scalar_calls_exactly(r):
    dphis = np.linspace(0.0, 2 * math.pi, 81)
    for eta in np.linspace(0.0, 2.0, 9):
        values = dressed_factor(r, eta, dphis)
        assert values.shape == dphis.shape
        assert values.tolist() == [dressed_factor(r, eta, dp) for dp in dphis]
    grid = dressed_factor(r, 0.7, dphis.reshape(9, 9))
    assert grid.shape == (9, 9)
    assert grid.ravel().tolist() == dressed_factor(r, 0.7, dphis).tolist()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dressed_map_memory_is_its_table_and_a_block():
    dphis = np.linspace(0.0, 2 * math.pi, 20000)
    assert _traced_peak(couplings.dressed_map, 1, np.linspace(0.0, 25.0, 2), dphis) < 8e6
    dphis = np.linspace(0.0, 2 * math.pi, 2_000_000)
    table = 2 * dphis.size * 8  # 32 MB
    assert _traced_peak(couplings.dressed_map, 1, [0.0, 2.0], dphis) < table + 16e6


def test_dressed_map_blocks_match_one_call():
    dphis = np.linspace(-1.0, 7.0, fock.block_items(80) + 5)  # a block and a ragged one
    row = couplings.dressed_map(2, [1.3], dphis).magnitude[0]
    assert row.tolist() == np.abs(dressed_factor(2, 1.3, dphis)).tolist()


def test_dressed_map_shape():
    # first-order assisted hopping dies at phase steps 0 and 2 pi and peaks
    # near pi for moderate drive strengths
    dphis = np.linspace(0.0, 2 * math.pi, 41)
    for eta in (0.1, 0.4, 0.9):
        mags = np.array([abs(dressed_factor(1, eta, dp)) for dp in dphis])
        assert mags[0] < 1e-12 and mags[-1] < 1e-12
        assert abs(dphis[np.argmax(mags)] - math.pi) < 1e-9


# -- bare couplings -----------------------------------------------------------


def test_two_ion_axial_coupling():
    arr = build_array("link", (2,), coulomb_beta=0.002)
    m = bare_coupling_matrix(arr, "x")
    assert m.matrix[1, 0] == pytest.approx(-0.002, abs=1e-18)


def test_two_ion_transverse_coupling():
    arr = build_array("link", (2,), coulomb_beta=0.002)
    for direction in ("y", "z"):
        m = bare_coupling_matrix(arr, direction)
        assert m.matrix[1, 0] == pytest.approx(+0.001, abs=1e-18)


def test_dipolar_distance_scaling():
    near = bare_coupling_matrix(build_array("link", (2,)), "z").matrix[1, 0]
    # y-bond of a plaquette with doubled spacing sits at separation 2
    far = bare_coupling_matrix(build_array("plaquette", (2, 2), spacing_y=2.0), "z").matrix
    assert far[3, 0] == pytest.approx(near / 8.0, rel=1e-12)


def test_gradient_enters_frequency_factor():
    arr = build_array("link", (2,), gradient=0.05)
    m = bare_coupling_matrix(arr, "z")
    assert m.matrix[1, 0] == pytest.approx(0.001 / math.sqrt(1.05), rel=1e-12)
    ref = bare_coupling_matrix(arr, "z", reference_frequencies=True)
    assert ref.matrix[1, 0] == pytest.approx(0.001, rel=1e-12)


def test_cutoff_range_drops_far_pairs():
    arr = build_array("square", (1, 6))
    m = bare_coupling_matrix(arr, "z", cutoff_range=3)
    assert m.matrix[0, 3] != 0
    assert m.matrix[0, 4] == 0


def _geometry_message(fn, *args):
    try:
        fn(*args)
    except GeometryError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("layout, dims", [("plaquette", ()), ("square", (7, 3)),
                                          ("square", (1, 9)), ("rhombic_ladder", (5,))])
@pytest.mark.parametrize("spacing_x, spacing_y", [(1.0, 1e70), (1e-70, 1.0), (1.0, 3e60),
                                                  (1.0, 2e61), (0.7, 1e61), (1.0, 1.0),
                                                  (1.0, 1e-70), (1e70, 1.0), (1.0, 2e-62),
                                                  (1.0, 3e-62)])
@pytest.mark.parametrize("cutoff_range", [1.0, 1.5, 3.0, 1e9])
def test_dipolar_reach_names_the_pair_of_the_pair_table(layout, dims, spacing_x, spacing_y,
                                                        cutoff_range):
    arr = build_array(layout, dims, spacing_x=spacing_x, spacing_y=spacing_y, gradient=0.05)
    want = _geometry_message(bare_coupling_matrix, arr, "z", cutoff_range)
    assert _geometry_message(check_dipolar_reach, arr, cutoff_range) == want
    if (layout, spacing_y, cutoff_range) == ("plaquette", 1e70, 3.0):
        assert want.startswith("sites 2 and 0 are 1e+70 x-spacings apart")  # the diagonal
    if (layout, spacing_y) == ("plaquette", 1e-70):
        assert want.startswith("sites 2 and 1 are 1e-70 x-spacings apart, too close")
    if spacing_y == 3e-62:  # |dr|^5 = 2.4e-308, just above the smallest normal float
        assert want is None
    if spacing_x == spacing_y:
        assert want is None


def test_bare_matrix_is_hermitian_with_zero_diagonal():
    arr = build_array("square", (3, 2), gradient=0.02)
    m = bare_coupling_matrix(arr, "z").matrix
    assert np.array_equal(m, m.conj().T)
    assert np.all(np.diag(m) == 0)


def _hermitian(n):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m += m.conj().T
    np.fill_diagonal(m, 0)
    return m


def test_hermiticity_check_copies_no_whole_matrix():
    m = _hermitian(1024)
    assert _traced_peak(CouplingMatrix, m) < m.nbytes / 4


@pytest.mark.parametrize("i, j", [(199, 5), (5, 199), (198, 199)])
def test_one_entry_off_hermitian_in_the_last_row_block_raises(monkeypatch, i, j):
    m = _hermitian(200)
    monkeypatch.setattr(fock, "BLOCK_BYTES", 16 * 200 * 16)  # 12 blocks of 16 rows, one of 8
    m[i, j] = complex(m[i, j].real, np.nextafter(m[i, j].imag, math.inf))  # one ulp off
    with pytest.raises(ValueError, match="exactly Hermitian"):
        CouplingMatrix(matrix=m)


def test_single_site_has_no_bonds():
    arr = build_array("square", (1, 1))
    assert np.all(bare_coupling_matrix(arr, "z").matrix == 0)


# -- effective couplings ------------------------------------------------------


def _plaquette_setup(phase_x, phase_y, eta_d=0.6):
    arr = build_array("plaquette", (2, 2), gradient=0.05)
    drv = cosine_drive(0.05, eta_d, 1, phase_x=phase_x, phase_y=phase_y)
    return arr, drv


def test_zero_strength_drive_kills_assisted_bonds():
    arr, drv = _plaquette_setup(0.0, 0.0, eta_d=0.0)
    eff = effective_coupling_matrix(arr, drv, "z")
    bare = bare_coupling_matrix(arr, "z")
    assert abs(eff.matrix[1, 0]) < 1e-16  # x bond suppressed, J_1(0) = 0
    assert eff.matrix[3, 0] == bare.matrix[3, 0]  # y bond untouched


def test_diagonal_bonds_vanish_at_compensating_phases():
    # phase_x = 2 pi - phase_y makes the up-diagonal step a full turn
    arr, drv = _plaquette_setup(2 * math.pi - 1.1, 1.1)
    eff = effective_coupling_matrix(arr, drv, "z")
    assert abs(eff.matrix[2, 0]) < 1e-14


def test_effective_plaquette_flux_is_pi_at_phase_y_pi():
    arr, drv = _plaquette_setup(math.pi, math.pi)
    eff = effective_coupling_matrix(arr, drv, "z")
    flux = plaquette_flux(eff, [0, 1, 2, 3])
    assert abs(flux) == pytest.approx(math.pi, abs=1e-12)


def test_square_lattice_fluxes_match_minus_r_phase_y():
    arr = build_array("square", (3, 3), gradient=0.05)
    drv = cosine_drive(0.05, 0.6, 1, phase_x=0.4, phase_y=0.9)
    eff = effective_coupling_matrix(arr, drv, "z")
    idx = lambda ix, iy: ix * 3 + iy
    for ix in range(2):
        for iy in range(2):
            cyc = [idx(ix, iy), idx(ix + 1, iy), idx(ix + 1, iy + 1), idx(ix, iy + 1)]
            flux = plaquette_flux(eff, cyc)
            assert flux == pytest.approx(-0.9, abs=1e-12)


def test_columns_beyond_adjacent_are_zero():
    arr = build_array("square", (3, 1), gradient=0.05)
    drv = cosine_drive(0.05, 0.6, 1)
    eff = effective_coupling_matrix(arr, drv, "z")
    assert eff.matrix[2, 0] == 0


def test_effective_requires_gradient_and_resonance():
    arr = build_array("plaquette", (2, 2))
    drv = cosine_drive(0.05, 0.6, 1)
    with pytest.raises(ConfigurationError):
        effective_coupling_matrix(arr, drv, "z")
    arr = build_array("plaquette", (2, 2), gradient=0.07)
    with pytest.raises(ConfigurationError):
        effective_coupling_matrix(arr, drv, "z")


def _loop_bare_matrix(array, direction, cutoff_range=3.0):
    """Pair-by-pair reference for bare_coupling_matrix."""
    pos, lat, w = array.positions, array.lattice, array.frequencies()
    axis = {"x": 0, "y": 1, "z": None}[direction]
    m = np.zeros((array.n_sites, array.n_sites), dtype=complex)
    for i in range(array.n_sites):
        for j in range(i):
            if math.hypot(lat[i][0] - lat[j][0], lat[i][1] - lat[j][1]) > cutoff_range + 1e-9:
                continue
            dr = pos[i] - pos[j]
            dist = math.hypot(dr[0], dr[1])
            comp = 0.0 if axis is None else dr[axis]
            geom = (3.0 * comp * comp - dist * dist) / dist**5
            m[i, j] = m[j, i] = -(array.coulomb_beta / 2.0) * geom / math.sqrt(w[i] * w[j])
    return m


@pytest.mark.parametrize("layout, dims", [("square", (6, 5)), ("rhombic_ladder", (4,))])
@pytest.mark.parametrize("direction", ["x", "y", "z"])
def test_bare_matrix_equals_pair_loop(layout, dims, direction):
    arr = build_array(layout, dims, spacing_y=0.7, gradient=0.05)
    ref = _loop_bare_matrix(arr, direction)
    assert np.count_nonzero(ref) > 0
    assert np.array_equal(bare_coupling_matrix(arr, direction).matrix, ref)


def _loop_effective_matrix(array, drive, direction, diagonal_bonds=True):
    """Bond-by-bond reference for effective_coupling_matrix."""
    bare = _loop_bare_matrix(array, direction)
    phases = drive.site_phases(array)
    r, lat = drive.resonance_order, array.lattice
    m = np.zeros_like(bare)
    for i in range(array.n_sites):
        for j in range(array.n_sites):
            if i == j or bare[i, j] == 0:
                continue
            dix = lat[i][0] - lat[j][0]
            if dix == 0:
                m[i, j] = bare[i, j]
            elif dix == 1 and (diagonal_bonds or lat[i][1] == lat[j][1]):
                amp = bare[i, j] * dressed_factor(r, drive.eta_d, phases[i] - phases[j]) \
                    * np.exp(-0.5j * r * (phases[i] + phases[j]))
                m[i, j] = amp
                m[j, i] = np.conj(amp)
    return m


@pytest.mark.parametrize("layout, dims", [("square", (4, 3)), ("rhombic_ladder", (3,))])
@pytest.mark.parametrize("drive", [
    laser_drive(0.75, 0.05, 0.2, 1, phase_x=1.1, phase_y=0.37),
    cosine_drive(0.025, 1.3, 2, phase_x=2.0, phase_y=-0.7),
])
@pytest.mark.parametrize("diagonal_bonds", [True, False])
def test_effective_matrix_equals_bond_loop(layout, dims, drive, diagonal_bonds):
    arr = build_array(layout, dims, spacing_y=0.7, gradient=0.05)
    eff = effective_coupling_matrix(arr, drive, "z", diagonal_bonds=diagonal_bonds)
    ref = _loop_effective_matrix(arr, drive, "z", diagonal_bonds)
    assert np.count_nonzero(ref) > 0
    assert np.array_equal(eff.matrix, ref)


def _tril_pair_table(array, direction, cutoff_range, reference_frequencies):
    """Reference pair table: every pair i > j at once through np.tril_indices,
    with the arithmetic of the walk in `couplings._pair_table`."""
    pos, lat = array.positions, np.array(array.lattice, dtype=float)
    w = np.full(array.n_sites, array.base_frequency) if reference_frequencies \
        else array.frequencies()
    axis = {"x": 0, "y": 1, "z": None}[direction]
    i, j = np.tril_indices(array.n_sites, -1)
    keep = np.hypot(lat[i, 0] - lat[j, 0], lat[i, 1] - lat[j, 1]) <= cutoff_range + 1e-9
    i, j = i[keep], j[keep]
    dr = pos[i] - pos[j]
    dist = np.hypot(dr[:, 0], dr[:, 1])
    comp = np.zeros_like(dist) if axis is None else dr[:, axis]
    distinct, which = np.unique(dist, return_inverse=True)
    dist5 = np.array([d**5 for d in distinct.tolist()])[which]
    geom = (3.0 * comp * comp - dist * dist) / dist5
    return i, j, -(array.coulomb_beta / 2.0) * geom / np.sqrt(w[i] * w[j])


def _dense_round_trip_effective(array, drive, direction, cutoff_range, reference_frequencies,
                                diagonal_bonds):
    """Reference effective matrix: the bare pairs scattered into a dense
    matrix and read back with np.nonzero, both orientations of each pair."""
    n = array.n_sites
    bare = np.zeros((n, n), dtype=complex)
    i, j, amp = _tril_pair_table(array, direction, cutoff_range, reference_frequencies)
    bare[i, j] = amp
    bare[j, i] = amp
    phases, r, lat = drive.site_phases(array), drive.resonance_order, np.array(array.lattice)
    m = np.zeros((n, n), dtype=complex)
    i, j = np.nonzero(bare)
    dix = lat[i, 0] - lat[j, 0]
    within = dix == 0
    m[i[within], j[within]] = bare[i[within], j[within]]
    assisted = dix == 1
    if not diagonal_bonds:
        assisted &= lat[i, 1] == lat[j, 1]
    i, j = i[assisted], j[assisted]
    dphi, bond_dphi = np.unique(phases[i] - phases[j], return_inverse=True)
    scaled = bare[i, j] * dressed_factor(r, drive.eta_d, dphi)[bond_dphi]
    turn = np.exp(-0.5j * r * (phases[i] + phases[j]))
    amp = np.empty(i.size, dtype=complex)
    amp.real = scaled.real * turn.real - scaled.imag * turn.imag
    amp.imag = scaled.real * turn.imag + scaled.imag * turn.real
    m[i, j] = amp
    m[j, i] = np.conj(amp)
    return bare, m


def _permuted_square(nx, ny, spacing_y):
    """A square array whose sites are listed in a shuffled order, so that
    pairs i > j with i_x < j_x occur."""
    lattice = build_array("square", (nx, ny)).lattice
    order = np.random.default_rng(7).permutation(len(lattice))
    return TrapArray(lattice=tuple(lattice[k] for k in order), spacing_y=spacing_y,
                     gradient=0.05)


@pytest.mark.parametrize("layout, dims", [("link", ()), ("plaquette", ()), ("square", (4, 3)),
                                          ("square", (1, 6)), ("rhombic_ladder", (3,)),
                                          ("permuted", (4, 4))])
@pytest.mark.parametrize("spacing_y", [1.0, 0.7, 1.37, 1 / math.sqrt(2)])
def test_coupling_matrices_are_byte_identical_to_the_dense_round_trip(layout, dims, spacing_y):
    # spacing_y = 1 / sqrt(2) gives diagonal bonds with a bare amplitude of
    # exactly -0.0 in direction y, which the dense round trip drops
    if layout == "permuted":
        arr = _permuted_square(*dims, spacing_y)
        i, j = np.tril_indices(arr.n_sites, -1)
        lat = np.array(arr.lattice)
        assert np.any(lat[i, 0] < lat[j, 0]) and np.any(lat[i, 0] > lat[j, 0])
    else:
        arr = build_array(layout, dims, spacing_y=spacing_y, gradient=0.05)
    drives = [laser_drive(0.75, 0.05, 0.2, 1, phase_x=px, phase_y=py)
              for px, py in ((math.pi, math.pi), (1.1, 0.37))]
    drives.append(cosine_drive(0.025, 1.3, 2, phase_x=2.0, phase_y=-0.7))
    for direction in "xyz":
        for cutoff_range in (1.0, 2.0, 3.0, 7.5):
            for ref in (False, True):
                want_bare = None
                for drive in drives:
                    for diagonal_bonds in (True, False):
                        want_bare, want = _dense_round_trip_effective(
                            arr, drive, direction, cutoff_range, ref, diagonal_bonds)
                        got = effective_coupling_matrix(arr, drive, direction, cutoff_range,
                                                        reference_frequencies=ref,
                                                        diagonal_bonds=diagonal_bonds)
                        assert got.matrix.tobytes() == want.tobytes()
                got = bare_coupling_matrix(arr, direction, cutoff_range,
                                           reference_frequencies=ref)
                assert got.matrix.tobytes() == want_bare.tobytes()


def test_reach_check_in_range_builds_no_pair_table(monkeypatch):
    def never(*args):
        raise AssertionError("pair table built for an array within the float range")

    monkeypatch.setattr(couplings, "_pair_table", never)
    arr = build_array("square", (64, 64), spacing_x=1e-50, spacing_y=1e-30)
    check_dipolar_reach(arr, 1e4)  # distances from 1 to 6.3e21 x-spacings


def test_laser_drive_builds_same_effective_matrix_as_cosine():
    arr = build_array("plaquette", (2, 2), gradient=0.05)
    cos = cosine_drive(0.05, 0.6, 1, phase_x=math.pi, phase_y=math.pi)
    las = laser_drive(0.75, 0.05, 0.2, 1, phase_x=math.pi, phase_y=math.pi)
    m_cos = effective_coupling_matrix(arr, cos, "z").matrix
    m_las = effective_coupling_matrix(arr, las, "z").matrix
    assert np.allclose(m_cos, m_las, atol=1e-15)


# -- plaquette flux -----------------------------------------------------------


def test_flux_of_real_positive_ring_is_zero():
    m = np.zeros((4, 4), complex)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        m[a, b] = m[b, a] = 0.5
    assert plaquette_flux(m, [0, 1, 2, 3]) == 0.0


def test_flux_errors():
    m = np.zeros((4, 4), complex)
    m[0, 1] = m[1, 0] = 1.0
    with pytest.raises(BrokenCycleError):
        plaquette_flux(m, [0, 1])
    with pytest.raises(BrokenCycleError):
        plaquette_flux(m, [0, 1, 2])  # bond 1 -> 2 missing


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-math.pi, max_value=math.pi),
                min_size=4, max_size=4))
def test_flux_gauge_invariance(thetas):
    arr = build_array("plaquette", (2, 2), gradient=0.05)
    drv = cosine_drive(0.05, 0.6, 1, phase_x=1.0, phase_y=0.7)
    eff = effective_coupling_matrix(arr, drv, "z")
    gauge = np.exp(1j * np.array(thetas))
    rotated = gauge[:, None] * eff.matrix * np.conj(gauge)[None, :]
    base = plaquette_flux(eff, [0, 1, 2, 3])
    assert plaquette_flux(rotated, [0, 1, 2, 3]) == pytest.approx(base, abs=1e-12)


def test_flux_gauge_invariance_of_spectrum():
    arr = build_array("plaquette", (2, 2), gradient=0.05)
    drv = cosine_drive(0.05, 0.6, 1, phase_x=1.0, phase_y=0.7)
    eff = effective_coupling_matrix(arr, drv, "z")
    rng = np.random.default_rng(7)
    gauge = np.exp(1j * rng.uniform(-math.pi, math.pi, 4))
    rotated = gauge[:, None] * eff.matrix * np.conj(gauge)[None, :]
    a = np.linalg.eigvalsh(eff.matrix)
    b = np.linalg.eigvalsh(rotated)
    assert np.allclose(a, b, atol=1e-12)
