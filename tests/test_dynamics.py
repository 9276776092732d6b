import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from phonon_gauge import dynamics
from phonon_gauge.couplings import CouplingMatrix, bare_coupling_matrix, \
    effective_coupling_matrix
from phonon_gauge.dynamics import (
    DrivenHamiltonian,
    IntegrationError,
    driven_model,
    effective_hamiltonian,
    evolve,
    link_point,
    link_transfer_scan,
    plaquette_experiment,
)
from phonon_gauge.dynamics import _populations
from phonon_gauge.fock import basis_state, build_fock_space, ladder_matrix, \
    single_phonon_state
from phonon_gauge.model import ConfigurationError, build_array, cosine_drive, laser_drive


@pytest.fixture
def link_setup():
    arr = build_array("link", (2,), gradient=0.05)
    space = build_fock_space(2, 4)
    bare = bare_coupling_matrix(arr, "z")
    return arr, space, bare


# -- Hamiltonian builders -----------------------------------------------------


def test_effective_hamiltonian_zero_matrix(link_setup):
    arr, space, bare = link_setup
    zero = CouplingMatrix(matrix=np.zeros((2, 2), complex))
    assert np.all(effective_hamiltonian(zero, space) == 0)


def test_effective_hamiltonian_single_excitation_block(link_setup):
    arr, space, bare = link_setup
    h = effective_hamiltonian(bare, space)
    e10 = basis_state(space, (1, 0))
    e01 = basis_state(space, (0, 1))
    j = bare.matrix[1, 0]
    assert np.vdot(e01, h @ e10) == pytest.approx(j)
    assert np.vdot(e10, h @ e01) == pytest.approx(np.conj(j))
    assert np.abs(h - h.conj().T).max() == 0


def _ring_coupling():
    arr = build_array("plaquette", (2, 2), spacing_y=1.26, gradient=0.05)
    return effective_coupling_matrix(arr, laser_drive(0.25, 0.05, 0.2, phase_x=math.pi,
                                                      phase_y=math.pi), "z")


def _three_site_coupling():
    j = np.array([[0, 0.3 - 0.1j, 0.05j], [0, 0, -0.2 + 0.7j], [0, 0, 0]])
    return CouplingMatrix(matrix=j + j.conj().T)


@pytest.mark.parametrize("coupling, n_max", [
    (lambda: bare_coupling_matrix(build_array("link", (2,)), "z"), 0),
    (lambda: bare_coupling_matrix(build_array("link", (2,), gradient=0.05), "z"), 4),
    (_ring_coupling, 2),
    (_three_site_coupling, 3),
], ids=["link-n_max-0", "link-n_max-4", "ring-n_max-2", "three-site-complex"])
def test_effective_hamiltonian_matches_ladder_products(coupling, n_max):
    matrix = coupling()
    space = build_fock_space(matrix.n, n_max)
    ref = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(matrix.n):
        for j in range(matrix.n):
            if i != j and matrix.matrix[i, j] != 0:
                ref += matrix.matrix[i, j] * (ladder_matrix(space, i, "raise")
                                              @ ladder_matrix(space, j, "lower"))
    h = effective_hamiltonian(matrix, space)
    assert h.tobytes() == ref.tobytes()


def test_driven_hamiltonian_is_periodic_with_a_normal_drive(link_setup):
    arr, space, bare = link_setup
    static = effective_hamiltonian(bare, space)
    normal = np.diag(np.arange(space.dim) * (1 + 0.5j))
    DrivenHamiltonian(static=static, drive=normal, modulation=0.05, frequency_scale=1.0)
    with pytest.raises(ValueError, match="modulation"):
        DrivenHamiltonian(static=static, drive=normal, modulation=0.0, frequency_scale=1.0)
    with pytest.raises(ValueError, match="normal"):
        DrivenHamiltonian(static=static, drive=ladder_matrix(space, 0, "raise"),
                          modulation=0.05, frequency_scale=1.0)


def test_effective_hamiltonian_dimension_mismatch(link_setup):
    arr, space, bare = link_setup
    with pytest.raises(ValueError):
        effective_hamiltonian(bare, build_fock_space(3, 2))


def test_cosine_static_limit_mode_splitting():
    arr = build_array("link", (2,))
    space = build_fock_space(2, 2)
    bare = bare_coupling_matrix(arr, "z")
    drv = cosine_drive(0.05, 0.0)
    h = driven_model(arr, drv, bare, space).at(0.0)
    vals = np.linalg.eigvalsh(h)
    ones = sorted(v for v in vals if abs(v - 1.0) < 0.1)
    # single-phonon doublet splits by 2 |J_c| around the trap frequency
    split = 2 * abs(bare.matrix[1, 0])
    assert max(ones) - min(ones) == pytest.approx(split, rel=1e-9)


def test_cosine_periodicity(link_setup):
    arr, space, bare = link_setup
    drv = cosine_drive(0.05, 0.6)
    model = driven_model(arr, drv, bare, space)
    h0 = model.at(0.37)
    h1 = model.at(0.37 + 2 * math.pi / 0.05)
    assert np.abs(h0 - h1).max() < 1e-12


def test_cosine_diagonal_at_time_zero(link_setup):
    arr, space, bare = link_setup
    drv = cosine_drive(0.05, 0.6)
    h = driven_model(arr, drv, bare, space).at(0.0)
    for site, occ in ((0, (1, 0)), (1, (0, 1))):
        psi = basis_state(space, occ)
        want = arr.frequencies()[site] + 0.6 * 0.05
        assert np.vdot(psi, h @ psi).real == pytest.approx(want, rel=1e-12)


def test_laser_zero_rabi_reduces_to_static(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.0, 0.05, 0.2)
    model = driven_model(arr, drv, bare, space)
    h_static = driven_model(arr, cosine_drive(0.05, 0.0), bare, space).static
    assert np.abs(model.at(1.3) - h_static).max() < 1e-15


def test_laser_zero_lamb_dicke_is_scalar_drive(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.0)
    model = driven_model(arr, drv, bare, space)
    tau = 7.7
    diff = model.at(tau) - model.static
    phases = drv.optical_phases(arr)
    scalar = sum(0.75 * math.cos(p - 0.05 * tau) for p in phases)
    assert np.abs(diff - scalar * np.eye(space.dim)).max() < 1e-12


def test_laser_dimension_at_reference_parameters(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2)
    h = driven_model(arr, drv, bare, space).at(0.1)
    assert h.shape == (25, 25)
    assert np.abs(h - h.conj().T).max() < 1e-14


# -- evolve -------------------------------------------------------------------


def test_zero_hamiltonian_keeps_populations(link_setup):
    arr, space, bare = link_setup
    psi0 = single_phonon_state(space, 0)
    res = evolve(np.zeros((space.dim, space.dim)), psi0, 10.0, space=space, samples=5)
    assert np.allclose(res.populations, res.populations[0])
    assert np.allclose(res.norms, 1.0)


def test_two_level_full_transfer(link_setup):
    arr, space, bare = link_setup
    psi0 = single_phonon_state(space, 0)
    h = effective_hamiltonian(bare, space)
    j = abs(bare.matrix[1, 0])
    res = evolve(h, psi0, math.pi / (2 * j), space=space, samples=9)
    assert res.populations[-1, 1] == pytest.approx(1.0, abs=1e-6)
    # two-level Rabi law along the way
    for t, row in zip(res.times, res.populations):
        assert row[1] == pytest.approx(math.sin(j * t) ** 2, abs=1e-9)


def test_stepping_matches_exact_for_constant_h(link_setup):
    arr, space, bare = link_setup
    psi0 = single_phonon_state(space, 0)
    model = driven_model(arr, laser_drive(0.0, 0.05, 0.2), bare, space)
    assert not model.drive.any()
    t_final = 200.0
    exact = evolve(model.static, psi0, t_final, space=space, samples=5)
    stepped = evolve(model, psi0, t_final, space=space, samples=5)
    assert np.abs(exact.populations - stepped.populations).max() < 1e-9


def test_step_halving_changes_little(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    model = driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)
    dt = 0.08
    a = evolve(model, psi0, 400.0, dt, space=space, samples=5)
    b = evolve(model, psi0, 400.0, dt / 2, space=space, samples=5)
    assert np.abs(a.populations - b.populations).max() < 1e-6


def test_norm_conservation_and_number_injection_bound(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    model = driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)
    res = evolve(model, psi0, 500.0, space=space, samples=11)
    assert np.abs(res.norms - 1.0).max() < 1e-8
    assert np.abs(res.total_number() - 1.0).max() < 0.1


def test_absurd_step_raises_integration_error(link_setup, monkeypatch):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2)
    model = driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)

    def no_stepping(*args):
        raise AssertionError("stepped before the Taylor degree was checked")

    # the degree cap must fire before any step exponential is applied
    monkeypatch.setattr(dynamics, "_taylor_apply", no_stepping)
    monkeypatch.setattr(dynamics, "_taylor_matrix", no_stepping)
    with pytest.raises(IntegrationError, match="Taylor degree above 120"):
        evolve(model, psi0, 4000.0, 2000.0, space=space, samples=3)


def test_callable_hamiltonian_rejected(link_setup):
    arr, space, bare = link_setup
    model = driven_model(arr, laser_drive(0.75, 0.05, 0.2), bare, space)
    with pytest.raises(TypeError):
        evolve(model.at, single_phonon_state(space, 0), 1.0, 0.08, space=space)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
def test_step_that_is_not_finite_and_positive_rejected(link_setup, dt):
    arr, space, bare = link_setup
    model = driven_model(arr, laser_drive(0.75, 0.05, 0.2), bare, space)
    with pytest.raises(ValueError, match="dt"):
        evolve(model, single_phonon_state(space, 0), 10.0, dt, space=space)


def test_unnormalised_state_rejected(link_setup):
    arr, space, bare = link_setup
    with pytest.raises(ValueError):
        evolve(np.zeros((space.dim, space.dim)), 2.0 * single_phonon_state(space, 0),
               1.0, space=space)


def test_evolution_result_serialisation(link_setup):
    arr, space, bare = link_setup
    psi0 = single_phonon_state(space, 0)
    res = evolve(effective_hamiltonian(bare, space), psi0, 5.0, space=space, samples=3)
    csv = res.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "time,n_1,n_2,norm"
    assert len(lines) == 4
    payload = json.loads(res.to_json())
    assert payload["model"] == "evolution"
    assert len(payload["times"]) == 3


# -- preset experiments -------------------------------------------------------


def _plain_magnus_populations(model, space, psi0, times, dt):
    """Reference: the 4th-order Magnus scheme on the grid h = T / ceil(T / dt),
    stepped straight through with scipy's expm, one partial step per sample."""
    period = 2 * math.pi / abs(model.modulation)
    h = period / math.ceil(period / dt - 1e-12)
    hs, v = model.static, model.drive
    vd = v.conj().T
    c_hv, c_hvd, c_vvd = hs @ v - v @ hs, hs @ vd - vd @ hs, v @ vd - vd @ v
    nodes = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)

    def propagator(t, step):
        f1, f2 = (np.exp(1j * model.modulation * (t + c * step)) for c in nodes)
        fm = 0.5 * (f1 + f2)
        omega = (-1j * step * (hs + fm * v + np.conj(fm) * vd)
                 + math.sqrt(3) / 12 * step**2 * ((f2 - f1) * c_hv + np.conj(f2 - f1) * c_hvd
                                                  + (f1 * np.conj(f2) - np.conj(f1) * f2) * c_vvd))
        return expm(omega)

    psi, done, out = psi0.astype(complex), 0, []
    for t in times:
        full = int(t // h)
        for j in range(done, full):
            psi = propagator(j * h, h) @ psi
        done = full
        rest = t - full * h
        out.append(_populations(space, propagator(full * h, rest) @ psi if rest > 0 else psi))
    return np.array(out)


@pytest.fixture
def pi_link_model(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    return driven_model(arr, drv, bare, space), space


def test_period_propagator_matches_straight_evolution(pi_link_model):
    model, space = pi_link_model
    psi0 = single_phonon_state(space, 0)
    period = 2 * math.pi / abs(model.modulation)
    # samples at 12.35 T and 24.7 T: 12 and then 11 whole sample-free periods,
    # each stretch ending in a partial step
    res = evolve(model, psi0, 24.7 * period, 0.4, space=space, samples=3)
    assert res.diagnostics["period_propagator"]
    assert res.diagnostics["period_powers"] == 23
    ref = _plain_magnus_populations(model, space, psi0, res.times, 0.4)
    assert np.abs(res.populations - ref).max() < 1e-9


@pytest.mark.parametrize("periods, samples, uses_propagator", [(3, 4, False), (20, 2, True)])
def test_samples_at_period_multiples_land_on_the_grid(pi_link_model, periods, samples,
                                                      uses_propagator):
    model, space = pi_link_model
    psi0 = single_phonon_state(space, 0)
    period = 2 * math.pi / abs(model.modulation)
    res = evolve(model, psi0, periods * period, 0.4, space=space, samples=samples)
    n = math.ceil(period / 0.4 - 1e-12)
    diag = res.diagnostics
    assert diag["period_propagator"] is uses_propagator
    # no partial steps: every sample is a grid point
    if uses_propagator:
        assert diag["period_powers"] == periods and diag["magnus_steps"] == n
    else:
        assert diag["period_powers"] == 0 and diag["magnus_steps"] == periods * n
    ref = _plain_magnus_populations(model, space, psi0, res.times, 0.4)
    assert np.abs(res.populations - ref).max() < 1e-9


@pytest.mark.parametrize("t_final, samples", [(2000.0, 2), (300.0, 7)])
def test_reruns_are_bit_identical(pi_link_model, t_final, samples):
    model, space = pi_link_model
    psi0 = single_phonon_state(space, 0)
    a = evolve(model, psi0, t_final, space=space, samples=samples)
    b = evolve(model, psi0, t_final, space=space, samples=samples)
    assert a.diagnostics["period_propagator"] is (samples == 2)
    assert np.array_equal(a.populations, b.populations)
    assert np.array_equal(a.norms, b.norms)


def test_taylor_degree_close_to_adaptive_term_count(link_setup):
    # Per-step term counts of the previous adaptive series (terms until one
    # fell below 1e-16) at the preset step sizes: 13, 14 and 18.
    arr, space, bare = link_setup
    model = driven_model(arr, laser_drive(0.75, 0.05, 0.2, phase_x=math.pi), bare, space)
    link = evolve(model, single_phonon_state(space, 0), 1.0, space=space, samples=2)
    assert model.dim == 25 and link.diagnostics["taylor_degree"] <= 13 + 2
    for n_max, dim, adaptive in ((2, 81, 14), (4, 625, 18)):
        _, ring = plaquette_experiment(math.pi, rabi_frequency=0.25, n_max=n_max,
                                       window=1.0, samples=2)
        assert build_fock_space(4, n_max).dim == dim
        assert ring.diagnostics["taylor_degree"] <= adaptive + 2


def test_link_point_at_pi():
    t_star, n2_eff, n2_exact, defined = link_point(math.pi)
    assert defined
    assert n2_eff == pytest.approx(1.0, abs=1e-9)
    assert n2_exact > 0.9
    assert abs(n2_exact - n2_eff) < 0.1


def test_link_point_suppressed():
    t_star, n2_eff, n2_exact, defined = link_point(0.0)
    assert not defined
    assert math.isnan(t_star)


def test_link_scan_csv():
    res = link_transfer_scan([0.0, math.pi])
    csv = res.to_csv().splitlines()
    assert csv[0] == "delta_phi,t_star,n2_effective,n2_exact,defined"
    assert csv[1].endswith(",0")
    assert csv[2].endswith(",1")


def test_plaquette_short_window_smoke():
    res_eff, res_exact = plaquette_experiment(math.pi, rabi_frequency=0.25,
                                              window=200.0, samples=41)
    assert res_eff.populations.shape == (41, 4)
    # destructive interference keeps the opposite corner empty in the dressed model
    assert res_eff.populations[:, 2].max() < 1e-10
    assert res_exact.populations[:, 2].max() < 0.05
    assert np.abs(res_exact.norms - 1.0).max() < 1e-8
    assert np.abs(res_eff.total_number() - 1.0).max() < 1e-8


def test_plaquette_rejects_other_fluxes():
    with pytest.raises(ConfigurationError):
        plaquette_experiment(1.0, rabi_frequency=0.25)
