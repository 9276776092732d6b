import json
import math

import numpy as np
import pytest

from phonon_gauge.couplings import bare_coupling_matrix
from phonon_gauge.dynamics import (
    DrivenHamiltonian,
    IntegrationError,
    cosine_driven_model,
    effective_hamiltonian,
    evolve,
    laser_driven_model,
    link_point,
    link_transfer_scan,
    plaquette_experiment,
)
from phonon_gauge.fock import basis_state, build_fock_space, single_phonon_state
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
    from phonon_gauge.couplings import CouplingMatrix

    zero = CouplingMatrix(matrix=np.zeros((2, 2), complex), direction="z")
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


def test_effective_hamiltonian_dimension_mismatch(link_setup):
    arr, space, bare = link_setup
    with pytest.raises(ValueError):
        effective_hamiltonian(bare, build_fock_space(3, 2))


def test_cosine_static_limit_mode_splitting():
    arr = build_array("link", (2,))
    space = build_fock_space(2, 2)
    bare = bare_coupling_matrix(arr, "z")
    drv = cosine_drive(0.05, 0.0)
    h = cosine_driven_model(arr, drv, bare, space).at(0.0)
    vals = np.linalg.eigvalsh(h)
    ones = sorted(v for v in vals if abs(v - 1.0) < 0.1)
    # single-phonon doublet splits by 2 |J_c| around the trap frequency
    split = 2 * abs(bare.matrix[1, 0])
    assert max(ones) - min(ones) == pytest.approx(split, rel=1e-9)


def test_cosine_periodicity(link_setup):
    arr, space, bare = link_setup
    drv = cosine_drive(0.05, 0.6)
    model = cosine_driven_model(arr, drv, bare, space)
    h0 = model.at(0.37)
    h1 = model.at(0.37 + 2 * math.pi / 0.05)
    assert np.abs(h0 - h1).max() < 1e-12


def test_cosine_diagonal_at_time_zero(link_setup):
    arr, space, bare = link_setup
    drv = cosine_drive(0.05, 0.6)
    h = cosine_driven_model(arr, drv, bare, space).at(0.0)
    for site, occ in ((0, (1, 0)), (1, (0, 1))):
        psi = basis_state(space, occ)
        want = arr.frequencies("z")[site] + 0.6 * 0.05
        assert np.vdot(psi, h @ psi).real == pytest.approx(want, rel=1e-12)


def test_cosine_mode_mismatch(link_setup):
    arr, space, bare = link_setup
    with pytest.raises(ConfigurationError):
        cosine_driven_model(arr, laser_drive(0.75, 0.05, 0.2), bare, space)


def test_laser_zero_rabi_reduces_to_static(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.0, 0.05, 0.2)
    model = laser_driven_model(arr, drv, bare, space)
    h_static = cosine_driven_model(arr, cosine_drive(0.05, 0.0), bare, space).static
    assert np.abs(model.at(1.3) - h_static).max() < 1e-15


def test_laser_zero_lamb_dicke_is_scalar_drive(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.0)
    model = laser_driven_model(arr, drv, bare, space)
    tau = 7.7
    diff = model.at(tau) - model.static
    phases = drv.optical_phases(arr)
    scalar = sum(0.75 * math.cos(p - 0.05 * tau) for p in phases)
    assert np.abs(diff - scalar * np.eye(space.dim)).max() < 1e-12


def test_laser_dimension_at_reference_parameters(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2)
    h = laser_driven_model(arr, drv, bare, space).at(0.1)
    assert h.shape == (25, 25)
    assert np.abs(h - h.conj().T).max() < 1e-14


def test_laser_mode_mismatch(link_setup):
    arr, space, bare = link_setup
    with pytest.raises(ConfigurationError):
        laser_driven_model(arr, cosine_drive(0.05, 0.6), bare, space)


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
    h = effective_hamiltonian(bare, space)
    model = DrivenHamiltonian(static=h, frequency_scale=0.01)
    t_final = 200.0
    exact = evolve(h, psi0, t_final, space=space, samples=5)
    stepped = evolve(model, psi0, t_final, space=space, samples=5)
    assert np.abs(exact.populations - stepped.populations).max() < 1e-9


def test_step_halving_changes_little(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    model = laser_driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)
    dt = 0.08
    a = evolve(model, psi0, 400.0, dt, space=space, samples=5)
    b = evolve(model, psi0, 400.0, dt / 2, space=space, samples=5)
    assert np.abs(a.populations - b.populations).max() < 1e-6


def test_norm_conservation_and_number_injection_bound(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    model = laser_driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)
    res = evolve(model, psi0, 500.0, space=space, samples=11)
    assert np.abs(res.norms - 1.0).max() < 1e-8
    assert np.abs(res.total_number() - 1.0).max() < 0.1


def test_absurd_step_raises_integration_error(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2)
    model = laser_driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)
    with pytest.raises(IntegrationError):
        evolve(model, psi0, 4000.0, 2000.0, space=space, samples=3)


def test_callable_hamiltonian_rejected(link_setup):
    arr, space, bare = link_setup
    model = laser_driven_model(arr, laser_drive(0.75, 0.05, 0.2), bare, space)
    with pytest.raises(TypeError):
        evolve(model.at, single_phonon_state(space, 0), 1.0, 0.08, space=space)


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


def test_period_propagator_matches_straight_evolution(link_setup):
    from phonon_gauge.dynamics import _state_at, _populations

    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    model = laser_driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)
    t_target = 333.3  # several drive periods plus a remainder
    straight = evolve(model, psi0, t_target, space=space, samples=2)
    fast = _populations(space, _state_at(model, psi0, t_target,
                                         dt=2 * math.pi / (40 * model.frequency_scale)))
    assert np.abs(straight.populations[-1] - fast).max() < 1e-9


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
