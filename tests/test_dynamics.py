import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from phonon_gauge import dynamics, fock
from phonon_gauge.config import parse_config, run_price
from phonon_gauge.couplings import DEFAULT_CUTOFF_RANGE, CouplingMatrix, bare_coupling_matrix, \
    dressed_map, effective_coupling_matrix
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
from phonon_gauge.fock import build_fock_space, displacement_exponential, lowering, \
    single_phonon_state
from phonon_gauge.model import build_array, cosine_drive, laser_drive
from phonon_gauge.spectra import eigensystem


def _kron_embed(space, site, local):
    """Reference: `local` on `site`, identity elsewhere, by np.kron."""
    d = space.local_dim
    return np.kron(np.kron(np.eye(d**site), local), np.eye(d ** (space.n_sites - 1 - site)))


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
    e10 = single_phonon_state(space, 0)
    e01 = single_phonon_state(space, 1)
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
                a = lowering(space.n_max)
                ref += matrix.matrix[i, j] * (_kron_embed(space, i, a.T)
                                              @ _kron_embed(space, j, a))
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
        DrivenHamiltonian(static=static, drive=_kron_embed(space, 0, lowering(4).T),
                          modulation=0.05, frequency_scale=1.0)
    # a small non-normal V is measured against the static part, and still refused
    with pytest.raises(ValueError, match="normal"):
        DrivenHamiltonian(static=static, drive=1e-6 * _kron_embed(space, 0, lowering(4).T),
                          modulation=0.05, frequency_scale=1.0)


def test_cancelling_laser_site_terms_leave_a_normal_drive():
    # flux 0 puts the optical phases 0, pi, pi, 0 on the ring: at a tiny
    # Lamb-Dicke parameter the site terms of norm 0.5 cancel to ||V||_1 ~ 5e-14,
    # and [V, V^dag] is their roundoff, far below the commutators with Hs
    cfg = parse_config("experiment = fig2cd_plaquette\nplaquette.flux = 0\n"
                       "array.gradient = 0.125\ndrive.beat_frequency = 0.125\n"
                       "drive.lamb_dicke = 1e-14\nnumerics.window = 1.0\n")
    drive, array, _, _ = dynamics.ring_couplings(cfg)
    space = build_fock_space(4, cfg["numerics.n_max"])
    bare = bare_coupling_matrix(array, cfg["direction"], cfg["numerics.cutoff_range"])
    model = driven_model(array, drive, bare, space)
    assert np.abs(model.drive).sum(axis=0).max() < 1e-12


def _link_couplings(delta_phi):
    """(array, effective couplings) of the preset link at phase step `delta_phi`."""
    cfg = parse_config("experiment = fig2b_link_scan\n")
    array = dynamics.link_array(cfg)
    drive = dynamics.config_drive(cfg, "laser", delta_phi, 0.0)
    return array, effective_coupling_matrix(array, drive, cfg["direction"])


@pytest.mark.parametrize("setup, n_max", [
    (lambda: dynamics.ring_couplings(parse_config("experiment = fig2cd_plaquette\n"))[2], 2),
    (lambda: dynamics.ring_couplings(parse_config("experiment = fig2cd_plaquette\n"))[2], 3),
    (lambda: _link_couplings(math.pi / 3)[1], 4),
], ids=["ring-n_max-2", "ring-n_max-3", "link-n_max-4"])
def test_effective_hamiltonian_conserves_the_phonon_number(setup, n_max):
    # what lets the effective run leave the Fock space for the one-phonon sector
    eff = setup()
    space = build_fock_space(eff.n, n_max)
    h = effective_hamiltonian(eff, space)
    number = np.diag(space.occupation_table().sum(axis=0)).astype(float)
    assert np.abs(h).max() > 0
    assert np.abs(h @ number - number @ h).max() == 0


def _sector_and_fock_runs(eff, n_max, t_final, samples):
    """The effective run in the one-phonon sector, and on the Fock space of n_max."""
    sector = np.eye(eff.n)
    small = evolve(eff.matrix, sector[0], t_final, occupation=sector, samples=samples)
    space = build_fock_space(eff.n, n_max)
    full = evolve(effective_hamiltonian(eff, space), single_phonon_state(space, 0), t_final,
                  occupation=space.occupation_table(), samples=samples)
    return small, full


@pytest.mark.parametrize("n_max", [1, 2, 4])
def test_the_sector_run_is_the_fock_space_run_on_the_ring(n_max):
    cfg = parse_config("experiment = fig2cd_plaquette\n")
    _, _, eff, window = dynamics.ring_couplings(cfg)
    small, full = _sector_and_fock_runs(eff, n_max, window, cfg["numerics.samples"])
    assert small.populations.shape == full.populations.shape == (601, 4)
    assert np.abs(small.populations - full.populations).max() < 1e-14
    assert np.abs(small.norms - full.norms).max() < 1e-14
    assert np.abs(small.populations - small.populations[0]).max() > 0.5  # the phonon moves


def test_the_sector_run_is_the_fock_space_run_on_the_link():
    _, eff = _link_couplings(math.pi / 3)
    t_star = math.pi / (2.0 * abs(eff.matrix[1, 0]))
    small, full = _sector_and_fock_runs(eff, 4, t_star, 2)
    assert np.abs(small.populations - full.populations).max() < 1e-14
    assert np.abs(small.norms - full.norms).max() < 1e-14
    assert small.populations[-1, 1] == pytest.approx(1.0, abs=1e-12)  # full transfer


class _ExactRun(Exception):
    """Stops an experiment at its exact-drive run."""


@pytest.mark.parametrize("run", [
    lambda: plaquette_experiment(parse_config(
        "experiment = fig2cd_plaquette\nnumerics.n_max = 4\nnumerics.window = 10\n")),
    lambda: link_point(parse_config("experiment = fig2b_link_scan\nnumerics.n_max = 4\n"),
                       math.pi),
], ids=["ring", "link"])
def test_the_effective_run_takes_the_coupling_matrix(monkeypatch, run):
    calls = []

    def spy(hamiltonian, psi0, *args, occupation, **kwargs):
        calls.append((hamiltonian, occupation))
        if isinstance(hamiltonian, DrivenHamiltonian):
            raise _ExactRun
        return evolve(hamiltonian, psi0, *args, occupation=occupation, **kwargs)

    monkeypatch.setattr(dynamics, "evolve", spy)
    with pytest.raises(_ExactRun):
        run()
    (effective, sector), (exact, table) = calls
    sites = len(sector)
    assert effective.shape == (sites, sites) and np.array_equal(sector, np.eye(sites))
    assert exact.dim == table.shape[1] == 5 ** sites


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
    for site in (0, 1):
        psi = single_phonon_state(space, site)
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


@pytest.mark.parametrize("layout, dims, n_max", [("link", (2,), 4), ("plaquette", (2, 2), 2)])
def test_laser_drive_matches_kron_embedded_displacements(layout, dims, n_max):
    arr = build_array(layout, dims, spacing_y=1.26, gradient=0.05)
    space = build_fock_space(arr.n_sites, n_max)
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi, phase_y=math.pi)
    model = driven_model(arr, drv, bare_coupling_matrix(arr, "z"), space)
    local = displacement_exponential(n_max, 0.2)
    ref = np.zeros((space.dim, space.dim), dtype=complex)
    for i, theta in enumerate(drv.optical_phases(arr)):
        ref += np.exp(1j * theta) * _kron_embed(space, i, local)
    ref *= 0.75 / 2.0
    assert model.drive.tobytes() == ref.tobytes()


# -- evolve -------------------------------------------------------------------


def test_zero_hamiltonian_keeps_populations(link_setup):
    arr, space, bare = link_setup
    psi0 = single_phonon_state(space, 0)
    res = evolve(np.zeros((space.dim, space.dim)), psi0, 10.0,
                 occupation=space.occupation_table(), samples=5)
    assert np.allclose(res.populations, res.populations[0])
    assert np.allclose(res.norms, 1.0)


def test_two_level_full_transfer(link_setup):
    arr, space, bare = link_setup
    psi0 = single_phonon_state(space, 0)
    h = effective_hamiltonian(bare, space)
    j = abs(bare.matrix[1, 0])
    res = evolve(h, psi0, math.pi / (2 * j), occupation=space.occupation_table(), samples=9)
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
    exact = evolve(model.static, psi0, t_final, occupation=space.occupation_table(), samples=5)
    stepped = evolve(model, psi0, t_final, occupation=space.occupation_table(), samples=5)
    assert np.abs(exact.populations - stepped.populations).max() < 1e-9


def test_step_halving_changes_little(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    model = driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)
    dt = 0.08
    a = evolve(model, psi0, 400.0, dt, occupation=space.occupation_table(), samples=5)
    b = evolve(model, psi0, 400.0, dt / 2, occupation=space.occupation_table(), samples=5)
    assert np.abs(a.populations - b.populations).max() < 1e-6


def test_norm_conservation_and_number_injection_bound(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    model = driven_model(arr, drv, bare, space)
    psi0 = single_phonon_state(space, 0)
    res = evolve(model, psi0, 500.0, occupation=space.occupation_table(), samples=11)
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
        evolve(model, psi0, 4000.0, 2000.0, occupation=space.occupation_table(), samples=3)

    # on a grid that builds U_T, the node bound fires once, before the first
    # exponential and before the cost rule that prices its nodes
    monkeypatch.undo()
    calls = []
    for name in ("_node_count", "path_work", "_taylor_matrix"):
        def spy(*args, name=name, real=getattr(dynamics, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(dynamics, name, spy)
    res = evolve(model, psi0, 4000.0, 0.4, occupation=space.occupation_table(), samples=2)
    assert res.diagnostics["period_propagator"] and res.diagnostics["period_nodes"] == 31
    assert calls[:3] == ["_node_count", "path_work", "_taylor_matrix"]
    assert calls.count("_node_count") == 1


def test_callable_hamiltonian_rejected(link_setup):
    arr, space, bare = link_setup
    model = driven_model(arr, laser_drive(0.75, 0.05, 0.2), bare, space)
    with pytest.raises(TypeError):
        evolve(model.at, single_phonon_state(space, 0), 1.0, 0.08,
               occupation=space.occupation_table())


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
def test_step_that_is_not_finite_and_positive_rejected(link_setup, dt):
    arr, space, bare = link_setup
    model = driven_model(arr, laser_drive(0.75, 0.05, 0.2), bare, space)
    with pytest.raises(ValueError, match="dt"):
        evolve(model, single_phonon_state(space, 0), 10.0, dt, occupation=space.occupation_table())


@pytest.mark.parametrize("t_start", [10.0, 11.0, -math.inf, math.nan])
def test_start_that_is_not_finite_and_before_the_end_rejected(link_setup, t_start):
    arr, space, bare = link_setup
    model = driven_model(arr, laser_drive(0.75, 0.05, 0.2), bare, space)
    with pytest.raises(ValueError, match="t_start"):
        evolve(model, single_phonon_state(space, 0), 10.0, occupation=space.occupation_table(),
               t_start=t_start)


@pytest.mark.parametrize("state, size, problem", [
    (lambda psi: 2.0 * psi, 25, "psi0 must be normalised"),
    (lambda psi: psi[:-1], 25, r"psi0 has shape \(24,\), occupation \(2, 25\)"),
    (lambda psi: psi, 24, r"hamiltonian has shape \(24, 24\), occupation \(2, 25\)"),
], ids=["unnormalised", "state-length", "hamiltonian-size"])
def test_state_or_hamiltonian_that_does_not_fit_rejected(link_setup, state, size, problem):
    arr, space, bare = link_setup
    with pytest.raises(ValueError, match=f"^{problem}$"):
        evolve(np.zeros((size, size)), state(single_phonon_state(space, 0)),
               1.0, occupation=space.occupation_table())


def test_evolution_result_serialisation(link_setup):
    arr, space, bare = link_setup
    psi0 = single_phonon_state(space, 0)
    res = evolve(effective_hamiltonian(bare, space), psi0, 5.0,
                 occupation=space.occupation_table(), samples=3)
    csv = "".join(res.to_csv())
    lines = csv.splitlines()
    assert lines[0] == "time,n_1,n_2,norm"
    assert len(lines) == 4
    payload = json.loads(res.to_json())
    assert payload["model"] == "evolution"
    assert len(payload["times"]) == 3


# -- preset experiments -------------------------------------------------------


def _plain_magnus_states(model, psi0, times, dt):
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
        out.append(propagator(full * h, rest) @ psi if rest > 0 else psi)
    return out


def _populations(space, psi):
    """Reference site populations of one state."""
    return space.occupation_table() @ np.abs(psi) ** 2


def _plain_magnus_populations(model, space, psi0, times, dt):
    return np.array([_populations(space, psi)
                     for psi in _plain_magnus_states(model, psi0, times, dt)])


@pytest.fixture
def pi_link_model(link_setup):
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    return driven_model(arr, drv, bare, space), space


def test_period_propagator_matches_straight_evolution(pi_link_model):
    model, space = pi_link_model
    psi0 = single_phonon_state(space, 0)
    period = 2 * math.pi / abs(model.modulation)
    # samples at 0, 12.35 T and 24.7 T: 24.7 T lies past the middle of period
    # 24, so it is read from the backward column of U_T^25 psi0, and U_T takes
    # psi0 there in 25 products
    res = evolve(model, psi0, 24.7 * period, 0.4, occupation=space.occupation_table(), samples=3)
    assert res.diagnostics["period_propagator"]
    assert res.diagnostics["period_powers"] == 25
    ref = _plain_magnus_populations(model, space, psi0, res.times, 0.4)
    assert np.abs(res.populations - ref).max() < 1e-9


@pytest.fixture
def skew_link_model(link_setup):
    """The link at phase step pi / 2: a drive that is not its own time reverse."""
    arr, space, bare = link_setup
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi / 2)
    return driven_model(arr, drv, bare, space), space


@pytest.mark.parametrize("model_fixture, periods, samples, uses_propagator", [
    # one period: the full U_T costs more than plain stepping, half of it less
    ("skew_link_model", 1, 2, False), ("pi_link_model", 1, 2, True),
    ("pi_link_model", 3, 4, True), ("pi_link_model", 20, 2, True)])
def test_samples_at_period_multiples_land_on_the_grid(request, model_fixture, periods, samples,
                                                      uses_propagator):
    model, space = request.getfixturevalue(model_fixture)
    psi0 = single_phonon_state(space, 0)
    period = 2 * math.pi / abs(model.modulation)
    res = evolve(model, psi0, periods * period, 0.4, occupation=space.occupation_table(),
                 samples=samples)
    n = math.ceil(period / 0.4 - 1e-12)
    diag = res.diagnostics
    assert diag["period_propagator"] is uses_propagator
    assert diag["period_nodes"] == (25 if uses_propagator else 0)  # 315 steps of degree 23
    # no partial steps: every sample is a grid point; the pi link is its own
    # reverse, so U_T forms the exponentials of the first ceil(n / 2) steps
    if uses_propagator:
        assert diag["period_reversed"]
        assert diag["period_powers"] == periods and diag["magnus_steps"] == n - n // 2
    else:
        assert diag["period_powers"] == 0 and diag["magnus_steps"] == periods * n
    ref = _plain_magnus_populations(model, space, psi0, res.times, 0.4)
    assert np.abs(res.populations - ref).max() < 1e-9


@pytest.fixture
def small_link_model():
    arr = build_array("link", (2,), gradient=0.05)
    space = build_fock_space(2, 2)  # dim 9: a block holds 45 periods
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    return driven_model(arr, drv, bare_coupling_matrix(arr, "z"), space), space


@pytest.mark.parametrize("model_fixture, periods, samples, powers", [
    # one sample in every period; 9.7 T, past the middle of period 9, is read
    # from the backward column Pi conj(U_T^10 psi0)
    ("pi_link_model", 9.7, 11, 10),
    ("pi_link_model", 8.1, 29, 8),   # several samples in each period
    ("pi_link_model", 6.0, 5, 6),    # offsets 0 and T / 2 in several periods, 3 T and 6 T
    ("small_link_model", 50.5, 52, 50),  # two block passes of at most 45 columns
    ("pi_link_model", 0.95, 7, None),  # plain stepping to samples off the grid in one period
], ids=["every-period", "several-per-period", "same-offset", "two-passes", "plain-partial-steps"])
def test_floquet_sampling_matches_plain_stepping(request, model_fixture, periods, samples,
                                                 powers):
    model, space = request.getfixturevalue(model_fixture)
    psi0 = single_phonon_state(space, 0)
    period = 2 * math.pi / abs(model.modulation)
    res = evolve(model, psi0, periods * period, 0.4, occupation=space.occupation_table(),
                 samples=samples)
    diag = res.diagnostics
    uses_propagator = powers is not None
    assert diag["period_propagator"] is uses_propagator
    assert diag["period_powers"] == (powers if uses_propagator else 0)
    if not uses_propagator:  # one step per grid point, one partial step per sample off it
        h = period / math.ceil(period / 0.4 - 1e-12)
        points = np.floor(res.times / h + 1e-9).astype(np.int64)
        off_grid = np.count_nonzero(res.times - points * h > 0)
        assert off_grid == samples - 1
        assert diag["magnus_steps"] == points[-1] + off_grid
    ref = _plain_magnus_populations(model, space, psi0, res.times, 0.4)
    assert np.abs(res.populations - ref).max() < 1e-9


def _grid_points(window, samples, n):
    h = 2 * math.pi / 0.05 / n  # the presets drive at beat frequency 0.05
    return np.floor(np.linspace(0.0, window, samples) / h + 1e-9).astype(np.int64)


def _floquet_share(dim, n, nodes, degree, points, reversed_drive=False):
    """Floquet sampling's work over plain stepping's, as `evolve` weighs them."""
    plain, floquet = dynamics.path_work(dim, n, nodes, degree, points, reversed_drive,
                                        1 / dynamics._MATMUL_SPEEDUP)
    return floquet / plain


def test_cost_rule_branches_at_the_ring_shapes():
    # criterion 8's n_max = 4 ring (dim 625, 263 steps per period at degree 32,
    # 25 nodes, 151 samples over 1500): U_T and the block steps by E_k cost
    # 0.94 times the plain stepping (1.17 when the block took Taylor steps).
    # Measured on one core of a 2-vCPU Xeon (numpy 2.4, OpenBLAS 0.3.31, one
    # BLAS thread): 31.2 s against 43.7 s by plain stepping, and a peak RSS of
    # 308 MB against 138 MB, of which the node harmonics take 156 MB
    criterion_8 = (625, 263, 25, 32, _grid_points(1500.0, 151, 263))
    assert _floquet_share(*criterion_8) == pytest.approx(0.94, rel=0.01)
    # the same ring on a window under one period: U_T costs 13.8 times the stepping
    short = (625, 263, 25, 32, _grid_points(100.0, 11, 263))
    assert _floquet_share(*short) == pytest.approx(13.8, rel=0.01)
    # the pi ring at n_max = 2 (dim 81, 1050 steps at degree 14, 15 nodes) on a 4060 window
    preset = (81, 1050, 15, 14, _grid_points(4060.0, 601, 1050))
    assert _floquet_share(*preset) == pytest.approx(0.13, rel=0.03)
    # both rings are their own time reverse: half a period of E_k builds U_T,
    # and the block steps through half a period, at 0.67, 9.9 and 0.077 times
    # the stepping
    assert _floquet_share(*criterion_8, True) == pytest.approx(0.67, rel=0.01)
    assert _floquet_share(*short, True) == pytest.approx(9.93, rel=0.01)
    assert _floquet_share(*preset, True) == pytest.approx(0.077, rel=0.01)
    # the preset's even grid takes the pi ring's mirror glide: a Floquet period
    # of 525 steps, W built and the block stepped through a quarter period
    glided = (81, 525, 15, 14, _grid_points(4060.0, 601, 1050))
    assert _floquet_share(*glided, True) == pytest.approx(0.048, rel=0.01)


def test_cost_rule_refuses_a_node_table_above_the_dense_budget():
    # 42 complex nodes of 625 x 625 fit in DENSE_BYTE_BUDGET, 43 do not; a
    # window of a thousand periods otherwise pays for U_T many times over
    points = np.array([0, 1000 * 263])
    assert 16 * 42 * 625 ** 2 <= dynamics.DENSE_BYTE_BUDGET < 16 * 43 * 625 ** 2
    assert _floquet_share(625, 263, 42, 32, points) < 0.02
    assert dynamics.path_work(625, 263, 43, 32, points, False, 1.0) == (32 * 1000 * 263, math.inf)


def test_cost_rule_prices_the_kept_partial_products_at_the_link_shape():
    # a link point (dim 25, 1465 steps at degree 14, 17 nodes) samples at 0
    # and t*, two offsets that U_T keeps: the block steps to t*'s offset are gone
    n = 1465
    assert dynamics._kept_offsets(np.array([0, 37658]) % n) == {0, 1033}
    assert _floquet_share(25, n, 17, 14, np.array([0, 37658])) < 0.07  # t* at delta_phi = pi
    # U_T costs 34702 weighted products, 1.69 periods of plain stepping: the
    # sample's offset in its period decides
    assert _floquet_share(25, n, 17, 14, np.array([0, n + 1100])) < 1
    assert _floquet_share(25, n, 17, 14, np.array([0, n + 900])) > 1
    # the link at delta_phi = pi is its own time reverse: half of U_T costs
    # 17690, 0.53 times the plain stepping (offset 900 lies past the middle:
    # its backward column starts one power of U_T further)
    assert dynamics.path_work(25, n, 17, 14, np.array([0, n + 900]), True, 0.25) == (33110, 17690)
    # plain stepping reaches a sample below zero by |points[0]| steps back: a
    # long past pays for U_T, powered down to the lowest period by U_T^dag,
    # and a short one or a node table over DENSE_BYTE_BUDGET steps back
    assert _floquet_share(25, n, 17, 14, np.array([-n * 10 ** 6, 0])) < 1e-4
    assert _floquet_share(25, n, 10 ** 5, 14, np.array([-1, 0])) == math.inf
    assert _floquet_share(25, n, 17, 14, np.array([-100, 100])) > 12
    # six distinct offsets are block-stepped and priced as before
    assert dynamics._kept_offsets(np.arange(6)) == set()


def test_stacked_taylor_matrix_equals_one_matrix_at_a_time():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(5, 25, 25)) + 1j * rng.normal(size=(5, 25, 25))
    stack *= 0.1
    for m in (1, 4, 14, 18):
        out = dynamics._taylor_matrix(stack, m)
        for k in range(len(stack)):
            assert out[k].tobytes() == dynamics._taylor_matrix(stack[k:k + 1], m)[0].tobytes()
    exact = np.stack([expm(x) for x in stack])
    assert np.abs(dynamics._taylor_matrix(stack, 18) - exact).max() < 1e-12


@pytest.mark.parametrize("count", [1, 2, 3, 7, 9, 104])
def test_pairwise_chain_equals_the_sequential_product(count):
    rng = np.random.default_rng(count)
    gen = rng.normal(size=(count, 25, 25)) + 1j * rng.normal(size=(count, 25, 25))
    stack = np.stack([expm(0.1 * (x - x.conj().T)) for x in gen])  # unitary, as E_k
    ref = np.eye(25, dtype=complex)
    for step in stack:
        ref = step @ ref
    chained = dynamics._chain(stack.copy())
    if count == 1:  # no product: the matrix itself
        assert chained.tobytes() == stack[0].tobytes()
    assert np.abs(chained - ref).max() < 1e-13


def _sequential_period_propagator(grid, offsets=()):
    """Reference U_T and its partial products at `offsets`: one generator and
    one Paterson-Stockmeyer exponential per step."""
    u, kept = np.eye(grid.table.shape[1], dtype=complex), {}
    for o, row in enumerate(grid.coefs):
        if o in offsets:
            kept[o] = u
        u = dynamics._taylor_matrix(grid.omega(row)[None], grid.degree)[0] @ u
    return u, kept


def _preset_ring_model(text=""):
    cfg = parse_config("experiment = fig2cd_plaquette\n" + text)
    drive, array, _, _ = dynamics.ring_couplings(cfg)
    space = build_fock_space(4, cfg["numerics.n_max"])
    bare = bare_coupling_matrix(array, cfg["direction"], cfg["numerics.cutoff_range"])
    return driven_model(array, drive, bare, space)


def _preset_grid(preset, pi_link_model):
    model = pi_link_model[0] if preset == "link" else _preset_ring_model()
    return dynamics._PeriodGrid(model, dynamics.default_time_step(model.frequency_scale))


def _parity(space):
    """The Fock-parity diagonal (-1)^(sum_i n_i), as evolve builds it."""
    return np.where(space.occupation_table().sum(axis=0) % 2, -1.0, 1.0)


def _formed_ranges(grid):
    """Record the (j, o) of every `exponential_stacks` call on `grid`."""
    calls, stacks = [], grid.exponential_stacks

    def spy(j, o):
        calls.append((j, o))
        return stacks(j, o)

    grid.exponential_stacks = spy
    return calls


@pytest.mark.parametrize("preset, shape, offsets", [
    # 0, both sides of the boundary between the first two stacks of step
    # exponentials (104 steps at d = 25, 9 at d = 81), the ragged last stack,
    # and an offset that cuts a stack into two odd segments (211: 3 and 101
    # steps; 30: 3 and 6, after 27's segment of 3)
    ("link", (25, 1465, 17), (0, 103, 104, 105, 211, 1456, 1464)),
    # the pi ring glides: W = S P_525, with a ragged last stack of 3 at 522
    ("ring", (81, 1050, 15), (0, 8, 9, 10, 30, 520, 524)),
    # a drive 100 times faster, four steps per period: the nodes are the grid points
    ("few-steps", (25, 4, 4), (0, 1, 3)),
], ids=["link", "ring", "few-steps"])
def test_interpolated_period_propagator_matches_the_sequential_product(pi_link_model, preset,
                                                                       shape, offsets):
    if preset == "few-steps":
        model = dataclasses.replace(pi_link_model[0], modulation=-5.0)
        grid = dynamics._PeriodGrid(model, 2 * math.pi / 5.0 / 4)
    else:
        grid = _preset_grid(preset, pi_link_model)
    assert (grid.table.shape[1], grid.n, grid.nodes) == shape
    assert grid.glide is (preset == "ring")
    u, kept = grid.period_propagator(set(offsets))
    ref_u, ref_kept = _sequential_period_propagator(grid, offsets + (grid.period,))
    assert sorted(kept) == list(offsets)
    # interpolation and the transform round differently from one exponential
    # per step; the harmonics beyond the nodes are below 2^-53
    if grid.glide:  # W = S P_525, and U_T = W^2
        assert np.abs(u - ref_kept[grid.period][grid.mirror]).max() < 1e-12
        u = u @ u
    assert np.abs(u - ref_u).max() < 1e-12
    for o in offsets:
        assert np.abs(kept[o] - ref_kept[o]).max() < 1e-12
        assert not np.shares_memory(kept[o], u)
    assert np.array_equal(kept[0], np.eye(shape[0]))
    assert np.abs(u.conj().T @ u - np.eye(shape[0])).max() <= 1e-11


@pytest.mark.parametrize("preset, n, offsets", [
    # odd n: the middle step E_732 is its own mirror, and U_T forms E_0 ... E_732;
    # offsets up to the last formed, c = 733 (`evolve` reads a sample past c
    # from a backward column)
    ("link", 1465, (0, 100, 731, 732, 733)),
    # even n: E_0 ... E_524, U_T = Pi P_525^T Pi P_525 (the ring without its
    # mirror, whose glide would halve the period)
    ("ring", 1050, (0, 9, 524, 525)),
    # a drive 100 times faster, four and five steps a period: the nodes are the grid points
    ("four-steps", 4, (0, 1, 2)),
    ("five-steps", 5, (0, 2, 3)),
])
def test_reversed_drive_builds_u_t_from_half_a_period(pi_link_model, preset, n, offsets):
    model, space = pi_link_model
    if preset.endswith("-steps"):
        model, dt = dataclasses.replace(model, modulation=-5.0), 2 * math.pi / 5.0 / n
    else:
        if preset == "ring":
            model = dataclasses.replace(_preset_ring_model(), mirror=None)
            space = build_fock_space(4, 2)
        dt = dynamics.default_time_step(model.frequency_scale)
    grid = dynamics._PeriodGrid(model, dt, _parity(space))
    assert grid.reversed and not grid.glide and grid.n == n
    formed = _formed_ranges(grid)
    u, kept = grid.period_propagator(set(offsets))
    assert formed == [(0, n - n // 2)] and max(offsets) == grid.formed
    ref_u, ref_kept = _sequential_period_propagator(grid, offsets)
    assert sorted(kept) == list(offsets)
    assert np.abs(u - ref_u).max() < 1e-12
    for o in offsets:
        assert np.abs(kept[o] - ref_kept[o]).max() < 1e-12
        assert not np.shares_memory(kept[o], u)
    # evolve counts the steps formed: 200 periods sampled at 0 and 200 T, both on the grid
    res = evolve(model, single_phonon_state(space, 0), 200 * n * grid.h, dt,
                 occupation=space.occupation_table(), samples=2)
    diag = res.diagnostics
    assert diag["period_propagator"] and diag["period_reversed"]
    assert diag["magnus_steps"] == n - n // 2 and diag["period_powers"] == 200


def test_a_drive_that_is_not_its_own_reverse_takes_the_full_build():
    # the preset ring's geometry at flux pi / 2: exp(i pi / 2) is not real
    cfg = parse_config("experiment = fig2cd_plaquette\n")
    _, array, _, _ = dynamics.ring_couplings(cfg)
    space = build_fock_space(4, 2)
    model = driven_model(array, dynamics.config_drive(cfg, "laser", math.pi, math.pi / 2),
                         bare_coupling_matrix(array, "z", cfg["numerics.cutoff_range"]), space)
    grid = dynamics._PeriodGrid(model, dynamics.default_time_step(model.frequency_scale),
                                _parity(space))
    assert not grid.reversed
    formed = _formed_ranges(grid)
    u, _ = grid.period_propagator()
    assert formed == [(0, 1050)]
    assert np.abs(u.conj().T @ u - np.eye(81)).max() <= 1e-11


def test_the_fock_mirror_moves_each_phonon_to_the_mirror_site():
    model, space = _preset_ring_model(), build_fock_space(4, 2)
    _, array, _, _ = dynamics.ring_couplings(parse_config("experiment = fig2cd_plaquette\n"))
    s = model.mirror
    assert np.array_equal(s[s], np.arange(space.dim))
    for k, (ix, iy) in enumerate(array.lattice):  # S x = x[mirror]
        image = array.lattice.index((ix, 1 - iy))
        assert np.array_equal(single_phonon_state(space, k)[s], single_phonon_state(space, image))
    # the pi ring's glide, S H(t) S = H(t + T / 2), on the built matrices
    assert np.abs(model.static[np.ix_(s, s)] - model.static).max() < 1e-15
    assert np.abs(model.drive[np.ix_(s, s)] + model.drive).max() < 1e-15
    # an L of three sites has no mirror image of (1, 0)
    corner = dataclasses.replace(array, lattice=((0, 0), (1, 0), (0, 1)))
    assert dynamics._fock_mirror(corner, build_fock_space(3, 1)) is None


@pytest.mark.parametrize("mirror", [np.arange(80), np.arange(81)[::-1] + 1, np.arange(81.0),
                                    np.roll(np.arange(81), 1)],
                         ids=["short", "out-of-range", "float", "not-an-involution"])
def test_a_mirror_that_is_no_involution_of_the_basis_is_rejected(mirror):
    with pytest.raises(ValueError, match="own inverse"):
        dataclasses.replace(_preset_ring_model(), mirror=mirror)


def _pi_ring(divisor=40):
    """The preset pi ring's model, Fock space and time step at `divisor`."""
    model = _preset_ring_model()
    return model, build_fock_space(4, 2), dynamics.default_time_step(model.frequency_scale,
                                                                     divisor)


@pytest.mark.parametrize("divisor, n, offsets", [
    # n / 2 = 525 is odd: W forms E_0 ... E_262, and the middle step E_262 is
    # its own mirror; offsets on both sides of T / 8 up to the last formed
    (40, 1050, (0, 100, 131, 261, 262, 263)),
    # n / 2 = 538 is even: E_0 ... E_268, W = S G P_269^T G P_269
    (41, 1076, (0, 100, 134, 268, 269)),
])
def test_glide_builds_w_from_a_quarter_period(divisor, n, offsets):
    model, space, dt = _pi_ring(divisor)
    grid = dynamics._PeriodGrid(model, dt, _parity(space))
    assert grid.glide and grid.reversed and grid.n == n and grid.period == n // 2
    formed = _formed_ranges(grid)
    w, kept = grid.period_propagator(set(offsets))
    half = n // 2
    assert formed == [(0, half - half // 2)] and max(offsets) == grid.formed
    ref_u, ref_kept = _sequential_period_propagator(grid, offsets + (half,))
    assert sorted(kept) == list(offsets)
    # W = S P_(n/2), the Floquet operator of T / 2, and U_T = W^2
    assert np.abs(w - ref_kept[half][grid.mirror]).max() < 1e-12
    assert np.abs(w @ w - ref_u).max() < 1e-12
    for o in offsets:
        assert np.abs(kept[o] - ref_kept[o]).max() < 1e-12
        assert not np.shares_memory(kept[o], w)


@pytest.mark.parametrize("case", ["flux-0", "link", "odd-grid"])
def test_no_glide_without_a_mirror_that_flips_the_drive_on_an_even_grid(pi_link_model, case):
    if case == "flux-0":  # the mirror keeps the drive: S V S = V
        model, space = _preset_ring_model("plaquette.flux = 0\n"), build_fock_space(4, 2)
        dt = dynamics.default_time_step(model.frequency_scale)
    elif case == "link":  # one row of sites: the mirror is the identity; 1464 steps
        model, space = pi_link_model
        dt = 2 * math.pi / abs(model.modulation) / 1464
        assert np.array_equal(model.mirror, np.arange(model.dim))
    else:  # the pi ring at criterion 8's divisor: n = 263 steps
        model, space, dt = _pi_ring(10)
    grid = dynamics._PeriodGrid(model, dt, _parity(space))
    assert model.mirror is not None and grid.reversed
    assert not grid.glide and grid.period == grid.n
    assert grid.n % 2 == (case == "odd-grid")


@pytest.mark.parametrize("t_final, samples, t_start", [
    # 9 samples 11 T / 8 apart, in every quarter of the period at four
    # offsets of the half period: W keeps its partial products P_o there,
    # while the whole period's eight offsets take the block
    (11.0, 9, 0.0),
    (4060.0 / (2 * math.pi / 0.05), 601, 0.0),  # the benchmark ring: the block
    (900.0 / (2 * math.pi / 0.05), 37, -700.0 / (2 * math.pi / 0.05)),  # and its past
])
def test_the_glide_samples_the_pi_ring_as_the_whole_period_does(t_final, samples, t_start):
    model, space, _ = _pi_ring()
    period = 2 * math.pi / abs(model.modulation)
    psi0, occ = single_phonon_state(space, 0), space.occupation_table()
    runs = [evolve(m, psi0, t_final * period, occupation=occ, samples=samples,
                   t_start=t_start * period)
            for m in (model, dataclasses.replace(model, mirror=None))]
    glided, whole = (res.diagnostics for res in runs)
    assert glided["period_glide"] and glided["period_reversed"] and not whole["period_glide"]
    # half the E_k for W, and block steps through a quarter period, not a half
    assert glided["magnus_steps"] < whole["magnus_steps"]
    # two builds and powers that round differently; W is taken twice as often
    # as U_T: 1.1e-12, 3.9e-12 and 1.9e-12 measured, against norm drifts of
    # 1.0e-12, 3.6e-12 and 1.0e-12
    assert np.abs(runs[0].populations - runs[1].populations).max() < 1e-11


@pytest.mark.parametrize("flux, samples, bound", [
    # 9 samples 3 T / 8 apart: four offsets of the glide's half period T / 2,
    # one of them (3 T / 8) past its middle; W is taken twice as often as U_T
    ("pi", 9, 1e-11),
    # 5 samples 3 T / 4 apart: four offsets of the whole period, one of them
    # (3 T / 4) past its middle
    ("0", 5, 1e-12),
])
def test_kept_samples_past_the_middle_match_plain_stepping(monkeypatch, flux, samples, bound):
    model, space = _preset_ring_model(f"plaquette.flux = {flux}\n"), build_fock_space(4, 2)
    psi0, occ = single_phonon_state(space, 0), space.occupation_table()
    t_final = 3 * 2 * math.pi / abs(model.modulation)
    calls, build = [], dynamics._PeriodGrid.period_propagator

    def spy(grid, offsets=frozenset()):
        calls.append((grid.period, grid.formed, set(offsets)))
        return build(grid, offsets)

    monkeypatch.setattr(dynamics._PeriodGrid, "period_propagator", spy)
    kept = evolve(model, psi0, t_final, occupation=occ, samples=samples)
    [(period, formed, offsets)] = calls
    assert kept.diagnostics["period_glide"] is (flux == "pi")
    # the partial products kept stop at the middle, while some samples lie past it
    points = np.floor(kept.times / kept.parameters["dt"] + 1e-9).astype(int)
    assert 0 < len(offsets) <= 5 and max(offsets) <= formed < (points % period).max()
    monkeypatch.setattr(dynamics, "path_work", lambda *args: (0, 1))  # plain stepping
    plain = evolve(model, psi0, t_final, occupation=occ, samples=samples)
    assert not plain.diagnostics["period_propagator"]
    # 5.4e-13 (pi) and 6.3e-13 (flux 0) measured, against norm drifts of 2.7e-13 and 3.3e-13
    assert np.abs(kept.populations - plain.populations).max() < bound


def test_the_block_through_half_a_period_matches_the_whole_period(monkeypatch):
    # the flux-0 ring is its own reverse and has no glide: a sample past the
    # middle of its period is read from the backward column Pi conj(U_T^(q+1) psi0)
    cfg = parse_config("experiment = fig2cd_plaquette\nplaquette.flux = 0\n"
                       "numerics.window = 4060\nnumerics.samples = 601\n")
    half = plaquette_experiment(cfg)[1]
    columns = dynamics._block_columns
    monkeypatch.setattr(dynamics, "_block_columns",  # every sample read forward
                        lambda periods, offsets, reversal=0: columns(periods, offsets))
    whole = plaquette_experiment(cfg)[1]
    assert half.diagnostics["period_reversed"] and not half.diagnostics["period_glide"]
    assert half.diagnostics["magnus_steps"] < whole.diagnostics["magnus_steps"]
    assert np.abs(half.populations - whole.populations).max() < 1e-12


@pytest.mark.parametrize("steps", [9 * 1465, 9 * 1465 + 333])  # on a period, and past one
def test_samples_before_zero_are_the_time_reverse(pi_link_model, skew_link_model, steps):
    # on grid points, so that no partial step differs between -t and t
    model, space = pi_link_model
    psi0, occ = single_phonon_state(space, 0), space.occupation_table()
    t = steps * (2 * math.pi / abs(model.modulation) / 1465)
    res = evolve(model, psi0, t, occupation=occ, samples=3, t_start=-t)
    diag = res.diagnostics
    assert res.times.tolist() == [-t, 0.0, t]
    assert diag["period_propagator"] and diag["period_reversed"]
    # psi0 to period -9 by U_T^dag (-9 T - 333 steps, past the middle of
    # period -10, is read from the backward column of period -9), and again
    # psi0 to period 9 by U_T
    assert diag["period_powers"] == 18
    assert np.abs(res.populations[0] - res.populations[2]).max() < 1e-12
    assert res.populations[1].tolist() == [1.0, 0.0]
    # a drive that is not its own reverse: its past is the future of the drive at -theta
    skew, _ = skew_link_model
    back = evolve(skew, psi0, t, occupation=occ, samples=3, t_start=-t)
    assert back.diagnostics["period_propagator"] and not back.diagnostics["period_reversed"]
    arr = build_array("link", (2,), gradient=0.05)
    mirror = driven_model(arr, laser_drive(0.75, 0.05, 0.2, phase_x=-math.pi / 2),
                          bare_coupling_matrix(arr, "z"), space)
    ahead = evolve(mirror, psi0, t, occupation=occ, samples=2)
    # two U_T builds that round differently, each powered nine or ten times
    assert np.abs(back.populations[0] - ahead.populations[-1]).max() < 1e-11
    assert np.abs(back.populations[0] - back.populations[2]).max() > 1e-5  # 3.2e-4 at 9 T


def _spy_exact_runs(monkeypatch) -> list:
    """The t_start of every exact-drive `evolve` call from here on."""
    starts = []

    def spy(hamiltonian, *args, **kwargs):
        starts.extend([kwargs.get("t_start", 0.0)] * isinstance(hamiltonian, DrivenHamiltonian))
        return evolve(hamiltonian, *args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve", spy)
    return starts


def test_a_past_sample_without_room_for_u_t_steps_back(pi_link_model, monkeypatch):
    model, space = pi_link_model
    psi0, occ = single_phonon_state(space, 0), space.occupation_table()
    # [-50, 50], under one period (125.7), by U_T^dag for reference
    monkeypatch.setattr(dynamics, "path_work", lambda *args: (1, 0))  # U_T pays
    floquet = evolve(model, psi0, 50.0, occupation=occ, samples=5, t_start=-50.0)
    monkeypatch.undo()
    # one byte short of the link's 17 node exponentials of 25 x 25: plain
    # stepping, back from psi0 to -50 and again from psi0 up to 50
    monkeypatch.setattr(dynamics, "DENSE_BYTE_BUDGET", 16 * 17 * 25 ** 2 - 1)
    plain = evolve(model, psi0, 50.0, occupation=occ, samples=5, t_start=-50.0)
    assert floquet.diagnostics["period_propagator"]
    assert not plain.diagnostics["period_propagator"]
    assert np.abs(plain.populations - floquet.populations).max() < 1e-12  # 7.8e-13 measured
    # each step back counts once: the priced steps, and a partial step per sample off the grid
    h = plain.parameters["dt"]
    points = np.floor(plain.times / h + 1e-9).astype(np.int64)
    off_grid = np.count_nonzero(plain.times - points * h > 0)
    assert points[0] < 0 and off_grid == 4
    assert plain.diagnostics["magnus_steps"] == points[-1] - points[0] + off_grid
    # a mirrored pair of link points still makes one exact run
    monkeypatch.setattr(dynamics, "DENSE_BYTE_BUDGET", 0)
    cfg = parse_config(LINK + "numerics.n_max = 1\nnumerics.time_step_divisor = 4\n")
    exact_runs = _spy_exact_runs(monkeypatch)
    pair = link_point(cfg, math.pi / 2, 3 * math.pi / 2)
    assert len(exact_runs) == 1 and exact_runs[0] < 0
    single = link_point(cfg, math.pi / 2) + link_point(cfg, 3 * math.pi / 2)
    assert [row[3] for row in pair] == [True, True]
    # the samples from 0 on start again from psi0, by the same steps as a direct run
    assert pair[0] == single[0] and pair[1][:2] == single[1][:2]
    # the mirror's n2 differs by the partial steps to -t* and t*, the two ends
    # of one grid step, here at divisor 4: 1.1e-6 measured
    assert abs(pair[1][2] - single[1][2]) < 3e-6


@pytest.mark.parametrize("points", [5, 6])
def test_mirrored_link_scan_rows_match_direct_runs(monkeypatch, points):
    # the mirrored rows differ from the direct ones by the partial steps to
    # -t* and t*, which span the two ends of one grid step: 2.5e-11 here
    cfg = parse_config(LINK + f"scan.points = {points}\nnumerics.n_max = 2\n")
    exact_runs = _spy_exact_runs(monkeypatch)
    res = link_transfer_scan(cfg)
    # 0 and 2 pi are undefined; one exact run per pair, and one for pi (points = 5)
    assert len(exact_runs) == 2 and min(exact_runs) < 0
    assert (max(exact_runs) == 0) == (points == 5)
    monkeypatch.undo()
    for k, phi in enumerate(res.delta_phi):
        [(t_star, n2_eff, n2_exact, defined)] = link_point(cfg, phi)
        assert res.defined[k] == defined == (0 < k < points - 1)
        if defined:
            assert res.t_star[k].tobytes() == np.float64(t_star).tobytes()
            assert res.n2_effective[k].tobytes() == np.float64(n2_eff).tobytes()
            assert abs(res.n2_exact[k] - n2_exact) < 1e-10


@pytest.mark.parametrize("preset, start, stop", [
    ("ring", 3, 1047),  # d = 81: stacks of nine E_k, across most of the period
    ("few-steps", 1, 4),  # four steps per period: the nodes are the grid points
], ids=["ring", "few-steps"])
def test_block_crossed_by_the_step_exponentials_equals_taylor_stepping(pi_link_model, preset,
                                                                      start, stop):
    if preset == "few-steps":
        model = dataclasses.replace(pi_link_model[0], modulation=-5.0)
        grid = dynamics._PeriodGrid(model, 2 * math.pi / 5.0 / 4)
        assert grid.nodes == grid.n == 4
    else:
        grid = _preset_grid(preset, pi_link_model)
    grid.period_propagator()
    d = grid.table.shape[1]
    rng = np.random.default_rng(11)
    block = rng.normal(size=(d, 7)) + 1j * rng.normal(size=(d, 7))
    block /= np.linalg.norm(block, axis=0)
    crossed = block
    for _, stack in grid.exponential_stacks(start, stop):
        for step in stack:
            crossed = step @ crossed
    assert np.abs(crossed - grid.advance(block, start, stop - start)).max() < 1e-12


@pytest.mark.parametrize("n, nodes", [(10 ** 6, 7), (6, 6), (5, 5)])
def test_node_count_stops_at_the_taylor_degree_and_the_grid(n, nodes):
    # b = c = 50: no harmonic up to degree 3 meets the bound, so N = min(2 * 3 + 1, n)
    assert dynamics._node_count(0.0, 50.0, 50.0, n, 3) == nodes


def test_floquet_block_steps_keep_the_step_and_power_counts(monkeypatch):
    # the preset ring over 13 half periods, 12 samples at 11 distinct offsets
    # in the 525 steps of its glide: the block crosses a quarter period by
    # E_k, each counted as a Taylor step would be: 263 steps formed for W (the
    # half period is its own reverse), 239 block steps and 10 partial steps
    model = _preset_ring_model()
    space = build_fock_space(4, 2)
    psi0 = single_phonon_state(space, 0)
    t_final = 6.5 * 2 * math.pi / abs(model.modulation)
    res = evolve(model, psi0, t_final, occupation=space.occupation_table(), samples=12)
    assert len(set((np.floor(res.times / res.parameters["dt"] + 1e-9) % 525).tolist())) == 11
    diag = res.diagnostics
    assert diag["period_propagator"] and diag["period_nodes"] == 15 and diag["period_glide"]
    # W^q psi0 for a forward column of half period q, W^(q+1) psi0 for a
    # backward one, up to W^13 psi0 at 6.5 T
    assert diag["magnus_steps"] == 512 and diag["period_powers"] == 13
    monkeypatch.setattr(dynamics, "path_work", lambda *args: (0, 1))  # plain stepping
    plain = evolve(model, psi0, t_final, occupation=space.occupation_table(), samples=12)
    assert plain.diagnostics["magnus_steps"] == 6825 + 10  # 6.5 T itself is a grid point
    assert np.abs(res.populations - plain.populations).max() < 1e-10


@pytest.mark.parametrize("preset, harmonics", [("ring", 7), ("link", 8)])
def test_step_exponential_harmonics_stay_within_the_node_bound(pi_link_model, preset, harmonics):
    grid = _preset_grid(preset, pi_link_model)
    n, h, d = grid.n, grid.h, grid.table.shape[1]

    def generators(count):  # full steps from the phases 2 pi j / count
        rows = grid.coefficients(np.arange(count) * (n * h / count), h)
        return np.stack([grid.omega(row) for row in rows])

    # a full-step generator is A + z B + C / z in z = exp(i w t): three phases
    # give A, B and C exactly
    a_b_c = np.fft.fft(generators(3), axis=0) / 3
    a, b, c = (np.abs(x).sum(axis=0).max() for x in a_b_c[[0, 1, 2]])
    assert np.abs(generators(1)[0] - a_b_c.sum(axis=0)).max() < 1e-15
    assert dynamics._node_count(a, b, c, n, grid.degree) == grid.nodes == 2 * harmonics + 1
    e = dynamics._taylor_matrix(generators(64), grid.degree)
    f = np.fft.fft(e, axis=0) / 64
    for m in range(1, harmonics + 2):
        for x, f_m in ((b, f[m]), (c, f[-m])):
            bound = math.exp(a + b * c) * x ** m / math.factorial(m)
            assert np.abs(f_m).sum(axis=0).max() <= bound + 1e-16  # plus the transform's roundoff


@pytest.mark.parametrize("d, powers, nodes, blocks", [
    (25, 4, 17, (17, 3855, 104)),  # the link
    (81, 4, 15, (1, 4369, 9)),  # the preset ring
    (625, 6, 25, (1, 2621, 1)),  # criterion 8's ring
], ids=["link", "ring", "criterion_8_ring"])
def test_stack_budgets_at_the_link_and_ring_dimensions(d, powers, nodes, blocks):
    # node exponentials (the stack, its powers up to Omega^s, the Horner sum
    # and a product), node DFT columns, and step exponentials and read-out
    # stacks (one d x d matrix each)
    assert (fock.block_items(16 * d * d * (powers + 2)), fock.block_items(16 * nodes),
            fock.block_items(16 * d * d)) == blocks
    # eigendecomposition times at 4 sites, Hermiticity rows at 1024 and 4096
    # sites, and dressed-map phase steps, whatever d
    assert [fock.block_items(b) for b in (32 * 4, 16 * 1024, 16 * 4096, 80)] == [
        8192, 64, 16, 13107]


@pytest.mark.parametrize("preset", ["link", "ring"])
def test_the_block_loops_ask_for_the_bytes_of_one_item(monkeypatch, pi_link_model, preset):
    # each block loop of a Floquet run with a stepped block sizes its block by
    # the bytes one item holds: node exponentials, DFT columns, and step
    # exponentials and read-out stacks
    grid = _preset_grid(preset, pi_link_model)
    d, powers = grid.table.shape[1], dynamics._ps_shape(grid.degree)[0]
    asked = []
    monkeypatch.setattr(dynamics, "block_items",
                        lambda item: asked.append(item) or fock.block_items(item))
    model, space = (pi_link_model if preset == "link"
                    else (_preset_ring_model(), build_fock_space(4, 2)))
    res = evolve(model, single_phonon_state(space, 0), 9.7 * 2 * math.pi / abs(model.modulation),
                 occupation=space.occupation_table(), samples=23)
    assert res.diagnostics["period_propagator"]
    assert set(asked) == {16 * d * d * (powers + 2), 16 * grid.nodes, 16 * d * d}


def _one_step_exponential(grid, k):
    """E_k = sum_m F_m exp(2 pi i m k / n) formed on its own, one phase row."""
    phases = np.exp((2j * math.pi / grid.n) * ((k * grid.orders) % grid.n))
    return (phases @ grid.harmonics).reshape(grid.table.shape[1:])


@pytest.mark.parametrize("preset, ranges", [
    # stacks of 104: three stacks with a ragged last one, one step short of a
    # stack, and an empty range
    ("link", [(50, 300), (7, 110), (700, 700)]),
    # stacks of 9: three stacks with a ragged last one, one step short of a
    # stack, the period's ragged last stack of 6, and an empty range
    ("ring", [(5, 30), (1, 9), (1044, 1050), (12, 12)]),
])
def test_stacked_step_exponentials_match_one_at_a_time_formation(pi_link_model, preset, ranges):
    grid = _preset_grid(preset, pi_link_model)
    grid.period_propagator()
    size = fock.block_items(16 * grid.table.shape[1] ** 2)
    for j, o in ranges:
        # copy each stack as it comes: it is a view of the formation buffer
        stacks = [(k, stack.copy()) for k, stack in grid.exponential_stacks(j, o)]
        assert [k for k, _ in stacks] == list(range(j, o, size))
        stacked = [step for _, stack in stacks for step in stack]
        assert len(stacked) == o - j
        for k, step in zip(range(j, o), stacked):
            assert np.abs(step - _one_step_exponential(grid, k)).max() < 1e-14


@pytest.mark.parametrize("preset, size", [("link", 104), ("ring", 9)])
def test_stacked_read_out_matches_one_sample_at_a_time(pi_link_model, preset, size):
    grid = _preset_grid(preset, pi_link_model)
    d, m = grid.table.shape[1], grid.degree
    assert fock.block_items(16 * d * d) == size
    rng = np.random.default_rng(5)
    count = 2 * size + 3  # two full stacks and a ragged one of three
    states = rng.normal(size=(count, d, 1)) + 1j * rng.normal(size=(count, d, 1))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    partial = rng.random(count) * grid.h
    partial[::4] = 0.0  # samples on the grid
    rows = grid.coefficients(rng.integers(0, grid.n, count) * grid.h, partial)
    for start in range(0, count, size):
        # evolve's read-out: one stacked generator product, one stacked Horner
        out = dynamics._taylor_apply(grid.omega(rows[start:start + size]),
                                     states[start:start + size], m)
        for k, x in zip(range(start, count), out):
            if partial[k] == 0:  # an exact copy of the state at its grid point
                assert x.tobytes() == states[k].tobytes()
            ref = dynamics._taylor_apply(grid.omega(rows[k]), states[k, :, 0], m)
            assert np.abs(x[:, 0] - ref).max() < 1e-14


#: Runs through every block loop, and the largest difference between their
#: values at the default block budget and at one item a block.  The pi ring
#: by Floquet sampling in its mirror glide, the flux-0 ring by Floquet
#: sampling through half a period (both with a stepped block), and the pi
#: ring by plain stepping, each with its effective run; a mirrored link pair,
#: whose run keeps U_T's partial products and samples the past; a dressed
#: map; and both Hermiticity checks.  Blocks of one take matrix-vector
#: products where the default takes matrix products, which round
#: differently, and U_T's roundoff grows with its powers: measured 1.2e-13
#: (glide) and 6.1e-13 (flux 0) against norm drifts of 5.2e-13 and 2.9e-13,
#: and 1.5e-11 on the link, 49 powers of U_T each way, against 2.6e-12.
ONE_ITEM_BLOCKS = {
    "glided_pi_ring": ("plaquette.flux = pi\nnumerics.window = 600\n", 1e-12),
    "flux_0_ring": ("plaquette.flux = 0\nnumerics.window = 300\n", 2e-12),
    "plain_ring": ("plaquette.flux = pi\nnumerics.window = 100\n", 1e-14),
    "link_pair": (None, 1e-10),
    "dressed_map": (None, 1e-14),
    "hermiticity": (None, 0.0),
}


def _accepts(check, m) -> float:
    try:
        check(m)
    except ValueError:
        return 0.0
    return 1.0


def _block_run(case):
    """(values, the exact drive's sample on the grid at t = 0, the path) of
    one ONE_ITEM_BLOCKS case."""
    if case == "link_pair":
        rows = link_point(parse_config(LINK), 0.3 * math.pi, 1.7 * math.pi)
        return np.array(rows, dtype=float), None, None
    if case == "dressed_map":
        res = dressed_map(1, np.linspace(0.0, 5.0, 4), np.linspace(0.0, 2 * math.pi, 50))
        return res.magnitude, None, None
    if case == "hermiticity":
        m = np.zeros((40, 40), dtype=complex)
        m[3, 30], m[30, 3] = 1 + 2j, 1 - 2j
        off = m.copy()
        off[30, 3] += 1e-9j
        return np.array([_accepts(check, x) for check in (CouplingMatrix, eigensystem)
                         for x in (m, off)]), None, None
    cfg = parse_config("experiment = fig2cd_plaquette\nnumerics.samples = 61\n"
                       + ONE_ITEM_BLOCKS[case][0])
    eff, exact = plaquette_experiment(cfg)
    values = np.hstack([np.column_stack((r.populations, r.norms)) for r in (eff, exact)])
    values = np.append(values, exact.diagnostics["max_top_level_population"])
    path = {key: exact.diagnostics[key] for key in ("period_propagator", "period_glide",
                                                   "period_reversed", "period_powers",
                                                   "magnus_steps")}
    return values, exact.populations[0], path


@pytest.mark.parametrize("case", ONE_ITEM_BLOCKS)
def test_one_item_blocks_give_the_default_run(monkeypatch, case):
    offsets, build = [], dynamics._PeriodGrid.period_propagator

    def spy(grid, kept=frozenset()):
        offsets.append(set(kept))
        return build(grid, kept)

    monkeypatch.setattr(dynamics._PeriodGrid, "period_propagator", spy)
    values, on_grid, path = _block_run(case)
    monkeypatch.setattr(fock, "BLOCK_BYTES", 1)  # every loop takes one item a block
    one_values, one_on_grid, one_path = _block_run(case)
    assert np.abs(values - one_values).max() <= ONE_ITEM_BLOCKS[case][1]
    if on_grid is not None:  # psi0 itself, an exact copy
        assert on_grid.tobytes() == one_on_grid.tobytes()
    assert path == one_path
    if case == "glided_pi_ring":
        assert path["period_glide"]
    elif case == "flux_0_ring":
        assert path["period_reversed"] and not path["period_glide"]
    elif case == "plain_ring":
        assert not path["period_propagator"]
    elif case == "link_pair":  # U_T keeps its products at the offsets of -t* and t*
        assert len(offsets) == 2 and offsets[0] == offsets[1] and len(offsets[0]) == 2
    elif case == "hermiticity":
        assert values.tolist() == [1, 0, 1, 0]


@pytest.mark.parametrize("samples", [2, 601, 102])  # 102: one block of 101 times and one more
def test_chunked_effective_sampling_matches_one_time_at_a_time(monkeypatch, samples):
    cfg = parse_config("experiment = fig2cd_plaquette\n")
    _, _, eff, window = dynamics.ring_couplings(cfg)
    space = build_fock_space(4, cfg["numerics.n_max"])
    monkeypatch.setattr(fock, "BLOCK_BYTES", 32 * 101 * space.dim)  # 101 times a block
    hamiltonian, psi0 = effective_hamiltonian(eff, space), single_phonon_state(space, 0)
    res = evolve(hamiltonian, psi0, window, occupation=space.occupation_table(), samples=samples)
    vals, vecs = np.linalg.eigh(hamiltonian)
    coeff = vecs.conj().T @ psi0
    for t, pops, norm in zip(res.times, res.populations, res.norms):
        psi = vecs @ (np.exp(-1j * vals * t) * coeff)
        assert np.abs(pops - _populations(space, psi)).max() < 1e-14
        assert abs(norm - np.linalg.norm(psi)) < 1e-14


def test_norm_abort_names_the_earliest_drifting_sample(pi_link_model, monkeypatch):
    model, space = pi_link_model
    psi0 = single_phonon_state(space, 0)
    t_final = 9.7 * 2 * math.pi / abs(model.modulation)
    res = evolve(model, psi0, t_final, 0.4, occupation=space.occupation_table(), samples=11)
    # Floquet sampling emits these samples latest first after t = 0
    assert res.diagnostics["period_propagator"]
    drift = np.abs(res.norms - 1.0)
    limit = np.sort(drift)[-3]
    drifting = np.flatnonzero(drift > limit)
    assert len(drifting) >= 2
    monkeypatch.setattr(dynamics, "NORM_ABORT", limit)
    with pytest.raises(IntegrationError, match=f"at t = {res.times[drifting[0]]:.3f};"):
        evolve(model, psi0, t_final, 0.4, occupation=space.occupation_table(), samples=11)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_norm_aborts(pi_link_model):
    # the grid index of t = 5e299 overflows int64, and the samples there and
    # at 1e300 come out nan; parse_config rejects such a window
    model, space = pi_link_model
    with pytest.raises(IntegrationError, match=f"^norm drifted to nan at t = {5e299:.3f};"):
        evolve(model, single_phonon_state(space, 0), 1e300,
               occupation=space.occupation_table(), samples=3)


@pytest.mark.parametrize("text, sites", [("experiment = fig2b_link_scan\n", 2),
                                         ("experiment = fig2cd_plaquette\n", 4)],
                         ids=["link", "ring"])
def test_the_price_of_the_exact_drive_is_its_grid(text, sites):
    # run_price sizes the generator table and the steps per period as the run makes them
    cfg = parse_config(text)
    arrays, _ = run_price(cfg.experiment, dict(cfg.values))
    shapes = {name.split(" at ")[0]: shape for _, name, shape, _ in arrays}
    ring = sites == 4
    if ring:
        drive, array, _, _ = dynamics.ring_couplings(cfg)
    else:
        drive, array = dynamics.config_drive(cfg, "laser", math.pi, 0.0), dynamics.link_array(cfg)
    bare = bare_coupling_matrix(array, cfg["direction"],
                                cfg["numerics.cutoff_range"] if ring else DEFAULT_CUTOFF_RANGE)
    model = driven_model(array, drive, bare, build_fock_space(sites, cfg["numerics.n_max"]))
    grid = dynamics._PeriodGrid(model, dynamics.default_time_step(
        model.frequency_scale, cfg["numerics.time_step_divisor"]))
    assert 16 * math.prod(shapes["step-generator table"]) == grid.table.nbytes
    assert shapes["step table"] == grid.coefs.shape == (grid.n, 5)


@pytest.mark.parametrize("text", ["", "plaquette.flux = 0\n", "numerics.time_step_divisor = 10\n",
                                  "numerics.time_step_divisor = 41\n"],
                         ids=["pi", "flux-0", "odd-grid", "even-half-period"])
def test_the_ring_price_takes_the_glide_that_the_grid_takes(text):
    # run_price's rule, flux pi on an even grid, prices the Floquet period
    # that the run's grid takes: n / 2 steps with the glide, n without
    cfg = parse_config("experiment = fig2cd_plaquette\n" + text)
    drive, array, _, window = dynamics.ring_couplings(cfg)
    space = build_fock_space(4, cfg["numerics.n_max"])
    model = driven_model(array, drive, bare_coupling_matrix(
        array, cfg["direction"], cfg["numerics.cutoff_range"]), space)
    grid = dynamics._PeriodGrid(model, dynamics.default_time_step(
        model.frequency_scale, cfg["numerics.time_step_divisor"]), _parity(space))
    assert grid.glide is (text in ("", "numerics.time_step_divisor = 41\n"))
    points = np.array([0.0, math.floor(window / grid.h + 1e-9)])
    work = min(dynamics.path_work(model.dim, grid.period, 1, 1, points, grid.reversed, 1))
    assert run_price(cfg.experiment, dict(cfg.values))[1][1] == model.dim ** 2 * work


class _Priced(Exception):
    """Raised after `path_work` priced a ring: the rest of the run is not needed."""


#: Exact-drive runs and the path that each of their `evolve` calls takes:
#: Floquet sampling for both preset rings, criterion 8's ring, the benchmark
#: ring and every defined pair of the preset (and benchmark) link scan.
KEPT_PATHS = {
    "ring_pi": ("experiment = fig2cd_plaquette\n", [True]),
    "ring_flux_0": ("experiment = fig2cd_plaquette\nplaquette.flux = 0\n", [True]),
    "criterion_8_ring": ("experiment = fig2cd_plaquette\nnumerics.n_max = 4\n"
                         "numerics.time_step_divisor = 10\nnumerics.window = 1500\n"
                         "numerics.samples = 151\n", [True]),
    "bench_ring_pi": ("experiment = fig2cd_plaquette\nplaquette.flux = pi\nnumerics.n_max = 2\n"
                      "numerics.samples = 601\nnumerics.window = 4060.0\n", [True]),
    "bench_link_scan": ("experiment = fig2b_link_scan\nscan.points = 21\nnumerics.n_max = 4\n",
                        [True] * 10),
}


@pytest.mark.parametrize("text, paths", KEPT_PATHS.values(), ids=KEPT_PATHS.keys())
def test_the_presets_and_benchmark_runs_keep_their_path(monkeypatch, text, paths):
    cfg = parse_config(text)
    ring, chosen, price = cfg.experiment == "fig2cd_plaquette", [], dynamics.path_work

    def spy(*args):
        plain, floquet = price(*args)
        chosen.append(floquet < plain)
        if ring:
            raise _Priced
        return plain, floquet

    monkeypatch.setattr(dynamics, "path_work", spy)
    if ring:
        with pytest.raises(_Priced):
            plaquette_experiment(cfg)
    else:
        link_transfer_scan(cfg)
    assert chosen == paths


@pytest.mark.parametrize("points, builds", [(2, []), (3, [True]), (21, [False] * 9 + [True])],
                         ids=["two", "three", "preset"])
def test_the_link_price_counts_the_u_t_builds_the_scan_makes(monkeypatch, points, builds):
    # run_price prices points // 2 - 1 mirrored pairs at a full U_T build, the
    # pi point of an odd scan at half of one, and nothing for the pair 0 and
    # 2 pi, whose dressed factor vanishes: the builds that the scan makes
    reversed_builds = []

    def spy(hamiltonian, *args, **kwargs):
        res = evolve(hamiltonian, *args, **kwargs)
        if isinstance(hamiltonian, DrivenHamiltonian):
            assert res.diagnostics["period_propagator"]
            reversed_builds.append(res.diagnostics["period_reversed"])
        return res

    monkeypatch.setattr(dynamics, "evolve", spy)
    link_transfer_scan(parse_config(LINK + f"scan.points = {points}\n"))
    assert sorted(reversed_builds) == builds


def test_top_level_population_is_the_truncation_leakage():
    text = "experiment = fig2cd_plaquette\nnumerics.window = 150\nnumerics.samples = 16\n"
    cfg = parse_config(text)
    _, res = plaquette_experiment(cfg)
    drive, array, _, _ = dynamics.ring_couplings(cfg)
    space = build_fock_space(4, 2)
    bare = bare_coupling_matrix(array, cfg["direction"], cfg["numerics.cutoff_range"])
    states = _plain_magnus_states(driven_model(array, drive, bare, space),
                                  single_phonon_state(space, 0), res.times,
                                  res.parameters["dt_requested"])
    top = (space.occupation_table() == 2).any(axis=0)
    want = max(float((np.abs(psi[top]) ** 2).sum()) for psi in states)
    leakage = res.diagnostics["max_top_level_population"]
    assert want > 1e-6
    assert leakage == pytest.approx(want, abs=1e-9)
    _, deeper = plaquette_experiment(parse_config(text + "numerics.n_max = 3\n"))
    assert deeper.diagnostics["max_top_level_population"] < leakage


@pytest.mark.parametrize("t_final, samples", [(2000.0, 2), (100.0, 7)])
def test_reruns_are_bit_identical(pi_link_model, t_final, samples):
    model, space = pi_link_model
    psi0 = single_phonon_state(space, 0)
    a = evolve(model, psi0, t_final, occupation=space.occupation_table(), samples=samples)
    b = evolve(model, psi0, t_final, occupation=space.occupation_table(), samples=samples)
    assert a.diagnostics["period_propagator"] is (samples == 2)
    assert np.array_equal(a.populations, b.populations)
    assert np.array_equal(a.norms, b.norms)


def test_taylor_degree_close_to_adaptive_term_count(link_setup):
    # Per-step term counts of the previous adaptive series (terms until one
    # fell below 1e-16) at the preset step sizes: 13, 14 and 18.
    arr, space, bare = link_setup
    model = driven_model(arr, laser_drive(0.75, 0.05, 0.2, phase_x=math.pi), bare, space)
    link = evolve(model, single_phonon_state(space, 0), 1.0,
                  occupation=space.occupation_table(), samples=2)
    assert model.dim == 25 and link.diagnostics["taylor_degree"] <= 13 + 2
    for n_max, dim, adaptive in ((2, 81, 14), (4, 625, 18)):
        _, ring = plaquette_experiment(parse_config(
            f"experiment = fig2cd_plaquette\nnumerics.n_max = {n_max}\n"
            "numerics.window = 1\nnumerics.samples = 2\n"))
        assert build_fock_space(4, n_max).dim == dim
        assert ring.diagnostics["taylor_degree"] <= adaptive + 2


LINK = "experiment = fig2b_link_scan\n"


def test_link_point_at_pi():
    [(t_star, n2_eff, n2_exact, defined)] = link_point(parse_config(LINK), math.pi)
    assert defined
    assert n2_eff == pytest.approx(1.0, abs=1e-9)
    assert n2_exact > 0.9
    assert abs(n2_exact - n2_eff) < 0.1


def test_link_point_takes_the_kept_partial_product():
    # the exact model of link_point at delta_phi = pi, on a coarser grid that
    # keeps the scipy reference short: t* lies past the middle of period 25,
    # so 26 powers, then P_o to the mirror of t*'s offset in the backward column
    cfg = parse_config(LINK + "numerics.time_step_divisor = 10\n")
    array = build_array("link", (2,), gradient=cfg["array.gradient"])
    drive = dynamics.config_drive(cfg, "laser", math.pi, 0.0)
    t_star = math.pi / (2 * abs(effective_coupling_matrix(array, drive, "z").matrix[1, 0]))
    space = build_fock_space(2, cfg["numerics.n_max"])
    model = driven_model(array, drive, bare_coupling_matrix(array, "z"), space)
    dt = dynamics.default_time_step(model.frequency_scale, cfg["numerics.time_step_divisor"])
    psi0 = single_phonon_state(space, 0)
    res = evolve(model, psi0, t_star, dt, occupation=space.occupation_table(), samples=2)
    h = res.parameters["dt"]
    n = round(2 * math.pi / abs(model.modulation) / h)
    off_grid = np.count_nonzero(res.times - np.floor(res.times / h + 1e-9) * h > 0)
    diag = res.diagnostics
    assert diag["period_propagator"] and diag["period_powers"] == 26
    assert diag["magnus_steps"] == n - n // 2 + off_grid  # half a period formed, no block steps
    ref = _plain_magnus_populations(model, space, psi0, res.times, dt)
    assert np.abs(res.populations - ref).max() < 1e-9


def test_link_point_suppressed():
    [(t_star, n2_eff, n2_exact, defined)] = link_point(parse_config(LINK), 0.0)
    assert not defined
    assert math.isnan(t_star)


def test_link_scan_csv():
    res = link_transfer_scan(parse_config(LINK + "scan.points = 3\n"))  # 0, pi, 2 pi
    csv = "".join(res.to_csv()).splitlines()
    assert csv[0] == "delta_phi,t_star,n2_effective,n2_exact,defined"
    assert csv[1].endswith(",0")
    assert csv[2].endswith(",1")
    assert csv[3].endswith(",0")


def test_plaquette_short_window_smoke():
    res_eff, res_exact = plaquette_experiment(parse_config(
        "experiment = fig2cd_plaquette\nnumerics.window = 200\nnumerics.samples = 41\n"))
    assert res_eff.populations.shape == (41, 4)
    # destructive interference keeps the opposite corner empty in the dressed model
    assert res_eff.populations[:, 2].max() < 1e-10
    assert res_exact.populations[:, 2].max() < 0.05
    assert np.abs(res_exact.norms - 1.0).max() < 1e-8
    assert np.abs(res_eff.total_number() - 1.0).max() < 1e-8

