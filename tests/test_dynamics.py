import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from phonon_gauge import dynamics
from phonon_gauge.config import parse_config
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
from phonon_gauge.fock import build_fock_space, displacement_exponential, lowering, \
    single_phonon_state
from phonon_gauge.model import ConfigurationError, build_array, cosine_drive, laser_drive


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
    # samples at 0, 12.35 T and 24.7 T: U_T takes psi0 to period 24 in 24
    # products, and the block carries periods 12 and 24 to their partial steps
    res = evolve(model, psi0, 24.7 * period, 0.4, space=space, samples=3)
    assert res.diagnostics["period_propagator"]
    assert res.diagnostics["period_powers"] == 24
    ref = _plain_magnus_populations(model, space, psi0, res.times, 0.4)
    assert np.abs(res.populations - ref).max() < 1e-9


@pytest.mark.parametrize("periods, samples, uses_propagator",
                         [(2, 3, False), (3, 4, True), (20, 2, True)])
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


@pytest.fixture
def small_link_model():
    arr = build_array("link", (2,), gradient=0.05)
    space = build_fock_space(2, 2)  # dim 9: a block holds 45 periods
    drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    return driven_model(arr, drv, bare_coupling_matrix(arr, "z"), space), space


@pytest.mark.parametrize("model_fixture, periods, samples, uses_propagator", [
    ("pi_link_model", 9.7, 11, True),   # one sample in every period
    ("pi_link_model", 8.1, 29, True),   # several samples in each period
    ("pi_link_model", 6.0, 5, True),    # offsets 0 and T / 2 in several periods, 3 T and 6 T
    ("small_link_model", 50.5, 52, True),  # 51 sampled periods: two block passes of at most 45
    ("pi_link_model", 0.95, 7, False),  # plain stepping to samples off the grid in one period
], ids=["every-period", "several-per-period", "same-offset", "two-passes", "plain-partial-steps"])
def test_floquet_sampling_matches_plain_stepping(request, model_fixture, periods, samples,
                                                 uses_propagator):
    model, space = request.getfixturevalue(model_fixture)
    psi0 = single_phonon_state(space, 0)
    period = 2 * math.pi / abs(model.modulation)
    res = evolve(model, psi0, periods * period, 0.4, space=space, samples=samples)
    diag = res.diagnostics
    assert diag["period_propagator"] is uses_propagator
    assert diag["period_powers"] == (int(periods) if uses_propagator else 0)
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


def test_cost_rule_branches_at_the_ring_shapes():
    # criterion 8's n_max = 4 ring (dim 625, 263 steps per period at degree 32,
    # 151 samples over 1500): U_T alone costs about 17 times the stepping
    assert not dynamics._floquet_pays(625, 263, 32, _grid_points(1500.0, 151, 263))
    # the pi ring at n_max = 2 (dim 81, 1050 steps at degree 14) on a 4060 window
    assert dynamics._floquet_pays(81, 1050, 14, _grid_points(4060.0, 601, 1050))


def test_cost_rule_prices_the_kept_partial_products_at_the_link_shape():
    # a link point (dim 25, 1465 steps at degree 14) samples at 0 and t*,
    # two offsets that U_T keeps: the block steps to t*'s offset are gone
    n = 1465
    assert dynamics._kept_offsets(np.array([0, 37658]) % n) == {0, 1033}
    assert dynamics._floquet_pays(25, n, 14, np.array([0, 37658]))  # t* at delta_phi = pi
    # U_T costs 64094 weighted products, 3.1 periods of plain stepping: the
    # sample's offset in its period now decides, where it used to cancel out
    assert dynamics._floquet_pays(25, n, 14, np.array([0, 3 * n + 1000]))
    assert not dynamics._floquet_pays(25, n, 14, np.array([0, 3 * n + 100]))
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


def _sequential_period_propagator(grid, offsets=()):
    """Reference U_T and its partial products at `offsets`: one generator and
    one Taylor exponential per step."""
    u, kept = np.eye(grid.table.shape[1], dtype=complex), {}
    for o, row in enumerate(grid.coefs):
        if o in offsets:
            kept[o] = u
        u = dynamics._taylor_matrix(grid.omega(row)[None], grid.degree)[0] @ u
    return u, kept


def _preset_ring_model():
    cfg = parse_config("experiment = fig2cd_plaquette\n")
    drive, array, _, _ = dynamics.ring_couplings(cfg)
    space = build_fock_space(4, cfg["numerics.n_max"])
    bare = bare_coupling_matrix(array, cfg["direction"], cfg["numerics.cutoff_range"])
    return driven_model(array, drive, bare, space)


@pytest.mark.parametrize("preset", ["link", "ring"])
def test_stacked_period_propagator_equals_the_sequential_product(pi_link_model, preset):
    model = pi_link_model[0] if preset == "link" else _preset_ring_model()
    grid = dynamics._PeriodGrid(model, dynamics.default_time_step(model.frequency_scale))
    size = dynamics._stack_size(model.dim)
    if preset == "link":  # 112 stacks of 13 and a ragged last stack of 9
        assert (model.dim, grid.n, size, grid.n % size) == (25, 1465, 13, 9)
    else:  # a stack of one
        assert (model.dim, grid.n, size) == (81, 1050, 1)
    u, kept = grid.period_propagator()
    assert kept == {}
    assert u.tobytes() == _sequential_period_propagator(grid)[0].tobytes()


def test_kept_partial_products_equal_the_sequential_ones(pi_link_model):
    model = pi_link_model[0]
    grid = dynamics._PeriodGrid(model, dynamics.default_time_step(model.frequency_scale))
    # 0 and the ends of the first stack of 13; the ragged last stack of 9 at 1456
    offsets = (0, 12, 13, 14, 1456, 1464)
    u, kept = grid.period_propagator(set(offsets))
    ref_u, ref_kept = _sequential_period_propagator(grid, offsets)
    assert (model.dim, grid.n) == (25, 1465) and sorted(kept) == list(offsets)
    assert u.tobytes() == ref_u.tobytes()
    for o in offsets:
        assert kept[o].tobytes() == ref_kept[o].tobytes()
    assert np.array_equal(kept[0], np.eye(25))


def test_stack_budget_keeps_the_rings_one_generator_at_a_time():
    # the link's d = 25 stacks; the preset ring (d = 81) and criterion 8's
    # ring (d = 625) form one generator per stack
    assert [dynamics._stack_size(d) for d in (25, 81, 625)] == [13, 1, 1]


def test_norm_abort_names_the_earliest_drifting_sample(pi_link_model, monkeypatch):
    model, space = pi_link_model
    psi0 = single_phonon_state(space, 0)
    t_final = 9.7 * 2 * math.pi / abs(model.modulation)
    res = evolve(model, psi0, t_final, 0.4, space=space, samples=11)
    # Floquet sampling emits these samples latest first after t = 0
    assert res.diagnostics["period_propagator"]
    drift = np.abs(res.norms - 1.0)
    limit = np.sort(drift)[-3]
    drifting = np.flatnonzero(drift > limit)
    assert len(drifting) >= 2
    monkeypatch.setattr(dynamics, "NORM_ABORT", limit)
    with pytest.raises(IntegrationError, match=f"at t = {res.times[drifting[0]]:.3f};"):
        evolve(model, psi0, t_final, 0.4, space=space, samples=11)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_norm_aborts(pi_link_model):
    # the grid index of t = 5e299 overflows int64, and the samples there and
    # at 1e300 come out nan; parse_config rejects such a window
    model, space = pi_link_model
    with pytest.raises(IntegrationError, match=f"^norm drifted to nan at t = {5e299:.3f};"):
        evolve(model, single_phonon_state(space, 0), 1e300, space=space, samples=3)


def test_exact_grid_check_bounds_the_tables_and_the_grid_index():
    # the link preset: 1465 steps of h = 0.0858 per drive period, so the
    # grid index leaves int64 at t = 2^63 h = 7.91e17
    cfg = parse_config("experiment = fig2b_link_scan\n")
    array, drive = dynamics.link_array(cfg), dynamics.config_drive(cfg, "laser", math.pi, 0.0)
    rows = 16 * dynamics.DENSE_OPERATOR_LIMIT ** 2 // 40
    dynamics.check_exact_grid(cfg, array, drive, 7.9e17, rows)
    with pytest.raises(ConfigurationError, match=r"^the exact drive takes 1.46e\+03 Magnus steps "
                                                 r".*, 6710887 samples and"):
        dynamics.check_exact_grid(cfg, array, drive, 1e6, rows + 1)
    with pytest.raises(ConfigurationError, match=r"a grid index of 9.23e\+18 at the window"):
        dynamics.check_exact_grid(cfg, array, drive, 7.92e17, 2)


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
        _, ring = plaquette_experiment(parse_config(
            f"experiment = fig2cd_plaquette\nnumerics.n_max = {n_max}\n"
            "numerics.window = 1\nnumerics.samples = 2\n"))
        assert build_fock_space(4, n_max).dim == dim
        assert ring.diagnostics["taylor_degree"] <= adaptive + 2


LINK = "experiment = fig2b_link_scan\n"


def test_link_point_at_pi():
    t_star, n2_eff, n2_exact, defined = link_point(parse_config(LINK), math.pi)
    assert defined
    assert n2_eff == pytest.approx(1.0, abs=1e-9)
    assert n2_exact > 0.9
    assert abs(n2_exact - n2_eff) < 0.1


def test_link_point_takes_the_kept_partial_product():
    # the exact model of link_point at delta_phi = pi, on a coarser grid that
    # keeps the scipy reference short: 25 periods, then P_o to t*'s offset
    cfg = parse_config(LINK + "numerics.time_step_divisor = 10\n")
    array = build_array("link", (2,), gradient=cfg["array.gradient"])
    drive = dynamics.config_drive(cfg, "laser", math.pi, 0.0)
    t_star = math.pi / (2 * abs(effective_coupling_matrix(array, drive, "z").matrix[1, 0]))
    space = build_fock_space(2, cfg["numerics.n_max"])
    model = driven_model(array, drive, bare_coupling_matrix(array, "z"), space)
    dt = dynamics.default_time_step(model.frequency_scale, cfg["numerics.time_step_divisor"])
    psi0 = single_phonon_state(space, 0)
    res = evolve(model, psi0, t_star, dt, space=space, samples=2)
    h = res.parameters["dt"]
    n = round(2 * math.pi / abs(model.modulation) / h)
    off_grid = np.count_nonzero(res.times - np.floor(res.times / h + 1e-9) * h > 0)
    diag = res.diagnostics
    assert diag["period_propagator"] and diag["period_powers"] == 25
    assert diag["magnus_steps"] == n + off_grid  # no block steps
    ref = _plain_magnus_populations(model, space, psi0, res.times, dt)
    assert np.abs(res.populations - ref).max() < 1e-9


def test_link_point_suppressed():
    t_star, n2_eff, n2_exact, defined = link_point(parse_config(LINK), 0.0)
    assert not defined
    assert math.isnan(t_star)


def test_link_scan_csv():
    res = link_transfer_scan(parse_config(LINK + "scan.points = 3\n"))  # 0, pi, 2 pi
    csv = res.to_csv().splitlines()
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

