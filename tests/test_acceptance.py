"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The dynamical criteria integrate the full reference windows and
take a couple of minutes in total.
"""

import math

import numpy as np
import pytest
from scipy.special import jv  # independent special-function oracle

from phonon_gauge.config import parse_config
from phonon_gauge.couplings import (
    bare_coupling_matrix,
    dressed_factor,
    effective_coupling_matrix,
    plaquette_flux,
)
from phonon_gauge.dynamics import link_point, link_transfer_scan, plaquette_experiment
from phonon_gauge.model import build_array, cosine_drive
from phonon_gauge.spectra import (
    edge_state_report,
    eigensystem,
    flat_band_report,
    flux_sweep,
    gap_windows_from_clusters,
    rhombic_ladder_cells,
    rhombic_ladder_matrix,
    square_lattice_matrix,
)


def _report(num: int, ok: bool, detail: str):
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# -- shared heavy runs ----------------------------------------------------------------

LINK = "experiment = fig2b_link_scan\n"
RING_PI = "experiment = fig2cd_plaquette\nplaquette.flux = pi\ndrive.rabi_frequency = 0.25\n"
#: the pi-flux ring on the truncated comparison window, for test economy
SHORT_RING_PI = RING_PI + "numerics.window = 1500\nnumerics.samples = 151\n"


@pytest.fixture(scope="module")
def link_scan():
    return link_transfer_scan(parse_config(LINK + "scan.points = 21\n"))


@pytest.fixture(scope="module")
def plaquette_pi():
    return plaquette_experiment(parse_config(RING_PI))


@pytest.fixture(scope="module")
def plaquette_zero():
    return plaquette_experiment(parse_config(
        "experiment = fig2cd_plaquette\nplaquette.flux = 0\ndrive.rabi_frequency = 0.75\n"))


# -- criteria -------------------------------------------------------------------------


def test_criterion_1_dressed_suppression():
    worst = max(abs(dressed_factor(1, eta, 2 * math.pi))
                for eta in (0.1, 0.3, 0.6, 1.0, 2.0))
    _report(1, worst < 1e-12, f"max |F_1(eta, 2pi)| = {worst:.2e} < 1e-12")


def test_criterion_2_closed_form_oracle():
    etas = np.linspace(0.0, 2.0, 50)
    dphis = np.linspace(0.0, 2.0 * math.pi, 50)
    worst = 0.0
    for r in (0, 1, 2):
        for eta in etas:
            closed = np.abs(jv(r, 2.0 * eta * np.sin(dphis / 2.0)))
            series = np.array([abs(dressed_factor(r, eta, dp)) for dp in dphis])
            worst = max(worst, float(np.abs(series - closed).max()))
    _report(2, worst < 1e-10, f"max | |F_r| - |J_r| | = {worst:.2e} on 50x50x3 grid")


def test_criterion_3_link_transfer(link_scan):
    s = link_scan
    suppressed = ~s.defined
    # endpoints (phase step 0 and 2pi) are the suppressed points
    edges_ok = bool(suppressed[0] and suppressed[-1] and s.defined[1:-1].all())
    at_pi = np.argmin(np.abs(s.delta_phi - math.pi))
    peak_ok = s.n2_effective[at_pi] >= 0.9 and s.n2_exact[at_pi] >= 0.9
    gap = float(np.abs(s.n2_effective[s.defined] - s.n2_exact[s.defined]).max())
    _report(
        3,
        edges_ok and peak_ok and gap <= 0.1,
        f"n2*(pi) eff = {s.n2_effective[at_pi]:.4f}, exact = {s.n2_exact[at_pi]:.4f}; "
        f"max model gap = {gap:.4f} <= 0.1 on {int(s.defined.sum())} defined points",
    )


def test_criterion_4_pi_flux_plaquette(plaquette_pi):
    res_eff, res_exact = plaquette_pi
    p3 = float(res_eff.populations[:, 2].max())
    n3 = float(res_exact.populations[:, 2].max())
    _report(4, p3 < 1e-10 and n3 < 0.05,
            f"max effective P_3 = {p3:.2e} < 1e-10; max exact n_3 = {n3:.4f} < 0.05")


def test_criterion_5_zero_flux_plaquette(plaquette_zero):
    res_eff, _ = plaquette_zero
    p3 = float(res_eff.populations[:, 2].max())
    _report(5, p3 > 0.9, f"peak effective P_3 = {p3:.4f} > 0.9")


def test_criterion_6_ladder_spectrum():
    p, j1 = 10, 1.0
    periodic = eigensystem(rhombic_ladder_matrix(p, j1, j1, math.pi, "periodic"))
    clusters = flat_band_report(periodic)
    centers = sorted(c.energy for c in clusters)
    spread = max(c.spread for c in clusters)
    flat_ok = np.allclose(centers, [-2 * j1, 0.0, 2 * j1], atol=1e-10) and spread < 1e-10

    open_spec = eigensystem(rhombic_ladder_matrix(p, j1, j1, math.pi),
                            cells=rhombic_ladder_cells(p), flux=math.pi)
    bulk = [c for c in flat_band_report(open_spec) if c.count >= 3]
    windows = gap_windows_from_clusters(bulk)
    edges = edge_state_report(open_spec, windows)
    per_gap = [
        [e for e in edges if lo < e.energy < hi and e.boundary_weight > 0.9]
        for lo, hi in windows
    ]
    edge_ok = len(windows) == 2 and all(len(v) >= 1 for v in per_gap)
    best = max((e.boundary_weight for e in edges), default=0.0)
    _report(6, flat_ok and edge_ok,
            f"periodic clusters at {np.round(centers, 12)} with spread {spread:.1e}; "
            f"{len(edges)} mid-gap edge states, best boundary weight {best:.4f}")


def test_criterion_7_flux_sweep_gap():
    sweep = flux_sweep(10, 1.0, 1.0, 41, "periodic")
    g = sweep.gaps
    zero_idx = 20
    closes = g[zero_idx] < 1e-6
    grow_right = all(g[i + 1] >= g[i] - 1e-9 for i in range(zero_idx, 40))
    grow_left = all(g[i] >= g[i + 1] - 1e-9 for i in range(0, zero_idx))
    _report(7, closes and grow_right and grow_left,
            f"gap(0) = {g[zero_idx]:.2e} < 1e-6; gap(pi) = {g[-1]:.6f}; "
            f"monotone growth toward |pi| on the 41-point grid")


def test_criterion_8_property_suite(link_scan, plaquette_pi, plaquette_zero):
    """Invariant battery.  Known red: the truncation-doubling bound.

    With the ring presets pinned at n_max = 2 and the unitary displacement
    construction (itself pinned by the displacement unitarity requirement),
    doubling n_max moves the exact-model populations by 1.28e-3 over the
    first 1500 time units of the pi-flux window (1.28e-2 over the full
    window; ~9e-3 at zero flux with the stronger drive), above the 1e-3
    bound.  The number is step-size independent and grows with the window,
    so it is genuine truncation physics of the n_max = 2 baseline, not an
    integrator artifact; the interference observable n_3 itself stays
    converged to 8e-5 on the comparison window.  The check is kept faithful
    (measured on the documented 1500-unit economy window, a lower bound on
    the full-window deviation) rather than loosened.
    """
    checks = []

    # gauge invariance of spectra and fluxes
    arr = build_array("plaquette", (2, 2), gradient=0.05)
    drv = cosine_drive(0.05, 0.6, 1, phase_x=1.0, phase_y=0.7)
    eff = effective_coupling_matrix(arr, drv, "z")
    rng = np.random.default_rng(11)
    gauge = np.exp(1j * rng.uniform(-math.pi, math.pi, 4))
    rotated = gauge[:, None] * eff.matrix * np.conj(gauge)[None, :]
    flux_dev = abs(plaquette_flux(rotated, [0, 1, 2, 3]) - plaquette_flux(eff, [0, 1, 2, 3]))
    spec_dev = float(np.abs(np.linalg.eigvalsh(rotated) - np.linalg.eigvalsh(eff.matrix)).max())
    checks.append(("gauge invariance", flux_dev < 1e-10 and spec_dev < 1e-10,
                   f"flux dev {flux_dev:.1e}, spectrum dev {spec_dev:.1e}"))

    # unitarity over every preset evolution window
    drift = max(float(np.abs(res.norms - 1.0).max())
                for res in (*plaquette_pi, *plaquette_zero))
    from phonon_gauge.dynamics import driven_model, evolve
    from phonon_gauge.fock import build_fock_space, single_phonon_state
    from phonon_gauge.model import laser_drive

    link_arr = build_array("link", (2,), gradient=0.05)
    link_space = build_fock_space(2, 4)
    link_drv = laser_drive(0.75, 0.05, 0.2, phase_x=math.pi)
    link_model = driven_model(link_arr, link_drv,
                              bare_coupling_matrix(link_arr, "z"), link_space)
    t_star = link_scan.t_star[10]
    link_run = evolve(link_model, single_phonon_state(link_space, 0), t_star,
                      occupation=link_space.occupation_table(), samples=9)
    drift = max(drift, float(np.abs(link_run.norms - 1.0).max()))
    checks.append(("norm drift", drift < 1e-8, f"max drift {drift:.1e} < 1e-8"))

    # step halving on the link preset (full window, exact model)
    [base] = link_point(parse_config(LINK + "numerics.time_step_divisor = 40\n"), math.pi)
    [halved] = link_point(parse_config(LINK + "numerics.time_step_divisor = 80\n"), math.pi)
    dt_change = abs(base[2] - halved[2])
    checks.append(("step halving", dt_change < 1e-6, f"n2* change {dt_change:.1e} < 1e-6"))

    # step halving on the plaquette preset (truncated window for test economy)
    _, pl_a = plaquette_experiment(parse_config(
        SHORT_RING_PI + "numerics.time_step_divisor = 10\n"))
    _, pl_b = plaquette_experiment(parse_config(
        SHORT_RING_PI + "numerics.time_step_divisor = 20\n"))
    pl_change = float(np.abs(pl_a.populations - pl_b.populations).max())
    checks.append(("plaquette step halving", pl_change < 1e-6,
                   f"population change {pl_change:.1e} < 1e-6"))

    # truncation: doubling n_max moves populations by < 1e-3
    [deeper] = link_point(parse_config(LINK + "numerics.n_max = 8\n"), math.pi)
    link_nmax = abs(base[2] - deeper[2])
    _, pl_n2 = plaquette_experiment(parse_config(
        SHORT_RING_PI + "numerics.n_max = 2\nnumerics.time_step_divisor = 10\n"))
    _, pl_n4 = plaquette_experiment(parse_config(
        SHORT_RING_PI + "numerics.n_max = 4\nnumerics.time_step_divisor = 10\n"))
    pl_nmax = float(np.abs(pl_n2.populations - pl_n4.populations).max())
    checks.append(("n_max doubling", link_nmax < 1e-3 and pl_nmax < 1e-3,
                   f"link change {link_nmax:.1e}, plaquette change {pl_nmax:.1e} < 1e-3"))

    # phonon-number conservation: exact for the dressed models
    number_dev = max(float(np.abs(res.total_number() - 1.0).max())
                     for res in (plaquette_pi[0], plaquette_zero[0]))
    checks.append(("number conservation", number_dev < 1e-8,
                   f"effective-model deviation {number_dev:.1e}"))
    # and bounded injection for the exact drive
    injection = max(float(np.abs(res.total_number() - 1.0).max())
                    for res in (plaquette_pi[1], plaquette_zero[1]))
    checks.append(("number injection bound", injection < 0.1,
                   f"exact-model deviation {injection:.3f} < 0.1"))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}: {info}" for name, good, info in checks)
    _report(8, ok, detail)


def test_criterion_9_hofstadter_sanity():
    lx, ly, jx, jy = 7, 5, 1.0, 0.7
    vals = np.sort(np.linalg.eigvalsh(square_lattice_matrix(lx, ly, 0.0, jx, jy)))
    kx, ky = np.arange(1, lx + 1), np.arange(1, ly + 1)
    analytic = np.sort(
        (2 * jx * np.cos(np.pi * kx / (lx + 1)))[:, None]
        + (2 * jy * np.cos(np.pi * ky / (ly + 1)))[None, :],
        axis=None,
    )
    separable_dev = float(np.abs(vals - analytic).max())

    chiral = np.sort(np.linalg.eigvalsh(square_lattice_matrix(8, 8, math.pi, 1.0, 1.0)))
    chiral_dev = float(np.abs(chiral + chiral[::-1]).max())
    _report(9, separable_dev < 1e-10 and chiral_dev < 1e-10,
            f"separable dev {separable_dev:.1e}; chiral dev {chiral_dev:.1e}")
