import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phonon_gauge import cli, config, dynamics
from phonon_gauge.config import ConfigError, EXPERIMENTS, PRESETS, ExperimentConfig, \
    parse_config
from phonon_gauge.dynamics import IntegrationError
from phonon_gauge.fock import DENSE_BYTE_BUDGET


def _simulate(tmp_path, text, out_name="out", extra=()):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / out_name
    return cli.main(["simulate", "--config", str(cfg), "--out", str(out), *extra]), out


SMALL_MAP = "experiment = fig2a_dressed_map\nmap.eta_points = 9\nmap.phase_points = 11\n"

_BYTES = "above the dense budget of 268435456 bytes"
_WORK = "above the work budget of 4000000000000"


def test_preset_list(capsys):
    assert cli.main(["preset", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("fig2a_dressed_map:")


def test_dressed_map_run_and_manifest(tmp_path):
    code, out = _simulate(tmp_path, SMALL_MAP)
    assert code == 0
    data = (out / "dressed_map.csv").read_text()
    assert data.startswith("eta_d,delta_phi,magnitude\n")
    assert len(data.splitlines()) == 1 + 9 * 11
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "fig2a_dressed_map"
    assert manifest["parameters"]["map.eta_points"] == 9
    assert manifest["version"]
    assert "duration_seconds" in manifest
    assert "dressed_map.csv" in manifest["files"]


def test_rerun_is_bit_identical(tmp_path):
    _, out1 = _simulate(tmp_path, SMALL_MAP, "out1")
    _, out2 = _simulate(tmp_path, SMALL_MAP, "out2")
    assert (out1 / "dressed_map.csv").read_bytes() == (out2 / "dressed_map.csv").read_bytes()


LINK_TWO_POINTS = "experiment = fig2b_link_scan\nscan.points = 2\n"

#: (data file, config): the butterflies map three fluxes each, mirroring the
#: rest of an odd and of an even grid
JOBS_CASES = [
    ("dressed_map.csv", SMALL_MAP),
    ("flux_sweep.csv", "experiment = fig2f_flux_sweep\nsweep.points = 5\nladder.cells = 3\n"),
    ("butterfly.csv", "experiment = butterfly\nbutterfly.size = 4\nbutterfly.points = 5\n"),
    ("butterfly.csv", "experiment = butterfly\nbutterfly.size = 4\nbutterfly.points = 6\n"
                      "butterfly.boundary = periodic\nbutterfly.m_max = 2\n"),
    ("link_scan.csv", LINK_TWO_POINTS),
]


def test_jobs_do_not_change_output(tmp_path):
    for k, (data_file, text) in enumerate(JOBS_CASES):
        _, out1 = _simulate(tmp_path, text, f"serial_{k}")
        _, out2 = _simulate(tmp_path, text, f"parallel_{k}", extra=("--jobs", "2"))
        assert (out1 / data_file).read_bytes() == (out2 / data_file).read_bytes(), text


def test_a_one_worker_run_never_imports_multiprocessing(tmp_path):
    # a fresh interpreter, since this one may have forked a pool already
    script = ("import sys\n"
              "from phonon_gauge import cli\n"
              "from phonon_gauge.config import parse_config\n"
              f"cli.run_experiment(parse_config({LINK_TWO_POINTS!r}), "
              f"{str(tmp_path / 'out')!r}, jobs=1)\n"
              "print(sorted({'multiprocessing', 'socket', 'selectors'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout == "[]\n"
    assert (tmp_path / "out" / "link_scan.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    code, out = _simulate(tmp_path, SMALL_MAP, extra=("--jobs", jobs))
    assert code == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_pool_size_is_clamped(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._pool_size(1, 21) == 1
    assert cli._pool_size(2, 21) == 2
    assert cli._pool_size(64, 21) == 2
    assert cli._pool_size(64, 1) == 1
    assert cli._pool_size(2, 0) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._pool_size(2, 21) == 1


@pytest.mark.parametrize("text, extra, fmt", [
    ("experiment = butterfly\nbutterfly.size = 2\nbutterfly.points = 2\n",
     ("--format", "json"), "json"),
    ("experiment = fig2f_flux_sweep\nsweep.points = 2\nladder.cells = 1\n"
     "output.format = json\n", (), "json"),
    ("experiment = fig2e_ladder_spectrum\n", ("--format", "csv"), "csv"),
    ("experiment = custom\narray.layout = link\noutput.format = csv\n", (), "csv"),
])
def test_single_format_experiments_reject_the_other(tmp_path, capsys, text, extra, fmt):
    code, out = _simulate(tmp_path, text, extra=extra)
    assert code == 1
    assert f"got {fmt}" in capsys.readouterr().err
    assert not out.exists()


def test_format_flag_switches_serialisation(tmp_path):
    code, out = _simulate(tmp_path, SMALL_MAP, extra=("--format", "json"))
    assert code == 0
    payload = json.loads((out / "dressed_map.json").read_text())
    assert len(payload["eta_d"]) == 9


def test_ladder_spectrum_payload(tmp_path):
    code, out = _simulate(tmp_path, "experiment = fig2e_ladder_spectrum\n")
    assert code == 0
    payload = json.loads((out / "ladder_spectrum.json").read_text())
    assert len(payload["spectrum"]["eigenvalues"]) == 31
    centers = sorted(b["energy"] for b in payload["flat_bands"] if b["count"] >= 3)
    assert centers == pytest.approx([-2.0, 0.0, 2.0], abs=1e-9)
    assert len(payload["edge_states"]) >= 2


def test_flux_sweep_output(tmp_path):
    code, out = _simulate(
        tmp_path, "experiment = fig2f_flux_sweep\nsweep.points = 11\nladder.cells = 4\n"
    )
    assert code == 0
    lines = (out / "flux_sweep.csv").read_text().splitlines()
    assert len(lines) == 12
    assert lines[0].split(",")[0] == "phi"


def test_butterfly_output(tmp_path):
    code, out = _simulate(
        tmp_path,
        "experiment = butterfly\nbutterfly.size = 4\nbutterfly.points = 5\n",
    )
    assert code == 0
    lines = (out / "butterfly.csv").read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("alpha,E_1")


def test_link_scan_pipeline_suppressed_grid(tmp_path):
    # a 2-point grid hits only the suppressed endpoints: exercises the full
    # pipeline without long integrations
    code, out = _simulate(tmp_path, "experiment = fig2b_link_scan\nscan.points = 2\n")
    assert code == 0
    lines = (out / "link_scan.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith(",0") and lines[2].endswith(",0")


def test_link_scan_json_marks_undefined_points_null(tmp_path):
    code, out = _simulate(tmp_path, "experiment = fig2b_link_scan\nscan.points = 2\n",
                          extra=("--format", "json"))
    assert code == 0
    payload = json.loads((out / "link_scan.json").read_text())
    assert payload["defined"] == [False, False]
    assert payload["t_star"] == [None, None] and payload["n2_exact"] == [None, None]


def test_plaquette_pipeline_short_window(tmp_path):
    text = ("experiment = fig2cd_plaquette\nnumerics.window = 150\n"
            "numerics.samples = 16\n")
    code, out = _simulate(tmp_path, text, extra=("--format", "json"))
    assert code == 0
    eff = json.loads((out / "plaquette_effective.json").read_text())
    exact = json.loads((out / "plaquette_exact.json").read_text())
    assert len(eff["times"]) == 16 and len(exact["times"]) == 16
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["window"] == 150
    assert manifest["parameters"]["drive.rabi_frequency"] == 0.25


def test_plaquette_manifest_reports_exact_diagnostics(tmp_path):
    text = "experiment = fig2cd_plaquette\nnumerics.window = 150\nnumerics.samples = 4\n"
    code, out = _simulate(tmp_path, text)
    assert code == 0
    diag = json.loads((out / "manifest.json").read_text())["resolved"]["diagnostics"]
    assert set(diag) == {"magnus_steps", "taylor_degree", "period_propagator", "period_nodes",
                         "period_reversed", "period_glide", "period_powers", "max_norm_drift",
                         "max_top_level_population"}
    assert diag["magnus_steps"] > 0 and diag["taylor_degree"] > 0
    # 150 spans 2.4 half periods of the pi ring's mirror glide, and W pays
    # for itself; the whole period's U_T did not, and the run stepped plainly
    assert diag["period_propagator"] is True and diag["period_powers"] == 2
    assert diag["period_nodes"] == 15 and diag["period_reversed"] is True
    assert diag["period_glide"] is True
    assert 0 <= diag["max_norm_drift"] < 1e-8
    assert 0 < diag["max_top_level_population"] < 1e-2  # n_max = 2 holds the drive's leakage
    assert "diagnostics" not in (out / "plaquette_exact.csv").read_text()


def test_pi_ring_manifest_reports_the_glide(tmp_path):
    # the preset pi ring's 1050 steps a period take its mirror glide: W, the
    # Floquet operator of half a period, forms the 263 step exponentials of a
    # quarter period, and the block steps through at most a quarter period
    code, out = _simulate(tmp_path, "experiment = fig2cd_plaquette\n")
    assert code == 0
    diag = json.loads((out / "manifest.json").read_text())["resolved"]["diagnostics"]
    assert diag["period_propagator"] and diag["period_reversed"] and diag["period_glide"]
    assert diag["magnus_steps"] == 1385  # 263 formed, the block steps and the partial steps


@pytest.mark.parametrize("text, key", [
    ("experiment = custom\narray.layout = square\narray.nx = 100000\narray.ny = 100000\n",
     "array.nx, array.ny"),
    ("experiment = custom\narray.layout = rhombic_ladder\narray.cells = 1366\n", "array.cells"),
    ("experiment = butterfly\nbutterfly.size = 65\n", "butterfly.size"),
    ("experiment = fig2e_ladder_spectrum\nladder.cells = 1366\n", "ladder.cells"),
    ("experiment = fig2f_flux_sweep\nladder.cells = 1366\n", "ladder.cells"),
])
def test_oversized_lattice_is_a_config_error(tmp_path, monkeypatch, capsys, text, key):
    def never(*args, **kwargs):
        raise AssertionError("lattice built despite the size limit")

    monkeypatch.setattr(config, "build_array", never)  # builds the custom lattice
    code, out = _simulate(tmp_path, text + "output.format = xml\n")
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: the lattice matrix takes" in err
    assert "output.format" in err  # every violation is listed
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "experiment = fig2cd_plaquette\n",
    "experiment = fig2b_link_scan\nscan.points = 3\n",
], ids=["fig2cd_plaquette", "fig2b_link_scan"])
def test_n_max_zero_is_a_range_violation(tmp_path, capsys, text):
    code, _ = _simulate(tmp_path, text + "numerics.n_max = 0\n")
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: numerics.n_max: range violation, must be >= 1, got 0\n")


@pytest.mark.parametrize("key", ["drive.rabi_frequency", "drive.lamb_dicke"])
def test_ring_without_drive_is_a_config_error(tmp_path, capsys, key):
    code, out = _simulate(tmp_path, f"experiment = fig2cd_plaquette\n{key} = 0\n")
    assert code == 1
    assert "config error: the dressed ring bond vanishes" in capsys.readouterr().err
    assert not (out / "plaquette_exact.csv").exists()


def test_ring_above_the_fock_limit_is_a_config_error(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("exact-drive model built above the Fock-space limit")

    monkeypatch.setattr(dynamics, "driven_model", never)
    code, _ = _simulate(tmp_path, "experiment = fig2cd_plaquette\nnumerics.n_max = 8\n")
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: numerics.n_max: the step-generator table takes 3443737680 bytes "
        f"(5 x 6561 x 6561 x 16), {_BYTES}\n"
        "config error: numerics.window, numerics.n_max: the run takes at least 5764386409110 "
        f"complex multiply-adds, {_WORK}\n")


def test_weak_ring_drive_on_the_automatic_window_is_a_config_error(tmp_path, monkeypatch,
                                                                  capsys):
    # |J| = 8e-16 would give a window of 3.9e15 time units, a run that never ends
    def never(*args, **kwargs):
        raise AssertionError("evolved on an automatic window with a bond below threshold")

    monkeypatch.setattr(dynamics, "evolve", never)
    text = "experiment = fig2cd_plaquette\ndrive.rabi_frequency = 1e-12\n"
    code, out = _simulate(tmp_path, text + "output.format = xml\n")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: the dressed ring bond |J| = 8e-16 is below 1e-06" in err
    assert "output.format" in err  # listed with the other violations
    assert not out.exists()
    parse_config(text + "numerics.window = 100\n")  # an explicit window stays valid


@pytest.mark.parametrize("text, capacity", [
    ("experiment = fig2cd_plaquette\nnumerics.n_max = 8\n",
     ["numerics.n_max: the step-generator table takes 3443737680 bytes "
      f"(5 x 6561 x 6561 x 16), {_BYTES}",
      "numerics.window, numerics.n_max: the run takes at least 5764386409110 complex "
      f"multiply-adds, {_WORK}"]),
    ("experiment = fig2b_link_scan\nnumerics.n_max = 64\n",
     ["numerics.n_max: the step-generator table takes 1428050000 bytes "
      f"(5 x 4225 x 4225 x 16), {_BYTES}",
      f"scan.points, numerics.n_max: the run takes at least 3.27e+15 complex "
      f"multiply-adds, {_WORK}"]),
], ids=["fig2cd_plaquette", "fig2b_link_scan"])
def test_fock_limit_is_listed_with_the_other_violations(tmp_path, capsys, text, capacity):
    code, out = _simulate(tmp_path, text + "output.format = xml\n")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("config error: output.format: ")
    assert err[1:] == [f"config error: {v}" for v in capacity]
    assert not out.exists()


def test_jobs_and_out_violations_are_listed_together(tmp_path, capsys):
    (tmp_path / "blocker").write_text("a regular file")
    code, _ = _simulate(tmp_path, SMALL_MAP, out_name="blocker/out", extra=("--jobs", "0"))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "config error: --jobs: must be >= 1, got 0"
    assert err[1].startswith("config error: --out: ")
    assert len(err) == 2


OFF_RESONANT = "drive is off-resonant: r * drive_frequency = 0.06, gradient = 0.05"


@pytest.mark.parametrize("text, config_violation", [
    ("experiment = fig2cd_plaquette\nnumerics.n_max = 0\n",
     "numerics.n_max: range violation, must be >= 1, got 0"),
    ("experiment = fig2cd_plaquette\ndrive.rabi_frequency = 0\n",
     "the dressed ring bond vanishes: |F_1(eta_d, pi)| = 0 at eta_d = 0.0; "
     "the ring needs a nonzero drive"),
    ("experiment = fig2b_link_scan\ndrive.beat_frequency = 0.06\n", OFF_RESONANT),
    ("experiment = fig2cd_plaquette\ndrive.beat_frequency = 0.06\n", OFF_RESONANT),
    ("experiment = custom\narray.layout = link\ndrive.beat_frequency = 0.06\n", OFF_RESONANT),
    ("experiment = fig2b_link_scan\ndrive.lamb_dicke = 3\n",
     "eta_d must be in [0, 50.0], got 135.0"),
    ("experiment = custom\narray.layout = link\ndrive.mode = cosine\ndrive.strength = 60\n",
     "eta_d must be in [0, 50.0], got 60.0"),
    ("experiment = fig2a_dressed_map\nmap.eta_max = 60\n",
     "drive.resonance_order, map.eta_max: eta_d must be in [0, 50.0], got 60.0"),
    ("experiment = custom\narray.layout = link\ndrive.lamb_dicke = 1e300\n",
     "laser drive eta_d is not finite: rabi_frequency = 0.75, lamb_dicke = 1e+300"),
    ("experiment = custom\narray.layout = plaquette\narray.spacing_y = 1e70\n",
     "sites 2 and 0 are 1e+70 x-spacings apart, too far for the dipolar coupling "
     "(|dr|^5 overflows)"),
    ("experiment = custom\narray.layout = plaquette\narray.spacing_y = 1e-70\n",
     "sites 2 and 1 are 1e-70 x-spacings apart, too close for the dipolar coupling "
     "(|dr|^5 underflows)"),
    ("experiment = custom\narray.layout = plaquette\n"
     "array.spacing_y = 1e300\narray.spacing_x = 1e-300\n",
     "the spacing ratio spacing_y / spacing_x = inf is not finite and positive "
     "(spacing_x = 1e-300, spacing_y = 1e+300)"),
    ("experiment = custom\narray.layout = plaquette\n"
     "array.spacing_y = 1e-300\narray.spacing_x = 1e300\n",
     "the spacing ratio spacing_y / spacing_x = 0.0 is not finite and positive "
     "(spacing_x = 1e+300, spacing_y = 1e-300)"),
    ("experiment = custom\narray.layout = square\narray.ny = 3\narray.spacing_y = 1e308\n",
     "the spacing ratio spacing_y / spacing_x = 1e+308 puts sites beyond the float range"),
], ids=["n_max", "ring_bond", "link_off_resonant", "ring_off_resonant", "custom_off_resonant",
        "link_eta_d", "custom_cosine_eta_d", "map_eta_max", "custom_eta_d_overflow",
        "custom_far_apart", "custom_too_close", "custom_infinite_ratio", "custom_zero_ratio",
        "custom_position_overflow"])
def test_config_and_flag_violations_are_listed_together(tmp_path, capsys, text,
                                                        config_violation):
    code, out = _simulate(tmp_path, text, extra=("--jobs", "0"))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {config_violation}", "config error: --jobs: must be >= 1, got 0"]
    assert not out.exists()


@pytest.mark.parametrize("text, pair", [
    ("experiment = fig2cd_plaquette\ndrive.rabi_frequency = 1e-300\n",
     "sites 2 and 0 are 1.08e+100"),
    ("experiment = custom\narray.layout = plaquette\narray.spacing_y = 1e70\n",
     "sites 2 and 0 are 1e+70"),
    ("experiment = custom\narray.layout = square\narray.spacing_x = 1e-70\n",
     "sites 1 and 0 are 1e+70"),
], ids=["ring_weak_drive", "custom_spacing_y", "custom_spacing_x"])
def test_distance_beyond_the_float_range_is_a_geometry_error(tmp_path, capsys, text, pair):
    # |dr|^5 overflows above about 1.6e61 x spacings; the ring's tuned
    # spacing_y gets there for a drive this weak
    code, out = _simulate(tmp_path, text)
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: {pair} x-spacings apart, too far for the dipolar coupling "
        "(|dr|^5 overflows)\n")
    assert not out.exists()  # found by parse_config
    code, _ = _simulate(tmp_path, text, extra=("--jobs", "0"))
    assert code == 1
    assert capsys.readouterr().err.splitlines()[1] == "config error: --jobs: must be >= 1, got 0"


RING = "experiment = fig2cd_plaquette\n"

_STEPS = "numerics.time_step_divisor: the step table at frequency scale"
_RING_WORK = "numerics.window, numerics.n_max: the run takes at least"

#: Exact-drive configs whose Magnus grid does not fit, as (config, the start of
#: each violation): step tables or per-sample arrays of GiBs (without the check,
#: a MemoryError or a numpy ValueError, exit 3), and a window whose grid index
#: leaves int64 (without it, nan data and exit 0), now priced as work.
OVERSIZED_EXACT_DRIVES = {
    "samples": (RING + "numerics.samples = 1000000000\n",
                ["numerics.samples: the sample table takes 40000000000 bytes "
                 "(1000000000 x 5 x 8)"]),
    "divisor": (RING + "numerics.time_step_divisor = 1000000000\n",
                [f"{_STEPS} 1.31 takes 1049036486320 bytes (26225912158 x 5 x 8)",
                 f"{_RING_WORK} 3.53e+15 complex multiply-adds"]),
    "strong_drive": (RING + "drive.rabi_frequency = 1e6\ndrive.lamb_dicke = 1e-3\n",
                     [f"{_STEPS} 1e+06 takes 32000065640 bytes (800001641 x 5 x 8)",
                      f"{_RING_WORK} 215201244074724 complex multiply-adds"]),
    "overflowing_drive": (RING + "drive.rabi_frequency = 1e300\ndrive.lamb_dicke = 1e-160\n"
                          "numerics.window = 100\n",
                          [f"{_STEPS} 1e+300 takes 3.2e+304 bytes (8e+302 x 5 x 8)",
                           f"{_RING_WORK} 4.18e+306 complex multiply-adds"]),
    "window": (RING + "numerics.window = 1e300\nnumerics.samples = 3\n",
               [f"{_RING_WORK} 1.04e+302 complex multiply-adds"]),
    "link_divisor": ("experiment = fig2b_link_scan\nnumerics.time_step_divisor = 1000000000\n",
                     ["numerics.time_step_divisor: the step table at frequency scale 1.83 takes "
                      "1464780720080 bytes (36619518002 x 5 x 8)",
                      "scan.points, numerics.n_max: the run takes at least 5.65e+15"]),
}


@pytest.mark.parametrize("text, problems", OVERSIZED_EXACT_DRIVES.values(),
                         ids=OVERSIZED_EXACT_DRIVES.keys())
def test_oversized_exact_drive_grid_is_a_config_error(tmp_path, monkeypatch, capsys, text,
                                                      problems):
    def never(*args, **kwargs):
        raise AssertionError("evolved an exact-drive grid above the memory budget")

    monkeypatch.setattr(dynamics, "evolve", never)
    code, out = _simulate(tmp_path, text, extra=("--jobs", "0"))
    assert code == 1
    *err, last = capsys.readouterr().err.splitlines()
    assert len(err) == len(problems)
    assert all(line.startswith(f"config error: {p}") for line, p in zip(err, problems)), err
    assert last == "config error: --jobs: must be >= 1, got 0"
    assert not out.exists()


#: Sweeps whose arrays exceed the 16 * 4096 ** 2 byte budget, as (config, the
#: start of each violation, the work of a sweep among them): 1e12 points, then
#: sizes whose products pass the float range and, for butterfly.size, int's
#: 4300-digit string limit; the last is the one violation of dressed_factor's
#: domain.
OVERSIZED_SWEEPS = {
    "butterfly": ("experiment = butterfly\nbutterfly.points = 1000000000000\n",
                  ["butterfly.points, butterfly.size: the result table takes 1.16e+15 bytes",
                   "butterfly.points, butterfly.size: the run takes at least 9.95e+17 complex "
                   "multiply-adds"]),
    "flux_sweep": ("experiment = fig2f_flux_sweep\nsweep.points = 1000000000000\n",
                   ["sweep.points, ladder.cells: the result table takes 264000000000000 bytes",
                    "sweep.points, ladder.cells: the run takes at least 9.93e+15 complex "
                    "multiply-adds"]),
    "dressed_map": ("experiment = fig2a_dressed_map\nmap.eta_points = 1000000000000\n",
                    ["map.eta_points, map.phase_points: the result table takes "
                     "648000000000000 bytes"]),
    "dressed_map_phases": ("experiment = fig2a_dressed_map\nmap.phase_points = 1000000000000\n",
                           ["map.eta_points, map.phase_points: the result table takes "
                            "648000000000000"]),
    "link_scan": ("experiment = fig2b_link_scan\nscan.points = 1000000000000\n",
                  ["scan.points: the result table takes 40000000000000 bytes",
                   "scan.points, numerics.n_max: the run takes at least 1.58e+19 complex "
                   "multiply-adds"]),
    "butterfly_400_digits": (f"experiment = butterfly\nbutterfly.points = {10 ** 399}\n",
                             ["butterfly.points, butterfly.size: the result table takes "
                              "1.16e+402 bytes (1e+399 x 145 x 8)",
                              "butterfly.points, butterfly.size: the run takes at least "
                              "9.95e+404 complex multiply-adds"]),
    "flux_sweep_310_digits": (f"experiment = fig2f_flux_sweep\nsweep.points = {10 ** 310}\n",
                              ["sweep.points, ladder.cells: the result table takes 2.64e+312 "
                               "bytes (1e+310 x 33 x 8)",
                               "sweep.points, ladder.cells: the run takes at least 9.93e+313"]),
    "butterfly_size": (f"experiment = butterfly\nbutterfly.size = {10 ** 160}\n",
                       ["butterfly.points, butterfly.size: the result table takes 9.68e+322 "
                        "bytes (121 x 1e+320 x 8)",
                        "butterfly.size: the lattice matrix takes 1.6e+641 bytes "
                        "(1e+320 x 1e+320 x 16)",
                        "butterfly.points, butterfly.size: the run takes at least 4.07e+961"]),
    "butterfly_size_2200_digits": (f"experiment = butterfly\nbutterfly.size = {10 ** 2200}\n",
                                   ["butterfly.points, butterfly.size: the result table takes "
                                    "9.68e+4402 bytes",
                                    "butterfly.size: the lattice matrix takes 1.6e+8801 bytes",
                                    "butterfly.points, butterfly.size: the run takes at least "
                                    "4.07e+13201"]),
    "ladder_cells": (f"experiment = fig2f_flux_sweep\nladder.cells = {10 ** 306}\n",
                     ["sweep.points, ladder.cells: the result table takes 9.84e+308 bytes",
                      "ladder.cells: the lattice matrix takes 1.44e+614 bytes "
                      "(3e+306 x 3e+306 x 16)",
                      "sweep.points, ladder.cells: the run takes at least 3.78e+920"]),
    "eta_max": ("experiment = fig2a_dressed_map\nmap.eta_max = 1e308\n",
                ["drive.resonance_order, map.eta_max: eta_d must be in [0, 50.0], got 1e+308"]),
}


@pytest.mark.parametrize("text, problems", OVERSIZED_SWEEPS.values(), ids=OVERSIZED_SWEEPS.keys())
def test_oversized_sweep_is_a_config_error(tmp_path, capsys, text, problems):
    code, out = _simulate(tmp_path, text, extra=("--jobs", "0"))
    assert code == 1
    *err, last = capsys.readouterr().err.splitlines()
    assert len(err) == len(problems)
    assert all(line.startswith(f"config error: {p}") for line, p in zip(err, problems)), err
    assert last == "config error: --jobs: must be >= 1, got 0"
    assert not out.exists()


#: Runs that fit neither the byte budget nor the work budget, though each part of
#: them would fit the other rules: the ring's and the link's step-generator table
#: (0.46 and 1.34 GB at n_max = 6 and 7, 0.27 GB for the link at 42), the
#: link's U_T builds, a full one per mirrored pair of points and half of one
#: for pi, at n_max = 25 (its limit is 24), Floquet sampling over 8e14 drive
#: periods, and 4095 and 500 diagonalisations of a 4096 x 4096 lattice.
OVERSIZED_RUNS = {
    "ring_n_max_6": (RING + "numerics.n_max = 6\n",
                     ["numerics.n_max: the step-generator table takes 461184080 bytes "
                      f"(5 x 2401 x 2401 x 16), {_BYTES}"]),
    "ring_n_max_7": (RING + "numerics.n_max = 7\n",
                     ["numerics.n_max: the step-generator table takes 1342177280 bytes "
                      f"(5 x 4096 x 4096 x 16), {_BYTES}"]),
    "link_n_max_25": ("experiment = fig2b_link_scan\nnumerics.n_max = 25\n",
                      ["scan.points, numerics.n_max: the run takes at least 4366379175392 "
                       f"complex multiply-adds, {_WORK}"]),
    "link_n_max_42": ("experiment = fig2b_link_scan\nnumerics.n_max = 42\n",
                      ["numerics.n_max: the step-generator table takes 273504080 bytes "
                       f"(5 x 1849 x 1849 x 16), {_BYTES}",
                       "scan.points, numerics.n_max: the run takes at least 88525267282859 "
                       f"complex multiply-adds, {_WORK}"]),
    "ring_window": (RING + "numerics.window = 1e17\n",
                    ["numerics.window, numerics.n_max: the run takes at least 1.04e+19 complex "
                     f"multiply-adds, {_WORK}"]),
    "butterfly_64_8190": ("experiment = butterfly\nbutterfly.size = 64\n"
                          "butterfly.points = 8190\n",
                          ["butterfly.points, butterfly.size: the run takes at least "
                           f"187604171489280 complex multiply-adds, {_WORK}"]),
    "ladder_1365_1000": ("experiment = fig2f_flux_sweep\nladder.cells = 1365\n"
                         "sweep.points = 1000\n",
                         ["sweep.points, ladder.cells: the run takes at least 22906492245333 "
                          f"complex multiply-adds, {_WORK}"]),
}


@pytest.mark.parametrize("text, problems", OVERSIZED_RUNS.values(), ids=OVERSIZED_RUNS.keys())
def test_run_beyond_the_budget_is_a_config_error(tmp_path, monkeypatch, capsys, text, problems):
    def never(*args, **kwargs):
        raise AssertionError("started a run beyond the budget")

    for owner, name in ((dynamics, "driven_model"), (dynamics, "evolve"),
                        (np.linalg, "eigvalsh")):
        monkeypatch.setattr(owner, name, never)
    code, out = _simulate(tmp_path, text, extra=("--jobs", "0"))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        *(f"config error: {problem}" for problem in problems),
        "config error: --jobs: must be >= 1, got 0"]
    assert not out.exists()


#: Runs the budget admits: the presets, criterion 8's ring, the benchmark's
#: seed-0 jobs (as bench/workloads.py writes them), the largest ring whose
#: step-generator table fits, the largest link whose U_T builds fit the work
#: budget, the largest custom lattice, and a dressed map of 83887 phase steps
#: (its result table takes 5.4e7 bytes; it holds no phase matrix).
ADMITTED = {
    **{name: f"experiment = {name}\n" for name in EXPERIMENTS if name != "custom"},
    **{f"custom_{layout}": f"experiment = custom\narray.layout = {layout}\n"
       for layout in ("link", "plaquette", "square", "rhombic_ladder")},
    "criterion_8_ring": RING + "numerics.n_max = 4\nnumerics.time_step_divisor = 10\n"
                               "numerics.window = 1500\nnumerics.samples = 151\n",
    "bench_ring_pi": RING + "plaquette.flux = pi\nnumerics.n_max = 2\nnumerics.samples = 601\n"
                            "numerics.window = 4060.0\n",
    "bench_link_scan": "experiment = fig2b_link_scan\nscan.points = 21\nnumerics.n_max = 4\n",
    "bench_custom_square": "experiment = custom\narray.layout = square\narray.nx = 30\n"
                           "array.ny = 30\n",
    "ring_n_max_5": RING + "numerics.n_max = 5\n",
    "link_n_max_24": "experiment = fig2b_link_scan\nnumerics.n_max = 24\n",
    "custom_square_64": "experiment = custom\narray.layout = square\narray.nx = 64\n"
                        "array.ny = 64\n",
    "phase_matrix": "experiment = fig2a_dressed_map\nmap.phase_points = 83887\n"
                    "map.eta_max = 25\n",
}


@pytest.mark.parametrize("text", ADMITTED.values(), ids=ADMITTED.keys())
def test_normal_runs_fit_the_budget(text):
    cfg = parse_config(text)
    arrays, work = config.run_price(cfg.experiment, dict(cfg.values))
    assert all(math.prod(shape) * entry <= DENSE_BYTE_BUDGET for _, _, shape, entry in arrays)
    if cfg.experiment in ("fig2b_link_scan", "fig2cd_plaquette"):
        assert work is not None  # the grid of the drive is priced
    assert work is None or work[1] <= config.WORK_BUDGET


#: The exact drive's work as the runs are made: two link points are the pair 0
#: and 2 pi, whose dressed factor vanishes, so nothing runs; three add pi, a
#: drive that is its own time reverse and builds U_T from half a period, as
#: the flux-0 ring does.  The preset pi ring's mirror glide builds W, the
#: Floquet operator of half its 1050 steps, from a quarter period; at divisor
#: 10 its 263 steps are odd, and it takes no glide; there the window's end
#: lies past the middle of a period, read from a backward column one power on.
@pytest.mark.parametrize("text, adds", [(LINK_TWO_POINTS, 0),
                                        ("experiment = fig2b_link_scan\nscan.points = 3\n",
                                         19756250),
                                        (RING, 144243585),
                                        (RING + "plaquette.flux = 0\n", 395759520),
                                        (RING + "numerics.time_step_divisor = 10\n", 72932076)],
                         ids=["link_2", "link_3", "ring", "ring_flux_0", "ring_odd_grid"])
def test_exact_drive_is_priced_by_the_runs_it_makes(text, adds):
    cfg = parse_config(text)
    assert config.run_price(cfg.experiment, dict(cfg.values))[1][1] == adds


@pytest.mark.parametrize("text", [RING, RING + "numerics.n_max = 6\n",
                                  RING + "drive.rabi_frequency = 0\n",
                                  RING + "drive.resonance_order = 151\n"],
                         ids=["preset", "oversized", "vanishing-bond", "beyond-the-domain"])
def test_a_ring_parse_evaluates_its_couplings_once(monkeypatch, text):
    calls = []

    def spy(values):
        calls.append(values)
        return dynamics.ring_couplings(values)

    monkeypatch.setattr(config, "ring_couplings", spy)
    with contextlib.suppress(ConfigError):
        parse_config(text)
    assert len(calls) == 1


#: Small runs of each sweep that parse_config prices, with the file of its result table.
SMALL_SWEEPS = {
    "dressed_map": (SMALL_MAP, "dressed_map.csv"),
    "link_scan": ("experiment = fig2b_link_scan\nscan.points = 3\n", "link_scan.csv"),
    "flux_sweep": ("experiment = fig2f_flux_sweep\nsweep.points = 3\nladder.cells = 2\n"
                   "sweep.boundary = open\n", "flux_sweep.csv"),
    "butterfly": ("experiment = butterfly\nbutterfly.points = 3\nbutterfly.size = 3\n",
                  "butterfly.csv"),
}


@pytest.mark.parametrize("text, name", SMALL_SWEEPS.values(), ids=SMALL_SWEEPS.keys())
def test_priced_result_table_is_the_written_table(tmp_path, text, name):
    cfg = parse_config(text)
    (_, table, (rows, columns), _), *_ = config.run_price(cfg.experiment, dict(cfg.values))[0]
    assert table == "result table"
    assert _simulate(tmp_path, text)[0] == 0
    written = [line.split(",") for line in (tmp_path / "out" / name).read_text().splitlines()[1:]]
    if cfg.experiment == "fig2a_dressed_map":  # one row per (eta_d, delta_phi) entry
        assert len(written) == rows * columns
    else:
        assert len(written) == rows and {len(row) for row in written} == {columns}


@pytest.mark.parametrize("text, problem", [
    ("experiment = butterfly\nbutterfly.j_x = 1e308\n",
     "the spectrum at flux 0 is not finite"),
    # the eigenvalues are finite, up to 1.41e308, but a cluster's mean would overflow
    ("experiment = fig2e_ladder_spectrum\nladder.j1 = 1e308\n",
     "the spectrum at flux 3.1415926535897931 is too large to sum: 31 eigenvalues up to "
     "|E| = 1.41e+308"),
], ids=["butterfly", "ladder_spectrum"])
def test_non_finite_spectrum_is_a_numerical_failure(tmp_path, capsys, text, problem):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _ = _simulate(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err == f"numerical failure: {problem}\n"


#: Log-uniform over the positive floats, from 5e-324 to 1.7e308.
_POSITIVE_FLOATS = st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda e: 10.0 ** e)


@st.composite
def _custom_configs(draw):
    layout = draw(st.sampled_from(("link", "plaquette", "rhombic_ladder", "square")))
    lines = ["experiment = custom", f"array.layout = {layout}"]
    if layout == "square":
        lines += [f"array.nx = {draw(st.integers(1, 4))}", f"array.ny = {draw(st.integers(1, 4))}"]
    elif layout == "rhombic_ladder":
        lines.append(f"array.cells = {draw(st.integers(1, 3))}")
    lines += [f"array.spacing_x = {draw(_POSITIVE_FLOATS)!r}",
              f"array.spacing_y = {draw(_POSITIVE_FLOATS)!r}",
              f"numerics.cutoff_range = {draw(st.floats(1.0, 1e4))!r}",
              f"direction = {draw(st.sampled_from('xyz'))}"]
    return "\n".join(lines) + "\n"


@st.composite
def _exact_drive_configs(draw):
    """Link scans and rings small enough to run in milliseconds: n_max <= 2,
    at most 4 scan points, windows up to 200 and at most 12 samples.  Most
    drives are resonant; the rest exit 1."""
    ring = draw(st.booleans())
    gradient = draw(st.floats(0.02, 0.2))
    order = draw(st.integers(1, 2))
    beat = gradient / order if draw(st.integers(0, 4)) else draw(st.floats(0.02, 0.2))
    lines = [RING.strip() if ring else "experiment = fig2b_link_scan",
             f"array.gradient = {gradient!r}", f"drive.resonance_order = {order}",
             f"drive.beat_frequency = {beat!r}",
             f"array.beta = {draw(st.floats(1e-4, 1e-2))!r}",
             f"array.base_frequency = {draw(st.floats(0.5, 2.0))!r}",
             f"drive.rabi_frequency = {draw(st.floats(0.0, 2.0))!r}",
             f"drive.lamb_dicke = {draw(st.floats(0.0, 1.0))!r}",
             f"numerics.n_max = {draw(st.integers(1, 2))}",
             f"numerics.time_step_divisor = {draw(st.integers(1, 8))}",
             f"direction = {draw(st.sampled_from('xyz'))}"]
    if ring:
        lines += [f"plaquette.flux = {draw(st.sampled_from(('0', 'pi')))}",
                  f"numerics.window = {draw(st.floats(1.0, 200.0))!r}",
                  f"numerics.samples = {draw(st.integers(2, 12))}"]
    else:
        lines.append(f"scan.points = {draw(st.integers(2, 4))}")
    return "\n".join(lines) + "\n"


@st.composite
def _spectra_configs(draw):
    """Dressed maps, ladder spectra, flux sweeps and butterflies small enough
    to run in milliseconds: at most 6 x 6 map points, 4 ladder cells, 6 sweep
    fluxes and a 4 x 4 butterfly lattice at 6 fluxes."""
    experiment = draw(st.sampled_from(("fig2a_dressed_map", "fig2e_ladder_spectrum",
                                       "fig2f_flux_sweep", "butterfly")))
    lines = [f"experiment = {experiment}"]
    if experiment == "fig2a_dressed_map":
        eta_max = draw(st.one_of(st.floats(1e-3, 60.0), _POSITIVE_FLOATS))
        lines += [f"map.eta_max = {eta_max!r}",
                  f"map.eta_points = {draw(st.integers(2, 6))}",
                  f"map.phase_points = {draw(st.integers(2, 6))}",
                  f"drive.resonance_order = {draw(st.integers(1, 4))}"]
    elif experiment == "butterfly":
        lines += [f"butterfly.size = {draw(st.integers(2, 4))}",
                  f"butterfly.points = {draw(st.integers(2, 6))}",
                  f"butterfly.j_x = {draw(_POSITIVE_FLOATS)!r}",
                  f"butterfly.j_y = {draw(_POSITIVE_FLOATS)!r}",
                  f"butterfly.m_max = {draw(st.integers(1, 3))}",
                  f"butterfly.boundary = {draw(st.sampled_from(('open', 'periodic')))}"]
    else:
        j2 = draw(st.one_of(st.just(0.0), _POSITIVE_FLOATS))
        lines += [f"ladder.cells = {draw(st.integers(1, 4))}",
                  f"ladder.j1 = {draw(_POSITIVE_FLOATS)!r}", f"ladder.j2 = {j2!r}"]
        boundary = draw(st.sampled_from(("open", "periodic")))
        if experiment == "fig2e_ladder_spectrum":
            lines += [f"ladder.flux = {draw(st.floats(-10.0, 10.0))!r}",
                      f"ladder.boundary = {boundary}"]
        else:
            lines += [f"sweep.points = {draw(st.integers(2, 6))}",
                      f"sweep.boundary = {boundary}"]
    return "\n".join(lines) + "\n"


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, float) else []


def _written_numbers(path):
    if path.suffix == ".json":
        return _numbers(json.loads(path.read_text()))
    header, *rows = path.read_text().splitlines()
    rows = [[float(x) for x in row.split(",")] for row in rows]
    if header.endswith(",defined"):  # an undefined link point is nan
        rows = [row for row in rows if row[-1]]
    if header.endswith(",norm"):
        assert all(abs(row[-1] - 1.0) <= 1e-4 for row in rows), path.name
    return [x for row in rows for x in row]


@settings(max_examples=180, deadline=None)
@given(text=st.one_of(_custom_configs(), _exact_drive_configs(), _spectra_configs()))
@example(text=RING + "drive.rabi_frequency = 1e-300\n")
@example(text=RING + "plaquette.flux = 0\narray.gradient = 0.125\ndrive.beat_frequency = 0.125\n"
              "drive.lamb_dicke = 1e-14\nnumerics.window = 1.0\nnumerics.samples = 2\n")
@example(text="experiment = custom\narray.layout = plaquette\narray.spacing_y = 1e70\n")
@example(text="experiment = custom\narray.layout = square\narray.spacing_x = 1e-70\n")
@example(text="experiment = custom\narray.layout = plaquette\narray.spacing_y = 1e-70\n")
@example(text="experiment = custom\narray.layout = plaquette\n"
              "array.spacing_y = 1e300\narray.spacing_x = 1e-300\n")
@example(text="experiment = custom\narray.layout = plaquette\n"
              "array.spacing_y = 1e-300\narray.spacing_x = 1e300\n")
@example(text="experiment = custom\narray.layout = square\narray.ny = 3\n"
              "array.spacing_y = 1e308\n")
@example(text=OVERSIZED_EXACT_DRIVES["samples"][0])
@example(text=OVERSIZED_EXACT_DRIVES["divisor"][0])
@example(text=OVERSIZED_EXACT_DRIVES["strong_drive"][0])
@example(text=OVERSIZED_EXACT_DRIVES["overflowing_drive"][0])
@example(text=OVERSIZED_EXACT_DRIVES["window"][0])
@example(text=OVERSIZED_SWEEPS["butterfly"][0])
@example(text=OVERSIZED_SWEEPS["flux_sweep"][0])
@example(text=OVERSIZED_SWEEPS["dressed_map"][0])
@example(text=OVERSIZED_SWEEPS["link_scan"][0])
@example(text=OVERSIZED_SWEEPS["butterfly_400_digits"][0])
@example(text=OVERSIZED_SWEEPS["flux_sweep_310_digits"][0])
@example(text=OVERSIZED_SWEEPS["butterfly_size"][0])
@example(text=OVERSIZED_SWEEPS["ladder_cells"][0])
@example(text=OVERSIZED_SWEEPS["eta_max"][0])
@example(text="experiment = butterfly\nbutterfly.j_x = 1e308\n")
@example(text="experiment = fig2e_ladder_spectrum\nladder.j1 = 1e308\n")
def test_configs_end_in_exit_0_1_or_2(text):
    with tempfile.TemporaryDirectory() as scratch:
        code, out = _simulate(Path(scratch), text)
        assert code in (0, 1, 2), text
        if code == 1:
            assert not out.exists()
        if code == 0:
            for path in out.iterdir():
                assert all(map(math.isfinite, _written_numbers(path))), path.name


def test_format_violation_is_listed_with_a_rejected_config(tmp_path, capsys):
    text = "experiment = custom\narray.layout = link\noutput.format = csv\nnumerics.n_max = 3\n"
    code, out = _simulate(tmp_path, text, extra=("--jobs", "0"))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: numerics.n_max: not consumed by experiment custom",
        "config error: output format: custom writes only json, got csv",
        "config error: --jobs: must be >= 1, got 0"]
    assert not out.exists()


def test_custom_spectrum(tmp_path):
    text = "experiment = custom\narray.layout = rhombic_ladder\narray.cells = 3\n"
    code, out = _simulate(tmp_path, text)
    assert code == 0
    payload = json.loads((out / "custom_spectrum.json").read_text())
    assert payload["n_sites"] == 10


def test_config_error_exit_code(tmp_path, capsys):
    code, _ = _simulate(tmp_path, "experiment = fig2b_link_scan\nnumerics.n_max = -1\n")
    assert code == 1
    assert "numerics.n_max" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(out)]) == 1


def test_custom_zero_sites_is_invalid_geometry(tmp_path, capsys):
    text = "experiment = custom\narray.layout = square\narray.nx = 0\narray.ny = 2\n"
    code, _ = _simulate(tmp_path, text)
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise IntegrationError("norm drifted; dt = 1.0 is too large")

    result_type, _ = cli._RUNNERS["fig2a_dressed_map"]
    monkeypatch.setitem(cli._RUNNERS, "fig2a_dressed_map", (result_type, boom))
    code, _ = _simulate(tmp_path, SMALL_MAP)
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_internal_fault_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise KeyError("missing_table_entry")

    result_type, _ = cli._RUNNERS["fig2a_dressed_map"]
    monkeypatch.setitem(cli._RUNNERS, "fig2a_dressed_map", (result_type, boom))
    code, _ = _simulate(tmp_path, SMALL_MAP)
    assert code == 3
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'missing_table_entry'\n"


def test_out_that_cannot_be_created_is_a_config_error(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("computed despite an unusable --out")

    monkeypatch.setitem(cli._RUNNERS, "fig2a_dressed_map",
                        (cli._RUNNERS["fig2a_dressed_map"][0], never))
    (tmp_path / "blocker").write_text("a regular file")
    code, _ = _simulate(tmp_path, SMALL_MAP, out_name="blocker/out")
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: --out: ")


def test_env_var_overrides_out(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv(cli.ENV_OUT, str(target))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_MAP)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "ignored")]) == 0
    assert (target / "dressed_map.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_csv_uses_17_significant_digits(tmp_path):
    _, out = _simulate(tmp_path, SMALL_MAP)
    row = (out / "dressed_map.csv").read_text().splitlines()[15]
    mag = row.split(",")[2]
    value = float(mag)
    assert format(value, ".17g") == mag


def test_run_experiment_library_entry(tmp_path):
    cfg = parse_config(SMALL_MAP)
    files = cli.run_experiment(cfg, tmp_path / "lib_out")
    assert files[-1] == "manifest.json"
    assert (tmp_path / "lib_out" / "dressed_map.csv").exists()


def test_plaquette_uses_base_frequency(tmp_path):
    text = "experiment = fig2cd_plaquette\nnumerics.window = 50\nnumerics.samples = 4\n"
    data = []
    for omega in ("1.0", "2.0"):
        code, out = _simulate(tmp_path, text + f"array.base_frequency = {omega}\n", omega)
        assert code == 0
        data.append((out / "plaquette_exact.csv").read_bytes())
    assert data[0] != data[1]


#: Small configs that together run every branch of each runner.
READ_CASES = {
    "fig2a_dressed_map": [SMALL_MAP],
    "fig2b_link_scan": ["experiment = fig2b_link_scan\nscan.points = 3\n"],
    "fig2cd_plaquette": ["experiment = fig2cd_plaquette\nnumerics.window = 50\n"
                         "numerics.samples = 2\n"],
    "fig2e_ladder_spectrum": ["experiment = fig2e_ladder_spectrum\nladder.cells = 2\n"],
    "fig2f_flux_sweep": ["experiment = fig2f_flux_sweep\nsweep.points = 2\nladder.cells = 1\n"],
    "butterfly": ["experiment = butterfly\nbutterfly.size = 2\nbutterfly.points = 2\n"],
    "custom": ["experiment = custom\narray.layout = link\n",
               "experiment = custom\narray.layout = plaquette\ndrive.mode = cosine\n",
               "experiment = custom\narray.layout = square\n",
               "experiment = custom\narray.layout = rhombic_ladder\ndrive.mode = cosine\n"],
}


def _accepted_keys(text):
    """The keys that `text` sets or may set without a 'not consumed' violation."""
    accepted = set()
    for key in PRESETS[parse_config(text).experiment]:
        try:
            parse_config(text + f"{key} = 1\n")  # a duplicate if `text` sets the key
        except ConfigError as exc:
            if any(v.startswith(f"{key}: not consumed") for v in exc.violations):
                continue
        accepted.add(key)
    return accepted


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_runner_reads_every_key_the_schema_accepts(tmp_path, monkeypatch, experiment):
    read = set()
    getitem = ExperimentConfig.__getitem__

    def recording_getitem(self, key):
        read.add(key)
        return getitem(self, key)

    monkeypatch.setattr(ExperimentConfig, "__getitem__", recording_getitem)
    for k, text in enumerate(READ_CASES[experiment]):
        read.clear()
        cli.run_experiment(parse_config(text), tmp_path / str(k))
        assert read == _accepted_keys(text), text
