import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from phonon_gauge import cli, config, dynamics
from phonon_gauge.config import ConfigError, EXPERIMENTS, PRESETS, ExperimentConfig, \
    parse_config
from phonon_gauge.dynamics import IntegrationError


def _simulate(tmp_path, text, out_name="out", extra=()):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / out_name
    return cli.main(["simulate", "--config", str(cfg), "--out", str(out), *extra]), out


SMALL_MAP = "experiment = fig2a_dressed_map\nmap.eta_points = 9\nmap.phase_points = 11\n"


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


JOBS_CASES = {
    "dressed_map.csv": SMALL_MAP,
    "flux_sweep.csv": "experiment = fig2f_flux_sweep\nsweep.points = 5\nladder.cells = 3\n",
    "butterfly.csv": "experiment = butterfly\nbutterfly.size = 4\nbutterfly.points = 5\n",
    "link_scan.csv": "experiment = fig2b_link_scan\nscan.points = 2\n",
}


def test_jobs_do_not_change_output(tmp_path):
    for data_file, text in JOBS_CASES.items():
        _, out1 = _simulate(tmp_path, text, f"serial_{data_file}")
        _, out2 = _simulate(tmp_path, text, f"parallel_{data_file}", extra=("--jobs", "2"))
        assert (out1 / data_file).read_bytes() == (out2 / data_file).read_bytes(), data_file


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
    assert set(diag) == {"magnus_steps", "taylor_degree", "period_propagator",
                         "period_powers", "max_norm_drift", "max_top_level_population"}
    assert diag["magnus_steps"] > 0 and diag["taylor_degree"] > 0
    assert diag["period_propagator"] is False and diag["period_powers"] == 0
    assert 0 <= diag["max_norm_drift"] < 1e-8
    assert 0 < diag["max_top_level_population"] < 1e-2  # n_max = 2 holds the drive's leakage
    assert "diagnostics" not in (out / "plaquette_exact.csv").read_text()


@pytest.mark.parametrize("text, key", [
    ("experiment = custom\narray.layout = square\narray.nx = 100000\narray.ny = 100000\n",
     "array.nx * array.ny"),
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
    assert f"config error: {key}: the lattice has" in err
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
        "config error: Fock dimension 6561 (4 sites, n_max = 8) exceeds the "
        "dense-operator limit 4096\n")


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
     "Fock dimension 6561 (4 sites, n_max = 8)"),
    ("experiment = fig2b_link_scan\nnumerics.n_max = 64\n",
     "Fock dimension 4225 (2 sites, n_max = 64)"),
], ids=["fig2cd_plaquette", "fig2b_link_scan"])
def test_fock_limit_is_listed_with_the_other_violations(tmp_path, capsys, text, capacity):
    code, out = _simulate(tmp_path, text + "output.format = xml\n")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("config error: output.format: ")
    assert err[1] == f"config error: {capacity} exceeds the dense-operator limit 4096"
    assert len(err) == 2
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

#: Exact-drive configs whose Magnus grid does not fit: step tables or per-sample
#: arrays of GiBs (without the check, a MemoryError or a numpy ValueError, exit 3),
#: and a window whose grid index leaves int64 (without it, nan data and exit 0).
OVERSIZED_EXACT_DRIVES = {
    "samples": (RING + "numerics.samples = 1000000000\n", "1.05e+03 Magnus steps"),
    "divisor": (RING + "numerics.time_step_divisor = 1000000000\n", "2.62e+10 Magnus steps"),
    "strong_drive": (RING + "drive.rabi_frequency = 1e6\ndrive.lamb_dicke = 1e-3\n",
                     "8e+08 Magnus steps"),
    "overflowing_drive": (RING + "drive.rabi_frequency = 1e300\ndrive.lamb_dicke = 1e-160\n"
                          "numerics.window = 100\n", "8e+302 Magnus steps"),
    "window": (RING + "numerics.window = 1e300\nnumerics.samples = 3\n",
               "3 samples and a grid index of 8.36e+300 at the window's end"),
    "link_divisor": ("experiment = fig2b_link_scan\nnumerics.time_step_divisor = 1000000000\n",
                     "3.66e+10 Magnus steps"),
}


@pytest.mark.parametrize("text, problem", OVERSIZED_EXACT_DRIVES.values(),
                         ids=OVERSIZED_EXACT_DRIVES.keys())
def test_oversized_exact_drive_grid_is_a_config_error(tmp_path, monkeypatch, capsys, text,
                                                      problem):
    def never(*args, **kwargs):
        raise AssertionError("evolved an exact-drive grid above the memory budget")

    monkeypatch.setattr(dynamics, "evolve", never)
    code, out = _simulate(tmp_path, text, extra=("--jobs", "0"))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("config error: ") and problem in err[0]
    assert err[1:] == ["config error: --jobs: must be >= 1, got 0"]
    assert not out.exists()


#: Spacings log-uniform over the positive floats, from 5e-324 to 1.7e308.
_SPACINGS = st.floats(math.log10(5e-324), math.log10(1.7e308)).map(lambda e: 10.0 ** e)


@st.composite
def _custom_configs(draw):
    layout = draw(st.sampled_from(("link", "plaquette", "rhombic_ladder", "square")))
    lines = ["experiment = custom", f"array.layout = {layout}"]
    if layout == "square":
        lines += [f"array.nx = {draw(st.integers(1, 4))}", f"array.ny = {draw(st.integers(1, 4))}"]
    elif layout == "rhombic_ladder":
        lines.append(f"array.cells = {draw(st.integers(1, 3))}")
    lines += [f"array.spacing_x = {draw(_SPACINGS)!r}", f"array.spacing_y = {draw(_SPACINGS)!r}",
              f"numerics.cutoff_range = {draw(st.floats(1.0, 1e4))!r}",
              f"direction = {draw(st.sampled_from('xyz'))}"]
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
    rows = path.read_text().splitlines()[1:]  # below the header
    return [float(x) for row in rows for x in row.split(",")]


@settings(max_examples=60, deadline=None)
@given(text=_custom_configs())
@example(text=RING + "drive.rabi_frequency = 1e-300\n")
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
