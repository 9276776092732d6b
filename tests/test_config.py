import math

import pytest
from hypothesis import given, settings, strategies as st

from phonon_gauge.config import ConfigError, EXPERIMENTS, SCHEMA, parse_config


def test_preset_only_config_fills_reference_defaults():
    cfg = parse_config("experiment = fig2b_link_scan\n")
    assert cfg["array.gradient"] == 0.05
    assert cfg["drive.lamb_dicke"] == 0.2
    assert cfg["drive.rabi_frequency"] == 0.75
    assert cfg["array.beta"] == 0.002
    assert cfg["drive.resonance_order"] == 1
    assert cfg["numerics.n_max"] == 4
    assert cfg["scan.points"] == 21


def test_empty_document_lists_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    assert any("experiment" in v and "missing" in v for v in err.value.violations)


def test_negative_n_max_is_range_violation_with_path():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = fig2b_link_scan\nnumerics.n_max = -1\n")
    assert any(v.startswith("numerics.n_max") and "range" in v for v in err.value.violations)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = fig2a_dressed_map\nmap.bogus = 3\n")
    assert any("unknown key" in v for v in err.value.violations)


def test_inapplicable_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = fig2a_dressed_map\nladder.j1 = 1.0\n")
    assert any("not consumed" in v for v in err.value.violations)


def test_all_violations_reported_at_once():
    text = "experiment = fig2b_link_scan\nnumerics.n_max = -1\nbogus.key = 1\nscan.points = one\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert len(err.value.violations) == 3


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("experiment = fig2a_dressed_map\nmap.eta_max = 1\nmap.eta_max = 2\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = fig2a_dressed_map\nnot a pair\n")
    assert any("line 2" in v for v in err.value.violations)


def test_pi_tokens_parse():
    cfg = parse_config("experiment = fig2e_ladder_spectrum\nladder.flux = -0.5pi\n")
    assert cfg["ladder.flux"] == pytest.approx(-0.5 * math.pi)
    cfg = parse_config("experiment = fig2e_ladder_spectrum\nladder.flux = pi\n")
    assert cfg["ladder.flux"] == math.pi


def test_plaquette_flux_token_is_strict():
    with pytest.raises(ConfigError):
        parse_config("experiment = fig2cd_plaquette\nplaquette.flux = 0.5\n")


def test_plaquette_rabi_default_depends_on_flux():
    cfg_pi = parse_config("experiment = fig2cd_plaquette\n")
    assert cfg_pi["plaquette.flux"] == math.pi
    assert cfg_pi["drive.rabi_frequency"] == 0.25
    cfg_0 = parse_config("experiment = fig2cd_plaquette\nplaquette.flux = 0\n")
    assert cfg_0["drive.rabi_frequency"] == 0.75
    cfg_over = parse_config(
        "experiment = fig2cd_plaquette\nplaquette.flux = 0\ndrive.rabi_frequency = 0.5\n"
    )
    assert cfg_over["drive.rabi_frequency"] == 0.5


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nexperiment = fig2a_dressed_map  # trailing\nmap.eta_points = 5\n"
    cfg = parse_config(text)
    assert cfg["map.eta_points"] == 5


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        parse_config("experiment = fig9x\n")


def test_every_preset_parses_standalone():
    for name in EXPERIMENTS:
        if name == "custom":
            cfg = parse_config("experiment = custom\narray.layout = link\n")
        else:
            cfg = parse_config(f"experiment = {name}\n")
        assert cfg.experiment == name


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["array.gradient", "drive.phase_x"])
def test_non_finite_numbers_rejected(key, token):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"experiment = custom\narray.layout = link\n{key} = {token}\n")
    assert exc.value.violations == [f"{key}: must be finite, got {float(token)}"]


@pytest.mark.parametrize("text", [
    "experiment = butterfly\nbutterfly.size = 64\n",
    "experiment = custom\narray.layout = square\narray.nx = 64\narray.ny = 64\n",
    "experiment = custom\narray.layout = rhombic_ladder\narray.cells = 1365\n",
    "experiment = fig2e_ladder_spectrum\nladder.cells = 1365\n",
])
def test_lattice_at_the_dense_limit_is_accepted(text):
    parse_config(text)  # 4096 sites, the largest dense lattice


@pytest.mark.parametrize("lines, violations", [
    ("array.layout = square\narray.nx = -100\narray.ny = -100\n",
     ["array.nx: range violation, must be >= 1, got -100",
      "array.ny: range violation, must be >= 1, got -100"]),
    ("array.layout = square\narray.nx = -2\narray.ny = -2\n",
     ["array.nx: range violation, must be >= 1, got -2",
      "array.ny: range violation, must be >= 1, got -2"]),
    ("array.layout = rhombic_ladder\narray.cells = 0\n",
     ["array.cells: range violation, must be >= 1, got 0"]),
])
def test_lattice_sizes_below_one_are_range_violations(lines, violations):
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = custom\n" + lines)
    assert exc.value.violations == violations


@pytest.mark.parametrize("lines, violation", [
    ("array.layout = link\narray.nx = 50\n",
     "array.nx: not consumed by experiment custom with array.layout = link"),
    ("array.layout = plaquette\narray.ny = 3\n",
     "array.ny: not consumed by experiment custom with array.layout = plaquette"),
    ("array.layout = square\narray.cells = 3\n",
     "array.cells: not consumed by experiment custom with array.layout = square"),
    ("array.layout = rhombic_ladder\narray.nx = 3\n",
     "array.nx: not consumed by experiment custom with array.layout = rhombic_ladder"),
    ("array.layout = link\ndrive.strength = 5.0\n",
     "drive.strength: not consumed by experiment custom with drive.mode = laser"),
    ("array.layout = link\ndrive.mode = cosine\ndrive.rabi_frequency = 9\n",
     "drive.rabi_frequency: not consumed by experiment custom with drive.mode = cosine"),
    ("array.layout = link\ndrive.mode = cosine\ndrive.lamb_dicke = 0.1\n",
     "drive.lamb_dicke: not consumed by experiment custom with drive.mode = cosine"),
], ids=["nx-link", "ny-plaquette", "cells-square", "nx-rhombic", "strength-laser",
        "rabi-cosine", "lamb_dicke-cosine"])
def test_custom_rejects_keys_its_layout_or_mode_never_reads(lines, violation):
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = custom\n" + lines)
    assert exc.value.violations == [violation]


@pytest.mark.parametrize("line, violation", [
    # an unbounded resonance order would make the Bessel table unbounded too
    ("drive.resonance_order = 99999999999",
     "resonance_order must be in [0, 150], got 99999999999"),
    ("drive.rabi_frequency = 1000", "eta_d must be in [0, 50.0], got 800.0000000000001"),
    ("drive.lamb_dicke = 1e300", None),  # eta_d overflows
], ids=["resonance_order", "eta_d", "overflow"])
def test_ring_drive_outside_the_bessel_table_is_listed(line, violation):
    # the ring-bond factor is checked at parse time
    with pytest.raises(ConfigError) as exc:
        parse_config(f"experiment = fig2cd_plaquette\n{line}\n")
    assert len(exc.value.violations) == 1
    assert violation in (None, exc.value.violations[0])


_TOKENS = st.sampled_from(EXPERIMENTS + ("0", "-1", "2", "0.5", "1e400", "99999999999", "pi",
                                         "-0.5pi", "nan", "csv", "json", "square", "laser",
                                         "open", "z", ""))
_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(SCHEMA)), st.one_of(_TOKENS, st.text(max_size=8)))
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=24),
)


_DOCUMENTS = st.builds(lambda head, lines: "\n".join([head] + lines),
                       st.sampled_from([""] + [f"experiment = {e}" for e in EXPERIMENTS]),
                       st.lists(_LINES, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _DOCUMENTS))
def test_any_text_parses_or_raises_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
