import math

import numpy as np
import pytest

from phonon_gauge import model
from phonon_gauge.model import (
    ConfigurationError,
    GeometryError,
    TrapArray,
    build_array,
    cosine_drive,
    laser_drive,
)


def test_link_layout_two_sites_with_gradient():
    arr = build_array("link", (2,), gradient=0.05)
    assert arr.n_sites == 2
    w = arr.frequencies()
    assert w[0] == 1.0 and w[1] == 1.0 + 0.05  # gradient relation holds exactly


def test_single_site_square_is_degenerate():
    arr = build_array("square", (1, 1))
    assert arr.n_sites == 1
    assert arr.lattice == ((0, 0),)


@pytest.mark.parametrize("cells,expected", [(1, 4), (3, 10), (10, 31)])
def test_rhombic_ladder_site_count(cells, expected):
    arr = build_array("rhombic_ladder", (cells,))
    assert arr.n_sites == 3 * cells + 1


def test_rhombic_ladder_is_hub_terminated():
    arr = build_array("rhombic_ladder", (4,))
    assert arr.lattice[0] == (0, 0)
    assert arr.lattice[-1] == (4, 4)


def test_gradient_reconstruction_exact():
    arr = build_array("square", (4, 3), gradient=0.033, base_frequency=3.0)
    w = arr.frequencies()
    for k, (ix, iy) in enumerate(arr.lattice):
        assert w[k] == 3.0 + 0.033 * ix


def test_phase_generator_is_linear_in_position():
    arr = build_array("square", (3, 3), gradient=0.05)
    drv = cosine_drive(0.05, 0.4, 1, phase_x=0.7, phase_y=-1.3)
    phases = drv.site_phases(arr)
    for k, (ix, iy) in enumerate(arr.lattice):
        assert phases[k] == pytest.approx(0.7 * ix - 1.3 * iy, abs=1e-15)


def test_positions_use_spacing_ratio():
    arr = build_array("plaquette", (2, 2), spacing_x=2.0, spacing_y=3.0)
    assert arr.positions[2] == pytest.approx([1.0, 1.5])


@pytest.mark.parametrize("dims", [(0, 2), (2, 0), (-1, 3)])
def test_invalid_square_dims_rejected(dims):
    with pytest.raises(GeometryError):
        build_array("square", dims)


def test_invalid_spacing_rejected():
    with pytest.raises(GeometryError):
        build_array("link", (2,), spacing_x=0.0)
    with pytest.raises(GeometryError):
        build_array("link", (2,), spacing_y=-1.0)


@pytest.mark.parametrize("dims, spacing_x, spacing_y, message", [
    ((2, 2), 1e-300, 1e300, "= inf is not finite and positive"),  # nan positions
    ((2, 2), 1e300, 1e-300, "= 0.0 is not finite and positive"),  # coincident sites
    ((2, 2), math.nan, 1.0, "= nan is not finite and positive"),
    ((2, 3), 1.0, 1e308, "= 1e[+]308 puts sites beyond the float range"),  # 2 * 1e308
])
def test_spacing_ratio_beyond_the_float_range_rejected(dims, spacing_x, spacing_y, message):
    with pytest.raises(GeometryError, match=f"spacing_y / spacing_x {message}"):
        build_array("square", dims, spacing_x=spacing_x, spacing_y=spacing_y)


def test_zero_cell_ladder_rejected():
    with pytest.raises(GeometryError):
        build_array("rhombic_ladder", (0,))


def test_duplicate_sites_rejected():
    with pytest.raises(GeometryError):
        TrapArray(lattice=((0, 0), (0, 0)))


def test_negative_frequency_over_array_rejected():
    with pytest.raises(ConfigurationError):
        build_array("square", (30, 1), gradient=-0.05)


def test_large_beta_warns():
    with pytest.warns(UserWarning):
        build_array("link", (2,), coulomb_beta=0.2)


def test_large_beta_warning_names_the_caller_not_the_dataclass_init():
    with pytest.warns(UserWarning, match="coulomb_beta") as direct:
        TrapArray(lattice=((0, 0), (1, 0)), coulomb_beta=0.5)
    with pytest.warns(UserWarning, match="coulomb_beta") as built:
        build_array("link", (2,), coulomb_beta=0.5)
    assert direct[0].filename == __file__
    assert built[0].filename == model.__file__


def test_laser_identifications():
    drv = laser_drive(0.75, 0.05, 0.2, 1)
    assert drv.eta_d == pytest.approx(0.75 * 0.04 / 0.05)
    arr = build_array("link", (2,), gradient=0.05)
    drv.check_resonance(arr.gradient)
    with pytest.raises(ConfigurationError, match="drive is off-resonant"):
        drv.check_resonance(0.06)
    # optical phases carry the opposite sign of the modulation phases
    drv2 = laser_drive(0.75, 0.05, 0.2, 1, phase_x=1.1)
    assert np.allclose(drv2.optical_phases(arr), -drv2.site_phases(arr))


@pytest.mark.parametrize("rabi_frequency, lamb_dicke", [(0.75, 1e300), (1e300, 1e10)],
                         ids=["lamb_dicke-squared-overflows", "product-overflows"])
def test_laser_drive_strength_must_be_finite(rabi_frequency, lamb_dicke):
    with pytest.raises(ConfigurationError, match="laser drive eta_d is not finite"):
        laser_drive(rabi_frequency, 0.05, lamb_dicke)


def test_inconsistent_laser_strength_rejected():
    from phonon_gauge.model import DriveSpec

    with pytest.raises(ConfigurationError):
        DriveSpec(mode="laser", drive_frequency=0.05, resonance_order=1,
                  rabi_frequency=0.75, lamb_dicke=0.2,
                  drive_strength=0.5)  # should be 0.6


def test_cosine_mode_needs_strength():
    from phonon_gauge.model import DriveSpec

    with pytest.raises(ConfigurationError):
        DriveSpec(mode="cosine", drive_frequency=0.05, resonance_order=1)
