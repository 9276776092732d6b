"""Experiment configuration: strict key-value schema and presets.

Config files are flat UTF-8 text, one ``section.key = value`` pair per line,
'#' comments allowed.  Presets fully populate every physical parameter with
the reference defaults; user lines override them.  Unknown keys, keys that
the chosen experiment does not consume, and out-of-range values are all
rejected, with every violation reported at once.
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from dataclasses import dataclass

from .couplings import DEFAULT_CUTOFF_RANGE, DomainError, bare_coupling_matrix, \
    check_dipolar_reach, dressed_factor
from .dynamics import COUPLING_THRESHOLD, config_drive, default_time_step, frequency_scale, \
    link_array, path_work, period_steps, ring_couplings
from .fock import DENSE_BYTE_BUDGET
from .model import ConfigurationError, GeometryError, TrapArray, build_array

EXPERIMENT_SUMMARIES = {
    "fig2a_dressed_map": "map of the dressed-coupling magnitude over drive strength and phase step",
    "fig2b_link_scan": "two-site transfer at the full-transfer time vs phase step, dressed vs exact drive",
    "fig2cd_plaquette": "four-site ring interference at synthetic flux 0 or pi, dressed vs exact drive",
    "fig2e_ladder_spectrum": "rhombic-ladder spectrum with flat-band and edge-state reports",
    "fig2f_flux_sweep": "rhombic-ladder spectrum and minimal inter-band gap vs flux",
    "butterfly": "square-lattice spectrum vs flux per plaquette",
    "custom": "effective-coupling spectrum for a user-defined array and drive",
}

EXPERIMENTS = tuple(EXPERIMENT_SUMMARIES)


class ConfigError(ValueError):
    """Schema violations, all in `.violations`; `.config` is the rejected config, if parsed."""

    def __init__(self, violations, config=None):
        self.violations = list(violations)
        self.config = config
        super().__init__("; ".join(self.violations))


_PI_FORM = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*pi$")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _parse_float(text: str) -> float:
    return _finite(float(text))


def _parse_angle(text: str) -> float:
    m = _PI_FORM.match(text.strip())
    if m:
        mult = m.group(1)
        if mult in ("", "+"):
            mult = "1"
        elif mult == "-":
            mult = "-1"
        return _finite(float(mult) * math.pi)
    return _finite(float(text))


def _parse_int(text: str) -> int:
    if not re.fullmatch(r"[+-]?\d+", text.strip()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_flux_token(text: str) -> float:
    token = text.strip()
    if token == "0":
        return 0.0
    if token == "pi":
        return math.pi
    raise ValueError(f"expected 0 or pi, got {text!r}")


def _enum(*options):
    def parse(text: str) -> str:
        token = text.strip()
        if token not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return token
    return parse


def _ge(bound):
    def check(v):
        return None if v >= bound else f"must be >= {bound}, got {v}"
    return check


def _gt(bound):
    def check(v):
        return None if v > bound else f"must be > {bound}, got {v}"
    return check


@dataclass(frozen=True)
class FieldSpec:
    """Parser and range check of one key; the presets that list it consume it."""

    parse: object
    check: object = None


#: Sites of the exact-drive Fock space, per experiment.
_EXACT_DRIVE_SITES = {"fig2b_link_scan": 2, "fig2cd_plaquette": 4}

SCHEMA: dict[str, FieldSpec] = {
    "experiment": FieldSpec(_enum(*EXPERIMENTS)),
    "output.format": FieldSpec(_enum("csv", "json")),
    "direction": FieldSpec(_enum("x", "y", "z")),
    # dressed-coupling map
    "map.eta_max": FieldSpec(_parse_float, _gt(0)),
    "map.eta_points": FieldSpec(_parse_int, _ge(2)),
    "map.phase_points": FieldSpec(_parse_int, _ge(2)),
    # array geometry / Coulomb scale
    "array.layout": FieldSpec(_enum("link", "plaquette", "rhombic_ladder", "square")),
    "array.nx": FieldSpec(_parse_int, _ge(1)),
    "array.ny": FieldSpec(_parse_int, _ge(1)),
    "array.cells": FieldSpec(_parse_int, _ge(1)),
    "array.spacing_x": FieldSpec(_parse_float, _gt(0)),
    "array.spacing_y": FieldSpec(_parse_float, _gt(0)),
    "array.base_frequency": FieldSpec(_parse_float, _gt(0)),
    "array.gradient": FieldSpec(_parse_float),
    "array.beta": FieldSpec(_parse_float, _gt(0)),
    # drive
    "drive.mode": FieldSpec(_enum("cosine", "laser")),
    "drive.rabi_frequency": FieldSpec(_parse_float, _ge(0)),
    "drive.beat_frequency": FieldSpec(_parse_float, _gt(0)),
    "drive.lamb_dicke": FieldSpec(_parse_float, _ge(0)),
    "drive.strength": FieldSpec(_parse_float, _ge(0)),
    "drive.resonance_order": FieldSpec(_parse_int, _ge(1)),
    "drive.phase_x": FieldSpec(_parse_angle),
    "drive.phase_y": FieldSpec(_parse_angle),
    # experiment-specific knobs
    "plaquette.flux": FieldSpec(_parse_flux_token),
    "scan.points": FieldSpec(_parse_int, _ge(2)),
    "ladder.cells": FieldSpec(_parse_int, _ge(1)),
    "ladder.j1": FieldSpec(_parse_float, _gt(0)),
    "ladder.j2": FieldSpec(_parse_float, _ge(0)),
    "ladder.flux": FieldSpec(_parse_angle),
    "ladder.boundary": FieldSpec(_enum("open", "periodic")),
    "sweep.points": FieldSpec(_parse_int, _ge(2)),
    "sweep.boundary": FieldSpec(_enum("open", "periodic")),
    "butterfly.size": FieldSpec(_parse_int, _ge(2)),
    "butterfly.points": FieldSpec(_parse_int, _ge(2)),
    "butterfly.j_x": FieldSpec(_parse_float, _gt(0)),
    "butterfly.j_y": FieldSpec(_parse_float, _gt(0)),
    "butterfly.m_max": FieldSpec(_parse_int, _ge(1)),
    "butterfly.boundary": FieldSpec(_enum("open", "periodic")),
    # numerics
    # both exact-drive presets start from one phonon
    "numerics.n_max": FieldSpec(_parse_int, _ge(1)),
    "numerics.samples": FieldSpec(_parse_int, _ge(2)),
    "numerics.time_step_divisor": FieldSpec(_parse_int, _ge(1)),
    "numerics.cutoff_range": FieldSpec(_parse_float, _ge(1)),
    "numerics.window": FieldSpec(_parse_float, _gt(0)),
}

#: Keys `custom` reads under one array.layout (as build_array dims) or drive.mode only.
_CUSTOM_SWITCHED = {
    ("array.layout", "square"): ("array.nx", "array.ny"),
    ("array.layout", "rhombic_ladder"): ("array.cells",),
    ("drive.mode", "cosine"): ("drive.strength",),
    ("drive.mode", "laser"): ("drive.rabi_frequency", "drive.lamb_dicke"),
}

#: Conditional default: the ring-interference drive power depends on the flux
#: (strong drive for free circulation, weak drive for the interference run).
_PLAQUETTE_RABI = {0.0: 0.75, math.pi: 0.25}

PRESETS: dict[str, dict] = {
    "fig2a_dressed_map": {
        "map.eta_max": 2.0,
        "map.eta_points": 81,
        "map.phase_points": 81,
        "drive.resonance_order": 1,
        "output.format": "csv",
    },
    "fig2b_link_scan": {
        "array.gradient": 0.05,
        "array.beta": 0.002,
        "array.base_frequency": 1.0,
        "drive.rabi_frequency": 0.75,
        "drive.beat_frequency": 0.05,
        "drive.lamb_dicke": 0.2,
        "drive.resonance_order": 1,
        "numerics.n_max": 4,
        "numerics.time_step_divisor": 40,
        "scan.points": 21,
        "direction": "z",
        "output.format": "csv",
    },
    "fig2cd_plaquette": {
        "plaquette.flux": math.pi,
        "array.gradient": 0.05,
        "array.beta": 0.002,
        "array.base_frequency": 1.0,
        "drive.rabi_frequency": None,  # resolved from the flux unless given
        "drive.beat_frequency": 0.05,
        "drive.lamb_dicke": 0.2,
        "drive.resonance_order": 1,
        "numerics.n_max": 2,
        "numerics.samples": 601,
        "numerics.time_step_divisor": 40,
        "numerics.cutoff_range": 3.0,
        "numerics.window": None,  # auto: one full ring-transfer cycle
        "direction": "z",
        "output.format": "csv",
    },
    "fig2e_ladder_spectrum": {
        "ladder.cells": 10,
        "ladder.j1": 1.0,
        "ladder.j2": 1.0,
        "ladder.flux": math.pi,
        "ladder.boundary": "open",
        "output.format": "json",
    },
    "fig2f_flux_sweep": {
        "sweep.points": 41,
        "sweep.boundary": "periodic",
        "ladder.cells": 10,
        "ladder.j1": 1.0,
        "ladder.j2": 1.0,
        "output.format": "csv",
    },
    "butterfly": {
        "butterfly.size": 12,
        "butterfly.points": 121,
        "butterfly.j_x": 1.0,
        "butterfly.j_y": 1.0,
        "butterfly.m_max": 1,
        "butterfly.boundary": "open",
        "output.format": "csv",
    },
    "custom": {
        "array.layout": None,  # required
        "array.nx": 2,
        "array.ny": 2,
        "array.cells": 4,
        "array.spacing_x": 1.0,
        "array.spacing_y": 1.0,
        "array.base_frequency": 1.0,
        "array.gradient": 0.05,
        "array.beta": 0.002,
        "drive.mode": "laser",
        "drive.rabi_frequency": 0.75,
        "drive.beat_frequency": 0.05,
        "drive.lamb_dicke": 0.2,
        "drive.strength": 0.6,
        "drive.resonance_order": 1,
        "drive.phase_x": math.pi,
        "drive.phase_y": math.pi,
        "numerics.cutoff_range": 3.0,
        "direction": "z",
        "output.format": "json",
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    values: tuple[tuple[str, object], ...]

    def __getitem__(self, key: str):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)


def _split_lines(text: str):
    """Yield (lineno, key, value) triples; malformed lines yield key=None."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            yield lineno, None, line
            continue
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


#: Complex multiply-adds one run may take, as `run_price` counts them: an hour at
#: 1.1e9 a second, the rate of a complex 625 x 625 matrix-vector product (347 us)
#: and a 1024 x 1024 `eigvalsh` (0.73 s for 2 n^3 / 3) on one core of a 2-vCPU Xeon
#: (numpy 2.4, OpenBLAS 0.3.31, 1 thread); 4e12 / 16 periods of 6.7e6 steps fit int64.
WORK_BUDGET = 4 * 10 ** 12


def run_price(experiment: str, values: dict, couplings=None):
    """(arrays, work) of a run before it starts: each dense array that grows
    with the config as (keys, name, shape, bytes an entry), and None or (keys,
    complex multiply-adds): 2 n^3 / 3 a lattice spectrum (the reduction in
    `eigh`; points - points // 2 spectra in a mirrored sweep, a ladder at its
    open size), and for each exact-drive run the cheaper path of `path_work`
    on [0, the window's end] (the link's longest transfer time), at a Taylor
    degree and node count of 1.  `couplings` is the ring's
    `ring_couplings(values)` or the error it raised, evaluated here if None.
    A drive that cannot run is not priced: parse_config reports it."""
    arrays, work, lattice = [], None, None  # lattice: keys, sites, points key, other columns
    if experiment == "fig2a_dressed_map":
        arrays.append(("map.eta_points, map.phase_points", "result table",
                       (values["map.eta_points"], values["map.phase_points"]), 8))
    elif experiment == "butterfly":  # alpha and the energies
        lattice = "butterfly.size", values["butterfly.size"] ** 2, "butterfly.points", 1
    elif experiment in ("fig2e_ladder_spectrum", "fig2f_flux_sweep"):  # phi, energies, gap
        lattice = ("ladder.cells", 3 * values["ladder.cells"] + 1,  # periodic: one site less
                   "sweep.points" if experiment == "fig2f_flux_sweep" else None, 2)
    elif experiment == "custom" and values["array.layout"] in ("square", "rhombic_ladder"):
        lattice = (("array.nx, array.ny", values["array.nx"] * values["array.ny"])
                   if values["array.layout"] == "square"
                   else ("array.cells", 3 * values["array.cells"] + 1)) + (None, 0)
    elif experiment in _EXACT_DRIVE_SITES:
        ring = experiment == "fig2cd_plaquette"
        if not ring:  # delta_phi, t_star, two n2 and defined
            arrays.append(("scan.points", "result table", (values["scan.points"], 5), 8))
        dim = (values["numerics.n_max"] + 1) ** _EXACT_DRIVE_SITES[experiment]
        arrays.append(("numerics.n_max", "step-generator table", (5, dim, dim), 16))
        try:  # the grid of `dynamics._exact_run`
            if isinstance(couplings, Exception):
                raise couplings
            if ring:
                drive, array, _, window = couplings or ring_couplings(values)
            else:  # to the longest transfer time of a defined point
                drive, array = config_drive(values, "laser", math.pi, 0.0), link_array(values)
                window = math.pi / (2.0 * COUPLING_THRESHOLD)
            scale = frequency_scale(array, drive, bare_coupling_matrix(
                array, values["direction"],
                values["numerics.cutoff_range"] if ring else DEFAULT_CUTOFF_RANGE))
        except (ConfigurationError, DomainError, GeometryError):  # parse_config lists it
            return arrays, None
        n = adds = math.inf  # beyond the float range
        with suppress(OverflowError, ZeroDivisionError):
            n, h = period_steps(drive.drive_frequency,
                                default_time_step(scale, values["numerics.time_step_divisor"]))
            points = (0.0, float(math.floor(window / h + 1e-9)))  # floats: past int64 too
            # runs by reversal: the ring and an odd scan's pi; the pairs but 0, 2 pi (J = 0)
            runs = {True: 1} if ring else {True: values["scan.points"] % 2,
                                           False: values["scan.points"] // 2 - 1}
            adds = dim * dim * sum(count * min(path_work(dim, n, 1, 1, points, reverse, 1))
                                   for reverse, count in runs.items())
        arrays.append(("numerics.time_step_divisor",
                       f"step table at frequency scale {scale:.3g}", (n, 5), 8))
        if ring:
            arrays.append(("numerics.samples", "sample table", (values["numerics.samples"], 5), 8))
        work = ("numerics.window, numerics.n_max" if ring else "scan.points, numerics.n_max", adds)
    if lattice is not None:
        keys, n, points, columns = lattice
        spectra = 1
        if points is not None:
            points, keys = values[points], f"{points}, {keys}"
            arrays.append((keys, "result table", (points, n + columns), 8))
            spectra = points - points // 2
        arrays.append((lattice[0], "lattice matrix", (n, n), 16))
        work = keys, spectra * 2 * n ** 3 // 3
    return arrays, work


def _count(n) -> str:
    """The int n >= 0, or inf, for a message: in full below 1e15, else rounded
    to three digits in `.3g`'s form, also beyond the float range and int's
    string-length limit."""
    if n == math.inf or n < 10 ** 15:
        return str(n)
    exponent = int(math.log10(n))  # within one of the decimal exponent
    exponent += (n >= 10 ** (exponent + 1)) - (n < 10 ** exponent)
    scale = 10 ** (exponent - 2)
    lead = (n + scale // 2) // scale  # rounded to three digits
    if lead == 1000:
        exponent, lead = exponent + 1, 100
    return f"{lead / 100:g}e+{exponent}"


def custom_array(cfg) -> TrapArray:
    """The array of the `custom` config `cfg` (a parsed config or its value dict)."""
    layout = cfg["array.layout"]
    dims = tuple(cfg[key] for key in _CUSTOM_SWITCHED.get(("array.layout", layout), ()))
    return build_array(layout, dims, spacing_x=cfg["array.spacing_x"],
                       spacing_y=cfg["array.spacing_y"],
                       base_frequency=cfg["array.base_frequency"],
                       gradient=cfg["array.gradient"], coulomb_beta=cfg["array.beta"])


def parse_config(text: str) -> ExperimentConfig:
    """Validate the document against the schema or raise ConfigError with
    the full list of violations (path plus reason, one entry each)."""
    violations: list[str] = []
    raw: dict[str, str] = {}
    for lineno, key, value in _split_lines(text):
        if key is None:
            violations.append(f"line {lineno}: not a 'key = value' pair: {value!r}")
            continue
        if key in raw:
            violations.append(f"{key}: duplicate key (line {lineno})")
            continue
        raw[key] = value

    experiment = raw.pop("experiment", None)
    if experiment is None:
        violations.append(
            "experiment: missing required key (one of " + ", ".join(EXPERIMENTS) + ")"
        )
        raise ConfigError(violations)
    if experiment not in EXPERIMENTS:
        violations.append(f"experiment: expected one of {EXPERIMENTS}, got {experiment!r}")
        raise ConfigError(violations)

    values = dict(PRESETS[experiment])
    for key, text_value in raw.items():
        spec = SCHEMA.get(key)
        if spec is None:
            violations.append(f"{key}: unknown key")
            continue
        if key not in PRESETS[experiment]:
            violations.append(f"{key}: not consumed by experiment {experiment}")
            continue
        try:
            value = spec.parse(text_value)
        except ValueError as exc:
            violations.append(f"{key}: {exc}")
            continue
        if spec.check is not None:
            problem = spec.check(value)
            if problem:
                violations.append(f"{key}: range violation, {problem}")
                continue
        values[key] = value

    if experiment == "custom" and values["array.layout"] is None:
        violations.append("array.layout: missing required key for experiment custom")
    for (switch, wanted), keys in _CUSTOM_SWITCHED.items():
        for key in keys:
            if experiment == "custom" and key in raw and values[switch] not in (None, wanted):
                violations.append(f"{key}: not consumed by experiment custom with "
                                  f"{switch} = {values[switch]}")

    if experiment == "fig2cd_plaquette" and values["drive.rabi_frequency"] is None:
        values["drive.rabi_frequency"] = _PLAQUETTE_RABI[values["plaquette.flux"]]
    couplings = None  # the ring's, shared by the price and the drive rules
    if experiment == "fig2cd_plaquette":
        try:
            couplings = ring_couplings(values)
        except (ConfigurationError, DomainError, GeometryError) as exc:
            couplings = exc
    arrays, work = run_price(experiment, values, couplings)
    unpriced = len(violations)
    for keys, name, shape, entry in arrays:
        size = math.prod(shape) * entry
        if size > DENSE_BYTE_BUDGET:
            violations.append(f"{keys}: the {name} takes {_count(size)} bytes ("
                              + " x ".join(map(_count, (*shape, entry)))
                              + f"), above the dense budget of {DENSE_BYTE_BUDGET} bytes")
    if work is not None and work[1] > WORK_BUDGET:
        violations.append(f"{work[0]}: the run takes at least {_count(work[1])} complex "
                          f"multiply-adds, above the work budget of {WORK_BUDGET}")
    if experiment == "custom" and values["array.layout"] is not None \
            and len(violations) == unpriced:  # a lattice that fits
        try:
            check_dipolar_reach(custom_array(values), values["numerics.cutoff_range"])
        except (ConfigurationError, GeometryError) as exc:
            violations.append(str(exc))

    if experiment == "fig2a_dressed_map":
        try:
            dressed_factor(values["drive.resonance_order"], values["map.eta_max"], 0.0)
        except DomainError as exc:
            violations.append(f"drive.resonance_order, map.eta_max: {exc}")
    elif experiment in _EXACT_DRIVE_SITES or experiment == "custom":
        try:  # stops at the first rule broken: one message per cause
            drive = config_drive(values, values.get("drive.mode", "laser"), 0.0, 0.0)
            if isinstance(couplings, Exception):
                raise couplings
            if couplings is None:
                dressed_factor(drive.resonance_order, drive.eta_d, 0.0)
            drive.check_resonance(values["array.gradient"])
        except (ConfigurationError, DomainError, GeometryError) as exc:
            violations.append(str(exc))

    config = ExperimentConfig(experiment=experiment, values=tuple(sorted(values.items())))
    if violations:
        raise ConfigError(violations, config)
    return config
