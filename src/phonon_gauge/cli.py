"""Command-line interface: run preset experiments and emit plot-ready data.

Usage:
    phonon-gauge simulate --config FILE --out DIR [--format csv|json] [--jobs N]
    phonon-gauge preset --list

Exit codes: 0 success, 1 configuration error, 2 numerical failure, 3 internal
error (a fault of the program, printed as "internal error: <type>: <message>").
The environment variable PHONON_GAUGE_OUT, when set, overrides --out.  Rerunning
with an identical config reproduces bit-identical data files; the manifest
additionally records the wall-clock duration.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from ._text import json_text
from .config import _CUSTOM_SWITCHED, ConfigError, EXPERIMENT_SUMMARIES, EXPERIMENTS, \
    ExperimentConfig, parse_config
from .couplings import BrokenCycleError, DomainError, DressedMapResult, dressed_map, \
    effective_coupling_matrix
from .dynamics import EvolutionResult, IntegrationError, LinkScanResult, link_transfer_scan, \
    plaquette_experiment
from .fock import CapacityError
from .model import ConfigurationError, GeometryError, build_array, cosine_drive, laser_drive
from .spectra import ButterflyResult, CustomSpectrumResult, FluxSweepResult, \
    LadderSpectrumResult, eigensystem, flux_sweep, ladder_spectrum, rhombic_ladder_matrix, \
    square_lattice_matrix

ENV_OUT = "PHONON_GAUGE_OUT"

#: Config violations, and the library errors that a valid config can still
#: trigger; any error outside these and _NUMERIC_ERRORS is internal.
_CONFIG_ERRORS = (ConfigError, ConfigurationError, GeometryError, CapacityError,
                  BrokenCycleError, DomainError)
_NUMERIC_ERRORS = (IntegrationError, np.linalg.LinAlgError, FloatingPointError)


def _pool_size(jobs: int, n_items: int) -> int:
    return max(1, min(jobs, n_items, os.cpu_count() or 1))


def _fork_map(jobs: int):
    """A map over a fork pool of at most `jobs` workers (never more workers
    than items or CPUs); one worker maps in-process."""
    def pool_map(fn, items):
        items = list(items)
        workers = _pool_size(jobs, len(items))
        if workers == 1:
            return list(map(fn, items))
        with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
            return pool.map(fn, items)
    return pool_map


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8", newline="")
    return path.name


# --- experiment runners: (cfg, map_fn) -> ({file stem: result}, resolved) ----


def _run_dressed_map(cfg: ExperimentConfig, map_fn):
    result = dressed_map(cfg["drive.resonance_order"],
                         np.linspace(0.0, cfg["map.eta_max"], cfg["map.eta_points"]),
                         np.linspace(0.0, 2.0 * math.pi, cfg["map.phase_points"]))
    return {"dressed_map": result}, {}


def _exact_drive_kwargs(cfg: ExperimentConfig) -> dict:
    """The arguments both exact-drive experiments take from the config."""
    return dict(gradient=cfg["array.gradient"], coulomb_beta=cfg["array.beta"],
                base_frequency=cfg["array.base_frequency"], direction=cfg["direction"],
                rabi_frequency=cfg["drive.rabi_frequency"], lamb_dicke=cfg["drive.lamb_dicke"],
                beat_frequency=cfg["drive.beat_frequency"], n_max=cfg["numerics.n_max"],
                resonance_order=cfg["drive.resonance_order"],
                time_step_divisor=cfg["numerics.time_step_divisor"])


def _run_link_scan(cfg: ExperimentConfig, map_fn):
    result = link_transfer_scan(np.linspace(0.0, 2.0 * math.pi, cfg["scan.points"]),
                                map_fn=map_fn, **_exact_drive_kwargs(cfg))
    return {"link_scan": result}, {}


def _run_plaquette(cfg: ExperimentConfig, map_fn):
    res_eff, res_exact = plaquette_experiment(
        cfg["plaquette.flux"], window=cfg["numerics.window"],
        samples=cfg["numerics.samples"], cutoff_range=cfg["numerics.cutoff_range"],
        **_exact_drive_kwargs(cfg))
    resolved = {key: res_eff.parameters[key]
                for key in ("window", "spacing_y", "bond_magnitude", "drive_strength")}
    resolved["diagnostics"] = res_exact.diagnostics
    return {"plaquette_effective": res_eff, "plaquette_exact": res_exact}, resolved


def _run_ladder_spectrum(cfg: ExperimentConfig, map_fn):
    result = ladder_spectrum(cfg["ladder.cells"], cfg["ladder.j1"], cfg["ladder.j2"],
                             cfg["ladder.flux"], cfg["ladder.boundary"])
    return {"ladder_spectrum": result}, {}


def _run_flux_sweep(cfg: ExperimentConfig, map_fn):
    builder = partial(rhombic_ladder_matrix, cfg["ladder.cells"], cfg["ladder.j1"],
                      cfg["ladder.j2"], boundary=cfg["sweep.boundary"])
    result = flux_sweep(builder, np.linspace(-math.pi, math.pi, cfg["sweep.points"]),
                        map_fn=map_fn)
    return {"flux_sweep": result}, {}


def _run_butterfly(cfg: ExperimentConfig, map_fn):
    size = cfg["butterfly.size"]
    builder = partial(square_lattice_matrix, size, size, j_x=cfg["butterfly.j_x"],
                      j_y=cfg["butterfly.j_y"], m_max=cfg["butterfly.m_max"],
                      boundary=cfg["butterfly.boundary"])
    sweep = flux_sweep(builder, np.linspace(0.0, 2.0 * math.pi, cfg["butterfly.points"]),
                       map_fn=map_fn)
    return {"butterfly": ButterflyResult(alphas=sweep.fluxes, eigenvalues=sweep.eigenvalues)}, {}


def _run_custom(cfg: ExperimentConfig, map_fn):
    layout = cfg["array.layout"]
    dims = tuple(cfg[key] for key in _CUSTOM_SWITCHED.get(("array.layout", layout), ()))
    array = build_array(layout, dims, spacing_x=cfg["array.spacing_x"],
                        spacing_y=cfg["array.spacing_y"],
                        base_frequency=cfg["array.base_frequency"],
                        gradient=cfg["array.gradient"],
                        coulomb_beta=cfg["array.beta"])
    if cfg["drive.mode"] == "laser":
        drive = laser_drive(cfg["drive.rabi_frequency"], cfg["drive.beat_frequency"],
                            cfg["drive.lamb_dicke"], cfg["drive.resonance_order"],
                            phase_x=cfg["drive.phase_x"], phase_y=cfg["drive.phase_y"])
    else:
        drive = cosine_drive(cfg["drive.beat_frequency"], cfg["drive.strength"],
                             cfg["drive.resonance_order"],
                             phase_x=cfg["drive.phase_x"], phase_y=cfg["drive.phase_y"])
    matrix = effective_coupling_matrix(array, drive, cfg["direction"],
                                       cfg["numerics.cutoff_range"])
    result = CustomSpectrumResult(layout=layout, n_sites=array.n_sites,
                                  spectrum=eigensystem(matrix.matrix))
    return {"custom_spectrum": result}, {}


#: experiment -> (result type, runner).  The formats an experiment writes are
#: the to_csv/to_json methods of its result type.
_RUNNERS = {
    "fig2a_dressed_map": (DressedMapResult, _run_dressed_map),
    "fig2b_link_scan": (LinkScanResult, _run_link_scan),
    "fig2cd_plaquette": (EvolutionResult, _run_plaquette),
    "fig2e_ladder_spectrum": (LadderSpectrumResult, _run_ladder_spectrum),
    "fig2f_flux_sweep": (FluxSweepResult, _run_flux_sweep),
    "butterfly": (ButterflyResult, _run_butterfly),
    "custom": (CustomSpectrumResult, _run_custom),
}


def _open_out(out_dir, jobs: int, violations: list[str]) -> Path:
    """Create `out_dir`, or add the --jobs and --out violations to `violations`
    and raise them all, leaving no directory behind from a run that never starts."""
    if jobs < 1:
        violations.append(f"--jobs: must be >= 1, got {jobs}")
    out = Path(out_dir)
    new_dirs = [p for p in (out, *out.parents) if not os.path.exists(p)]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        violations.append(f"--out: {exc}")
    if violations:
        for path in new_dirs:
            if os.path.isdir(path):
                path.rmdir()
        raise ConfigError(violations)
    return out


def run_experiment(config: ExperimentConfig, out_dir, fmt: str | None = None,
                   jobs: int = 1) -> list[str]:
    """Run the configured experiment into `out_dir`; returns written files.

    Data files are bit-identical across reruns of the same config and any
    `jobs`, the most worker processes a sweep may use.  A manifest.json
    records the fully resolved parameters, the package version, and the
    wall-clock duration.
    """
    fmt = fmt or config["output.format"]
    result_type, runner = _RUNNERS[config.experiment]
    writes = [f for f in ("csv", "json") if hasattr(result_type, f"to_{f}")]
    violations = []
    if fmt not in writes:
        violations.append(f"output format: {config.experiment} writes only "
                          f"{' and '.join(writes)}, got {fmt}")
    out = _open_out(out_dir, jobs, violations)
    start = time.perf_counter()
    results, resolved = runner(config, _fork_map(jobs))
    files = [_write(out / f"{stem}.{fmt}", getattr(result, f"to_{fmt}")())
             for stem, result in results.items()]
    manifest = {
        "experiment": config.experiment,
        "parameters": dict(config.values),
        "resolved": resolved,
        "output_format": fmt,
        "files": files,
        "version": __version__,
        "duration_seconds": time.perf_counter() - start,
    }
    files.append(_write(out / "manifest.json", json_text(manifest)))
    return files


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage problems are config errors
        raise ConfigError([f"usage: {message}"])


def _build_parser() -> _Parser:
    parser = _Parser(prog="phonon-gauge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    sim = sub.add_parser("simulate", help="run an experiment from a config file")
    sim.add_argument("--config", required=True, help="path to the config file")
    sim.add_argument("--out", default=None, help=f"output directory (or ${ENV_OUT})")
    sim.add_argument("--format", choices=("csv", "json"), default=None,
                     help="override the configured output format")
    sim.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the link scan, flux sweep and butterfly")
    pre = sub.add_parser("preset", help="inspect available presets")
    pre.add_argument("--list", action="store_true", dest="list_presets")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "preset":
            if args.list_presets:
                for name in EXPERIMENTS:
                    print(f"{name}: {EXPERIMENT_SUMMARIES[name]}")
            else:
                print("nothing to do; try 'preset --list'")
            return 0
        if args.command != "simulate":
            raise ConfigError(["usage: expected a subcommand (simulate | preset)"])
        out_dir = os.environ.get(ENV_OUT) or args.out
        if out_dir is None:
            raise ConfigError([f"--out is required (or set ${ENV_OUT})"])
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError([f"config file: {exc}"]) from None
        try:
            config = parse_config(text)
        except ConfigError as exc:  # list the flag violations with the config's
            _open_out(out_dir, args.jobs, exc.violations)
            raise  # not reached: _open_out raises on a nonempty list
        files = run_experiment(config, out_dir, fmt=args.format, jobs=args.jobs)
    except _CONFIG_ERRORS as exc:
        for v in getattr(exc, "violations", [exc]):  # a ConfigError lists them all
            print(f"config error: {v}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the config
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for name in files:
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
