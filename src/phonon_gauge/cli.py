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
import itertools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._text import json_text
from .config import ConfigError, EXPERIMENT_SUMMARIES, EXPERIMENTS, ExperimentConfig, \
    custom_array, parse_config
from .couplings import BrokenCycleError, DomainError, DressedMapResult, dressed_map, \
    effective_coupling_matrix
from .dynamics import EvolutionResult, IntegrationError, LinkScanResult, config_drive, \
    link_transfer_scan, plaquette_experiment
from .model import ConfigurationError, GeometryError
from .spectra import ButterflyResult, CustomSpectrumResult, FluxSweepResult, \
    LadderSpectrumResult, butterfly_spectrum, eigensystem, flux_sweep, ladder_spectrum

ENV_OUT = "PHONON_GAUGE_OUT"

#: Config violations, and the library errors that a valid config can still
#: trigger; any error outside these and _NUMERIC_ERRORS is internal.
_CONFIG_ERRORS = (ConfigError, ConfigurationError, GeometryError, BrokenCycleError,
                  DomainError)
_NUMERIC_ERRORS = (IntegrationError, np.linalg.LinAlgError, FloatingPointError)


def _pool_size(jobs: int, n_items: int) -> int:
    return max(1, min(jobs, n_items, os.cpu_count() or 1))


def _fork_map(jobs: int):
    """A map, called as the builtin map, over a fork pool of at most `jobs`
    workers (never more workers than items or CPUs); one worker maps in-process."""
    def pool_map(fn, *iterables):
        items = list(zip(*iterables))
        workers = _pool_size(jobs, len(items))
        if workers == 1:
            return list(itertools.starmap(fn, items))
        import multiprocessing  # only here: a one-worker run never forks

        with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
            return pool.starmap(fn, items)
    return pool_map


def _write(path: Path, text) -> str:
    with path.open("w", encoding="utf-8", newline="") as out:
        out.writelines([text] if isinstance(text, str) else text)
    return path.name


# --- experiment runners: (cfg, map_fn) -> ({file stem: result}, resolved) ----


def _run_dressed_map(cfg: ExperimentConfig, map_fn):
    result = dressed_map(cfg["drive.resonance_order"],
                         np.linspace(0.0, cfg["map.eta_max"], cfg["map.eta_points"]),
                         np.linspace(0.0, 2.0 * math.pi, cfg["map.phase_points"]))
    return {"dressed_map": result}, {}


def _run_link_scan(cfg: ExperimentConfig, map_fn):
    return {"link_scan": link_transfer_scan(cfg, map_fn=map_fn)}, {}


def _run_plaquette(cfg: ExperimentConfig, map_fn):
    res_eff, res_exact = plaquette_experiment(cfg)
    resolved = {key: res_eff.parameters[key]
                for key in ("window", "spacing_y", "bond_magnitude", "drive_strength")}
    resolved["diagnostics"] = res_exact.diagnostics
    return {"plaquette_effective": res_eff, "plaquette_exact": res_exact}, resolved


def _run_ladder_spectrum(cfg: ExperimentConfig, map_fn):
    result = ladder_spectrum(cfg["ladder.cells"], cfg["ladder.j1"], cfg["ladder.j2"],
                             cfg["ladder.flux"], cfg["ladder.boundary"])
    return {"ladder_spectrum": result}, {}


def _run_flux_sweep(cfg: ExperimentConfig, map_fn):
    result = flux_sweep(cfg["ladder.cells"], cfg["ladder.j1"], cfg["ladder.j2"],
                        cfg["sweep.points"], cfg["sweep.boundary"], map_fn=map_fn)
    return {"flux_sweep": result}, {}


def _run_butterfly(cfg: ExperimentConfig, map_fn):
    result = butterfly_spectrum(cfg["butterfly.size"], cfg["butterfly.points"],
                                cfg["butterfly.j_x"], cfg["butterfly.j_y"],
                                cfg["butterfly.m_max"], cfg["butterfly.boundary"],
                                map_fn=map_fn)
    return {"butterfly": result}, {}


def _run_custom(cfg: ExperimentConfig, map_fn):
    array = custom_array(cfg)
    drive = config_drive(cfg, cfg["drive.mode"], cfg["drive.phase_x"], cfg["drive.phase_y"])
    matrix = effective_coupling_matrix(array, drive, cfg["direction"],
                                       cfg["numerics.cutoff_range"])
    result = CustomSpectrumResult(layout=cfg["array.layout"], n_sites=array.n_sites,
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


def _output_format(config: ExperimentConfig, fmt: str | None, violations: list[str]) -> str:
    """`fmt`, else the configured format; a violation when the experiment does not write it."""
    fmt = fmt or config["output.format"]
    writes = [f for f in ("csv", "json") if hasattr(_RUNNERS[config.experiment][0], f"to_{f}")]
    if fmt not in writes:
        violations.append(f"output format: {config.experiment} writes only "
                          f"{' and '.join(writes)}, got {fmt}")
    return fmt


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
    violations = []
    fmt = _output_format(config, fmt, violations)
    out = _open_out(out_dir, jobs, violations)
    start = time.perf_counter()
    results, resolved = _RUNNERS[config.experiment][1](config, _fork_map(jobs))
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
            if exc.config is not None:
                _output_format(exc.config, args.format, exc.violations)
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
