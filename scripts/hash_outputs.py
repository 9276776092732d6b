#!/usr/bin/env python3
"""Run a fixed list of short configs and print a SHA-256 per output file.

Usage: PYTHONPATH=src python scripts/hash_outputs.py [output_root]

The list holds every preset, with the link scan on five phase steps, the
ring at both fluxes on a 300-unit window and at flux pi on a 600-unit
window (all three by Floquet sampling, the block crossing half a period at
flux 0 and a quarter period in the pi ring's mirror glide), the pi ring on a
100-unit window, under one drive period, by plain stepping, an open ladder
sweep and a periodic butterfly on even flux grids (the mirror's other
branch: the preset grids are odd), a dressed map up to the largest drive
strength (Bessel arguments up to 100), and `custom` in laser mode, in
cosine mode, and with x couplings out to 7.5 lattice constants.  Each line
reads ``sha256  <config>/<file>``, in the format of ``sha256sum``.  A
manifest is hashed without its `duration_seconds`, the one entry that
differs between reruns.  Run it on two checkouts and diff the outputs to see
which data files a change moves.  The whole list takes about 0.9 seconds
on one core of a 2-vCPU Xeon, 0.07 of them in the 600-unit ring and about
0.1 in the 100-unit one; output_root defaults to a temporary directory that
is removed afterwards.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from phonon_gauge.cli import run_experiment
from phonon_gauge.config import EXPERIMENTS, parse_config

#: Overrides that keep the long presets short.
SHORT = {
    "fig2b_link_scan": "scan.points = 5\n",
    "fig2cd_plaquette": "numerics.window = 300\nnumerics.samples = 61\n",
}

#: The pi ring on a window long enough for Floquet sampling with a stepped
#: block (61 samples at more than five offsets; 10 powers of W, the Floquet
#: operator of the ring's half period).
FLOQUET_RING = "numerics.window = 600\nnumerics.samples = 61\nplaquette.flux = pi\n"

#: The pi ring on a window shorter than one drive period (125.7), where
#: Floquet sampling does not pay: plain stepping, 895 Magnus steps.
PLAIN_RING = "numerics.window = 100\nnumerics.samples = 61\nplaquette.flux = pi\n"

#: A periodic butterfly on an even flux grid, where no row is its own
#: mirror: rows 5-3 repeat rows 0-2.
EVEN_BUTTERFLY = ("butterfly.size = 4\nbutterfly.points = 6\nbutterfly.boundary = periodic\n"
                  "butterfly.m_max = 2\n")

#: An open ladder sweep on an even flux grid: rows 5-3 repeat rows 0-2.
EVEN_SWEEP = "sweep.points = 6\nsweep.boundary = open\n"

#: A dressed map out to eta_d = 50, the domain's edge.
HIGH_ETA_MAP = "map.eta_max = 50\nmap.eta_points = 6\nmap.phase_points = 9\n"

CUSTOM = {
    "custom_laser": "array.layout = square\narray.nx = 3\narray.ny = 3\n",
    "custom_cosine": "array.layout = rhombic_ladder\narray.cells = 3\ndrive.mode = cosine\n",
    "custom_long_range": "array.layout = square\narray.nx = 4\narray.ny = 3\n"
                         "array.spacing_y = 1.37\ndirection = x\nnumerics.cutoff_range = 7.5\n",
}


def runs():
    """(output directory name, config text) for every hashed run."""
    for name in EXPERIMENTS:
        text = f"experiment = {name}\n" + SHORT.get(name, "")
        if name == "fig2cd_plaquette":
            for flux in ("0", "pi"):
                yield f"{name}_flux{flux}", text + f"plaquette.flux = {flux}\n"
            yield f"{name}_fluxpi_floquet", f"experiment = {name}\n" + FLOQUET_RING
            yield f"{name}_fluxpi_plain", f"experiment = {name}\n" + PLAIN_RING
        elif name == "fig2f_flux_sweep":
            yield name, text
            yield f"{name}_open_even", text + EVEN_SWEEP
        elif name == "butterfly":
            yield name, text
            yield f"{name}_periodic_even", text + EVEN_BUTTERFLY
        elif name == "fig2a_dressed_map":
            yield name, text
            yield f"{name}_eta50", text + HIGH_ETA_MAP
        elif name == "custom":
            for label, keys in CUSTOM.items():
                yield label, text + keys
        else:
            yield name, text


def file_hash(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("duration_seconds")
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(scratch)
        for name, text in runs():
            for written in run_experiment(parse_config(text), root / name):
                print(f"{file_hash(root / name / written)}  {name}/{written}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
