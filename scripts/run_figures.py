#!/usr/bin/env python3
"""Run every preset experiment and collect plot-ready data under one root.

Usage: python scripts/run_figures.py [output_root]

The run list follows config.EXPERIMENTS, with the ring interference run at
both synthetic fluxes; `custom` is left out because it needs a user-chosen
array.layout.  The two ring runs integrate their full windows by Floquet
sampling, 2797 Magnus steps at flux 0 and 2174 at pi, in about 0.4 s each;
the whole list takes about 1.2 s on one core of a shared 2-vCPU Xeon host.
"""

import sys
from pathlib import Path

from phonon_gauge.cli import run_experiment
from phonon_gauge.config import EXPERIMENTS, parse_config


def runs():
    """(output directory name, config text) for every preset run."""
    for name in EXPERIMENTS:
        if name == "fig2cd_plaquette":
            for flux in ("0", "pi"):
                yield f"{name}_flux{flux}", f"experiment = {name}\nplaquette.flux = {flux}\n"
        elif name != "custom":
            yield name, f"experiment = {name}\n"


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figure_data")
    for name, text in runs():
        out = root / name
        print(f"== {name} -> {out}")
        for written in run_experiment(parse_config(text), out):
            print(f"   {written}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
