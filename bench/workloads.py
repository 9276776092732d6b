"""Workload definitions: each workload is a list of jobs, one config each.

Seed 0 gives the shipped presets with the workload's fixed overrides.  Any
other seed makes small deterministic changes to the inputs that leave the
amount of work unchanged, so that the figures of different seeds can be
pooled.  The program only ever receives the generated config text.
"""

from __future__ import annotations

import math
import random

#: ring_link runs the ring_pi and link_scan jobs in one repetition: the
#: long matrix-vector Magnus integration and the one-period matrix-matrix
#: propagators.  Two workloads leave room for long runs (see README.md).
WORKLOADS = ("ring_link", "static_spectra")

#: Ring window at seed 0.  At the current step rule (h = 0.11979) every
#: window in (4024.9, 4096.8] takes 57 Magnus steps per sample, so the
#: +-0.75 % jitter of other seeds keeps the step count at 600 * 57.
RING_WINDOW = 4060.0
RING_JITTER = 0.0075


def _spread(rng: random.Random, centre: float, rel: float) -> float:
    return centre * (1.0 + rel * (2.0 * rng.random() - 1.0))


def jobs(workload: str, seed: int) -> list[tuple[str, str]]:
    """[(job name, config text)] for one repetition of `workload`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    vary = seed != 0

    if workload == "ring_link":
        window = _spread(rng, RING_WINDOW, RING_JITTER) if vary else RING_WINDOW
        ring = ("experiment = fig2cd_plaquette\n"
                "plaquette.flux = pi\n"
                "numerics.n_max = 2\n"
                "numerics.samples = 601\n"
                f"numerics.window = {window!r}\n")
        # The scan grid is fixed by scan.points, so the Coulomb scale moves
        # instead.  A relative change of 1e-4 shifts each full-transfer time
        # by under 2 time units: < 20 vector steps, against 1465 matrix steps
        # for each point's period propagator.
        link = ("experiment = fig2b_link_scan\n"
                "scan.points = 21\n"
                "numerics.n_max = 4\n")
        if vary:
            link += f"array.beta = {_spread(rng, 0.002, 1e-4)!r}\n"
        return [("ring_pi", ring), ("link_scan", link)]

    dressed = "experiment = fig2a_dressed_map\n"
    custom = ("experiment = custom\n"
              "array.layout = square\n"
              "array.nx = 30\n"
              "array.ny = 30\n")
    butterfly = "experiment = butterfly\n"
    sweep = "experiment = fig2f_flux_sweep\n"
    ladder = "experiment = fig2e_ladder_spectrum\n"
    if vary:
        # The series cutoff only grows by one order across the +-1 % range.
        dressed += f"map.eta_max = {_spread(rng, 2.0, 0.01)!r}\n"
        custom += (f"drive.phase_x = {_spread(rng, math.pi, 0.03)!r}\n"
                   f"drive.phase_y = {_spread(rng, math.pi, 0.03)!r}\n")
        butterfly += f"butterfly.j_y = {_spread(rng, 1.0, 0.01)!r}\n"
        sweep += f"ladder.j2 = {_spread(rng, 1.0, 0.01)!r}\n"
        ladder += f"ladder.j2 = {_spread(rng, 1.0, 0.01)!r}\n"
    return [("dressed_map", dressed), ("custom_square", custom),
            ("butterfly", butterfly), ("flux_sweep", sweep),
            ("ladder_spectrum", ladder)]
