"""Output check: comparison with recorded references, plus invariants.

At seed 0 every data file must match the reference recorded for its job,
byte for byte or else number by number: exact-drive data (populations and
norms) within 1e-7, everything else within 1e-12, absolute up to magnitude
1 and relative above.  Every seed also gets the invariant checks, since
other seeds have no reference.  manifest.json carries a wall-clock
duration and is not a data file.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXACT_DRIVE_TOL = 1e-7
DEFAULT_TOL = 1e-12
NORM_DRIFT = 1e-4  # the package's own abort limit
NUMBER_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10


def data_files(files) -> list[str]:
    return sorted(f for f in files if f != "manifest.json")


def record(job: str, out_dir: Path, files) -> None:
    target = REFERENCE_DIR / job
    target.mkdir(parents=True, exist_ok=True)
    for old in target.glob("*.gz"):
        old.unlink()
    for name in data_files(files):
        payload = gzip.compress((out_dir / name).read_bytes(), compresslevel=9, mtime=0)
        (target / f"{name}.gz").write_bytes(payload)


def _tolerance(file: str, column: str) -> float:
    if file == "plaquette_exact.csv" and column != "time":
        return EXACT_DRIVE_TOL
    if file == "link_scan.csv" and column == "n2_exact":
        return EXACT_DRIVE_TOL
    return DEFAULT_TOL


class _Diff:
    def __init__(self):
        self.max_abs = 0.0
        self.problems: list[str] = []

    def number(self, where: str, got: float, ref: float, tol: float) -> None:
        if math.isnan(ref) and math.isnan(got):
            return
        diff = abs(got - ref)
        if math.isnan(diff):
            self.problems.append(f"{where}: {got!r} vs reference {ref!r}")
            return
        self.max_abs = max(self.max_abs, diff)
        if diff > tol * max(1.0, abs(ref)):
            self.problems.append(f"{where}: differs from the reference by {diff:.3g}")

    def json(self, where: str, got, ref) -> None:
        if isinstance(ref, dict) and isinstance(got, dict) and got.keys() == ref.keys():
            for key in ref:
                self.json(f"{where}.{key}", got[key], ref[key])
        elif isinstance(ref, list) and isinstance(got, list) and len(got) == len(ref):
            for k, (g, r) in enumerate(zip(got, ref)):
                self.json(f"{where}[{k}]", g, r)
        elif (isinstance(ref, (int, float)) and isinstance(got, (int, float))
              and not isinstance(ref, bool) and not isinstance(got, bool)):
            self.number(where, float(got), float(ref), DEFAULT_TOL)
        elif got != ref:
            self.problems.append(f"{where}: {got!r} vs reference {ref!r}")

    def csv(self, file: str, got: str, ref: str) -> None:
        got_rows = list(csv.reader(io.StringIO(got)))
        ref_rows = list(csv.reader(io.StringIO(ref)))
        if not ref_rows or got_rows[:1] != ref_rows[:1] or len(got_rows) != len(ref_rows):
            self.problems.append(f"{file}: header or row count differs from the reference")
            return
        header = ref_rows[0]
        for k, (g_row, r_row) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=2):
            if len(g_row) != len(r_row):
                self.problems.append(f"{file}:{k}: field count differs from the reference")
                continue
            for column, g, r in zip(header, g_row, r_row):
                self.number(f"{file}:{k}:{column}", float(g), float(r),
                            _tolerance(file, column))


def compare_reference(job: str, out_dir: Path, files) -> tuple[float, list[str]]:
    """(largest absolute difference, problems) against the job's reference."""
    ref_dir = REFERENCE_DIR / job
    expected = sorted(p.name[:-3] for p in ref_dir.glob("*.gz"))
    got_names = data_files(files)
    if not expected:
        return 0.0, [f"{job}: no reference recorded in {ref_dir}"]
    if got_names != expected:
        return 0.0, [f"{job}: wrote {got_names}, reference has {expected}"]
    diff = _Diff()
    for name in expected:
        ref = gzip.decompress((ref_dir / f"{name}.gz").read_bytes())
        got = (out_dir / name).read_bytes()
        if got == ref:
            continue
        if name.endswith(".json"):
            diff.json(name, json.loads(got), json.loads(ref))
        else:
            diff.csv(name, got.decode("utf-8"), ref.decode("utf-8"))
    return diff.max_abs, diff.problems


# --- invariants ---------------------------------------------------------------


def _table(path: Path) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(path.open(encoding="utf-8", newline="")))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def _bessel_j(order: int, x: np.ndarray, nodes: int = 64) -> np.ndarray:
    """J_order(x) by the trapezoid rule on Bessel's integral (exact to roundoff
    for |x| well below `nodes`)."""
    tau = 2.0 * math.pi * np.arange(nodes) / nodes
    return np.cos(order * tau[None, :] - np.outer(x, np.sin(tau))).mean(axis=1)


def _sorted_finite(values: np.ndarray) -> bool:
    return bool(np.isfinite(values).all() and (np.diff(values, axis=-1) >= 0).all())


class _Invariants:
    def __init__(self):
        self.residual = 0.0
        self.problems: list[str] = []

    def bound(self, what: str, residual: float, limit: float) -> None:
        self.residual = max(self.residual, residual)
        if not residual <= limit:
            self.problems.append(f"{what}: {residual:.3g} exceeds {limit:g}")

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)

    def ring(self, out: Path) -> None:
        for tag in ("effective", "exact"):
            header, t = _table(out / f"plaquette_{tag}.csv")
            times, pops, norms = t[:, 0], t[:, 1:-1], t[:, -1]
            self.require(f"{tag}: time grid is not uniform",
                         bool(np.allclose(np.diff(times), times[1] - times[0], rtol=1e-9)))
            self.require(f"{tag}: populations not finite and non-negative",
                         bool(np.isfinite(pops).all() and (pops >= -1e-12).all()))
            self.bound(f"{tag}: norm drift", float(np.abs(norms - 1.0).max()), NORM_DRIFT)
            if tag == "effective":
                self.bound("effective: total phonon number drift",
                           float(np.abs(pops.sum(axis=1) - 1.0).max()), NUMBER_TOL)

    def link(self, out: Path) -> None:
        header, t = _table(out / "link_scan.csv")
        defined = t[:, 4] == 1
        self.require("link: fewer than half of the points defined", defined.mean() >= 0.5)
        self.require("link: undefined points carry numbers",
                     bool(np.isnan(t[~defined, 1:4]).all()))
        d = t[defined]
        self.require("link: non-positive full-transfer time",
                     bool(np.isfinite(d[:, 1]).all() and (d[:, 1] > 0).all()))
        self.bound("link: effective transfer short of 1", float(np.abs(d[:, 2] - 1.0).max()),
                   NUMBER_TOL)
        self.require("link: exact transfer not finite and non-negative",
                     bool(np.isfinite(d[:, 3]).all() and (d[:, 3] >= 0).all()))

    def dressed_map(self, out: Path) -> None:
        header, t = _table(out / "dressed_map.csv")
        eta, dphi, mag = t.T
        closed = np.abs(_bessel_j(1, 2.0 * eta * np.sin(dphi / 2.0)))
        self.bound("dressed map vs closed form", float(np.abs(mag - closed).max()),
                   CLOSED_FORM_TOL)

    def custom(self, out: Path) -> None:
        spectrum = json.loads((out / "custom_spectrum.json").read_text())["spectrum"]
        vals = np.array(spectrum["eigenvalues"], dtype=float)
        ipr = np.array(spectrum["ipr"], dtype=float)
        self.require("custom: eigenvalues not sorted and real", _sorted_finite(vals))
        self.require("custom: wrong spectrum size", vals.size == 900)
        self.require("custom: IPR outside (0, 1]", bool(((ipr > 0) & (ipr <= 1 + 1e-12)).all()))

    def butterfly(self, out: Path) -> None:
        header, t = _table(out / "butterfly.csv")
        self.require("butterfly: spectra not sorted and real", _sorted_finite(t[:, 1:]))

    def flux_sweep(self, out: Path) -> None:
        header, t = _table(out / "flux_sweep.csv")
        self.require("flux sweep: spectra not sorted and real", _sorted_finite(t[:, 1:-1]))
        self.require("flux sweep: negative gap", bool((t[:, -1] >= 0).all()))

    def ladder(self, out: Path) -> None:
        payload = json.loads((out / "ladder_spectrum.json").read_text())
        vals = np.array(payload["spectrum"]["eigenvalues"], dtype=float)
        self.require("ladder: eigenvalues not sorted and real", _sorted_finite(vals))


_INVARIANTS = {
    "ring_pi": _Invariants.ring,
    "link_scan": _Invariants.link,
    "dressed_map": _Invariants.dressed_map,
    "custom_square": _Invariants.custom,
    "butterfly": _Invariants.butterfly,
    "flux_sweep": _Invariants.flux_sweep,
    "ladder_spectrum": _Invariants.ladder,
}


def check_job(job: str, out_dir: Path, files, seed: int) -> dict:
    """{"ok", "max_abs_diff", "max_residual", "problems"} for one job's output."""
    inv = _Invariants()
    try:
        _INVARIANTS[job](inv, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        inv.problems.append(f"{job}: unreadable output: {exc!r}")
    max_diff, problems = 0.0, []
    if seed == 0:
        max_diff, problems = compare_reference(job, out_dir, files)
    problems = inv.problems + problems
    return {"ok": not problems, "max_abs_diff": max_diff,
            "max_residual": inv.residual, "problems": problems[:10]}
