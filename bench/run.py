"""phonon-gauge benchmark: preset workloads timed end to end and per layer.

    python3 bench/run.py --workload ring_link|static_spectra|all \
        [--seed N] [--seconds S] [--trace 0|1] [--record]

Run from the root of a source checkout; the package is imported from
./src.  Every repetition of a workload runs in a fresh single-threaded
interpreter (OPENBLAS/OMP/MKL_NUM_THREADS = 1) that calls
`phonon_gauge.cli.run_experiment` once per job with jobs=1, so set-up time
and peak RSS belong to that repetition alone.  A repetition starts only
while it is expected to end within --seconds, so a run lasts about that
long; the order of a workload's jobs rotates from one repetition to the
next.  Every output is checked (see check.py).

Times are scaled to a host of reference speed: every timed child also runs
a fixed reference kernel (refkernel.py) between its jobs, and a time is
multiplied by REF_NOMINAL_S over the kernel's time next to it.  The measured
seconds are reported too, as raw.wall_s and raw.setup_s.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics, whose self times
come from spans around the package's public functions (see tracing.py).
Either way every metric computed is printed with its unit.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full report, with samples, quartiles and
provenance, goes to bench/results/.  --record rewrites the seed-0
references in bench/reference/ from one repetition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import check  # noqa: E402
import workloads
from refkernel import REF_NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

#: Every invocation must end well inside three minutes.
TIME_LIMIT_S = 170.0
#: Fresh interpreters timed for setup_s at least: one before each
#: repetition, then more at the end.  An untimed warm-up runs first.
SETUP_SAMPLES = 9
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Self-time metrics: metric -> traced span names whose self times it sums.
SELF_TIME = {
    "dynamics.evolve_s": ("dynamics.evolve",),
    "dynamics.link_point_s": ("dynamics.link_point",),
    "dynamics.model_s": ("dynamics.effective_hamiltonian", "dynamics.laser_driven_model",
                         "dynamics.cosine_driven_model"),
    "fock.operator_s": ("fock.ladder_matrix", "fock.displacement_exponential"),
    "couplings.dressed_factor_s": ("couplings.dressed_factor",),
    "couplings.bessel_s": ("couplings.bessel_j", "couplings.bessel_first_kind_array"),
    "couplings.matrix_s": ("couplings.bare_coupling_matrix",
                           "couplings.effective_coupling_matrix"),
    "spectra.matrix_s": ("spectra.rhombic_ladder_matrix", "spectra.square_lattice_matrix"),
    "spectra.eigensystem_s": ("spectra.eigensystem",),
    "linalg.eigh_s": ("linalg.eigh", "linalg.eigvalsh"),
    "cli.self_s": ("cli.run_experiment",),
    "config.parse_s": ("config.parse_config",),
    "model.build_s": ("model.build_array", "model.laser_drive", "model.cosine_drive"),
}
CALLS = {
    "dynamics.evolve_calls": SELF_TIME["dynamics.evolve_s"],
    "fock.operator_calls": SELF_TIME["fock.operator_s"],
    "couplings.dressed_factor_calls": SELF_TIME["couplings.dressed_factor_s"],
    "linalg.eigh_calls": SELF_TIME["linalg.eigh_s"],
}
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    "dynamics.sim_time_per_s": "tu/s",
    "dynamics.share": "ratio",
    "trace.other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "cli.bytes_written": "bytes",
    "raw.wall_s": "s",
    "raw.setup_s": "s",
    "host.ref_s": "s",
    "cpu_s": "s",
    "check.max_abs_diff": "abs",
    "check.max_residual": "abs",
    "failed_frac": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _child(request: dict, timeout: float) -> dict:
    """Run bench/child.py in a fresh interpreter and return its report."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")],
                              input=json.dumps(request), capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and, from 11 samples on, the highest
    percentile that leaves at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if n >= 2 else (vals[0],) * 3
    out = {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": n}
    if n >= 11:
        out[f"p{math.floor(100.0 * (n - 10) / n)}"] = vals[n - 11]
    return out


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "blas_threads": {var: value for var, value in os.environ.items()
                         if var.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
        "loadavg_start": os.getloadavg(),
    }


def _layers(spans: dict, wall: float) -> dict:
    """Per-layer metrics of one traced repetition from its span summary."""
    def total(names, key):
        return sum(spans[n][key] for n in names if n in spans)

    out = {name: total(names, "self_s") for name, names in SELF_TIME.items()}
    out.update({name: total(names, "calls") for name, names in CALLS.items()})
    evolve = spans.get("dynamics.evolve")
    out["dynamics.sim_time_per_s"] = (evolve["attribute_sum"] / evolve["self_s"]
                                      if evolve and evolve["self_s"] > 0 else 0.0)
    out["dynamics.share"] = total([n for n in spans if n.startswith("dynamics.")],
                                  "self_s") / wall
    named = {n for names in SELF_TIME.values() for n in names}
    out["trace.other_s"] = total([n for n in spans if n not in named
                                  and not n.startswith("config.")], "self_s")
    out["trace.wall_s"] = wall
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, record: bool,
            deadline: float) -> dict:
    """Run one workload for `seconds` and return its samples and checks."""
    jobs = workloads.jobs(workload, seed)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def remaining():
        return deadline - time.monotonic()

    def sample_setup():
        report = _child({"jobs": jobs, "mode": "setup"}, remaining())
        return {"setup_s": report["setup_s"], "ref_s": report["ref_s"][0]}

    sample_setup()  # warms the bytecode and file caches; not recorded
    setup = []

    plain, traced, problems = [], [], []
    attempted = failed = 0
    max_diff = max_residual = 0.0
    start = time.monotonic()
    lengths = []  # seconds per repetition, set-up sample and check included

    def fits():
        """Whether one more repetition of median length ends within `seconds`."""
        return time.monotonic() - start + statistics.median(lengths) <= seconds

    rep = 0
    while rep < (2 if trace else 1) or fits():
        began = time.monotonic()
        setup.append(sample_setup())  # spread over the run, not bunched at its start
        is_traced = trace and rep % 2 == 1
        order = jobs[rep % len(jobs):] + jobs[:rep % len(jobs)]
        out = work / f"rep{rep}"
        request = {"jobs": order, "out": str(out), "mode": "trace" if is_traced else "run",
                   "spans": str(RESULTS / f"{workload}.seed{seed}.spans.json")
                   if is_traced else None}
        rep += 1
        attempted += len(order)
        try:
            report = _child(request, remaining())
        except ChildFailed as exc:
            failed += len(order)
            problems.append(str(exc))
            break
        for job in report["jobs"]:
            name = job["job"]
            if job["error"] is not None:
                failed += 1
                problems.append(f"{name}: {job['error']}")
                continue
            if record:
                check.record(name, out / name, job["files"])
            result = check.check_job(name, out / name, job["files"], seed)
            max_diff = max(max_diff, result["max_abs_diff"])
            max_residual = max(max_residual, result["max_residual"])
            if not result["ok"]:
                failed += 1
                problems.extend(result["problems"])
        report["wall_s"] = sum(job["wall_s"] for job in report["jobs"])
        report["bytes_written"] = sum(job["bytes_written"] for job in report["jobs"])
        (traced if is_traced else plain).append(report)
        shutil.rmtree(out, ignore_errors=True)
        lengths.append(time.monotonic() - began)
        if record:
            break
    if len(setup) < SETUP_SAMPLES:
        setup.extend(sample_setup() for _ in range(SETUP_SAMPLES - len(setup)))
    shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "jobs": [name for name, _ in jobs], "setup": setup,
            "plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "problems": problems[:20], "max_abs_diff": max_diff,
            "max_residual": max_residual}


def _scaled(seconds: float, ref_s: float) -> float:
    """`seconds` on a host where the reference kernel takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def _scaled_wall(report: dict) -> float:
    """A repetition's run_experiment time, each job scaled by the mean of the
    kernel passes just before and just after it."""
    ref = report["ref_s"]
    return sum(_scaled(job["wall_s"], (ref[job["ref_index"]] + ref[job["ref_index"] + 1]) / 2)
               for job in report["jobs"])


def metrics(run: dict, trace: bool) -> tuple[dict, dict]:
    """(values, summaries): end-to-end metrics, or per-layer ones when tracing.

    A job's time is scaled by the kernel passes around it, a set-up sample's
    by the pass right after set-up."""
    plain, traced, setup = run["plain"], run["traced"], run["setup"]
    if not plain:
        return {}, {}
    summaries = {
        "wall_s": _summary([_scaled_wall(r) for r in plain]),
        "setup_s": _summary([_scaled(s["setup_s"], s["ref_s"]) for s in setup]),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in plain]),
        "raw.wall_s": _summary([r["wall_s"] for r in plain]),
        "raw.setup_s": _summary([s["setup_s"] for s in setup]),
        "host.ref_s": _summary([t for r in plain for t in r["ref_s"]]
                               + [s["ref_s"] for s in setup]),
        "cpu_s": _summary([r["cpu_s"] for r in plain]),
    }
    if not trace:
        return {name: summaries[name]["median"] for name in END_TO_END}, summaries
    if not traced:
        return {}, summaries
    per_rep = [_layers(r["spans"], r["wall_s"]) for r in traced]
    values = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    values["trace.overhead_s"] = values["trace.wall_s"] - summaries["raw.wall_s"]["median"]
    values["cli.bytes_written"] = statistics.median(r["bytes_written"] for r in traced)
    for name in ("raw.wall_s", "raw.setup_s", "host.ref_s", "cpu_s"):
        values[name] = summaries[name]["median"]
    values["check.max_abs_diff"] = run["max_abs_diff"]
    values["check.max_residual"] = run["max_residual"]
    values["failed_frac"] = run["failed"] / max(run["attempted"], 1)
    return values, summaries


def _print_run(run: dict, values: dict, summaries: dict) -> None:
    units = {**END_TO_END, **PER_LAYER}
    print(f"== {run['workload']}: jobs {', '.join(run['jobs'])}; "
          f"{run['attempted']} operations, {run['failed']} failed "
          f"(failed_frac {run['failed'] / max(run['attempted'], 1):.3g})")
    for name, s in summaries.items():
        extra = "".join(f" {k} {v:.6g}" for k, v in s.items()
                        if k not in ("median", "q1", "q3", "n"))
        print(f"  {name:<32} median {s['median']:.6g} {units[name]}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n {s['n']}{extra}")
    for name, value in values.items():
        if name not in summaries:
            print(f"  {name:<32} {value:.6g} {units[name]}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the seed-0 references from one repetition")
    args = parser.parse_args(argv)
    if not (SRC / "phonon_gauge" / "cli.py").is_file():
        print(f"bench: no phonon_gauge package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record and args.seed != 0:
        print("bench: references are recorded at seed 0 only", file=sys.stderr)
        return 2

    RESULTS.mkdir(parents=True, exist_ok=True)
    info = provenance()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    names = names[args.seed % len(names):] + names[:args.seed % len(names)]
    units = PER_LAYER if args.trace else END_TO_END
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    runs, combined = [], {}
    for name in names:
        try:
            run = measure(name, args.seed, args.seconds, bool(args.trace), args.record,
                          deadline)
        except ChildFailed as exc:  # the package cannot even be imported
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        values, summaries = metrics(run, bool(args.trace))
        _print_run(run, values, summaries)
        run["values"], run["summaries"] = values, summaries
        runs.append(run)
        for metric, value in values.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            combined[key] = {"value": value, "unit": units[metric]}
    info["loadavg_end"] = os.getloadavg()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    complete = all(set(r["values"]) == set(units) for r in runs)
    correct = failed == 0 and complete and attempted > 0
    for run in runs:
        for report in run["traced"]:
            report.pop("spans")
    (RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "provenance": info, "runs": runs}, indent=1),
        encoding="utf-8")
    print(f"provenance: {json.dumps(info)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
