"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/steadiness.py --workload ring_link [--workload ...] \
        --seeds 1-10 [--seconds S] [--out FILE]

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles as a share of that
median (statistics.quantiles with n=4), next to the metric's bound from
BENCHMARK.json.  It does the same for the measured seconds behind the scaled
times (raw.wall_s and raw.setup_s, from each run's report in results/), so
that the effect of the scaling can be checked.  Runs are sequential and alternate the workload order from
seed to seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import provenance

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Measured seconds behind the scaled end-to-end times.
RAW = ("raw.wall_s", "raw.setup_s")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _verdict(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "steady (below a third of the bound)"
    return "within the bound" if spread <= bound else "WIDER THAN THE BOUND"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--out", type=Path, default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workload}
    failures = 0
    for k, seed in enumerate(args.seeds):
        order = args.workload[k % len(args.workload):] + args.workload[:k % len(args.workload)]
        for workload in order:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                failures += 1
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}", flush=True)
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            report = json.loads((BENCH / "results" / f"{workload}.seed{seed}.trace0.json")
                                .read_text(encoding="utf-8"))
            for name in RAW:
                values[workload].setdefault(name, []).append(
                    report["runs"][0]["summaries"][name]["median"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)

    summary = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else float("nan")
            summary[f"{workload}.{name}"] = {"median": median, "spread": spread,
                                             "bound": bounds[name.removeprefix("raw.")],
                                             "n": len(vals)}
            bound = bounds[name.removeprefix("raw.")]
            print(f"{workload:<15} {name:<14} median {median:.6g}  spread {spread:.4f}"
                  f"  bound {bound}  {_verdict(spread, bound)}")
    if args.out:
        args.out.write_text(json.dumps({"provenance": provenance(), "seeds": args.seeds,
                                        "seconds": seconds, "summary": summary,
                                        "values": values}, indent=1), encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
