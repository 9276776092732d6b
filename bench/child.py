"""One timed repetition of a workload in a fresh interpreter.

Reads a JSON request on stdin: {"jobs": [[name, config text], ...],
"out": dir, "mode": "setup" | "run" | "trace", "spans": path or null}.
Prints one JSON object: set-up time, per-job run_experiment wall time and
outcome, own peak RSS and CPU time, the reference kernel's times, and in
trace mode the span summary.  The kernel runs once after set-up; in run and
trace modes it runs again after the last job, and after any job that brings
the job time since its last pass to KERNEL_EVERY_S.  Each job records the
index of the pass before it in ref_s; the next pass follows it.
The parent pins the BLAS thread counts in the environment before this
process imports numpy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

#: Least job time between two passes of the reference kernel.
KERNEL_EVERY_S = 1.0


def peak_rss_mb(usage) -> float:
    """This process's own peak RSS.  On Linux ru_maxrss keeps the spawning
    parent's high-water mark across exec, so VmHWM is read when it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return usage.ru_maxrss / 1024.0


def main() -> int:
    request = json.load(sys.stdin)
    mode = request["mode"]
    t0 = time.perf_counter()
    import phonon_gauge.cli
    import phonon_gauge.config
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    configs = [phonon_gauge.config.parse_config(text) for _, text in request["jobs"]]
    setup_s = time.perf_counter() - t0
    from refkernel import reference_seconds
    ref_s = [reference_seconds()]

    results = []
    if mode != "setup":
        out = Path(request["out"])
        since_pass = 0.0
        for k, ((name, _), config) in enumerate(zip(request["jobs"], configs)):
            start = time.perf_counter()
            try:
                files = phonon_gauge.cli.run_experiment(config, out / name, jobs=1)
                error = None
            except Exception:  # one failed operation; the next job still runs
                files, error = [], traceback.format_exc(limit=4)
            wall = time.perf_counter() - start
            written = sum((out / name / f).stat().st_size for f in files)
            results.append({"job": name, "wall_s": wall, "files": files,
                            "bytes_written": written, "error": error,
                            "ref_index": len(ref_s) - 1})
            since_pass += wall
            if since_pass >= KERNEL_EVERY_S or k == len(configs) - 1:
                ref_s.append(reference_seconds())
                since_pass = 0.0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "setup_s": setup_s,
        "ref_s": ref_s,
        "jobs": results,
        "peak_rss_mb": peak_rss_mb(usage),
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        if request.get("spans"):
            Path(request["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
