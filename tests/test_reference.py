"""The benchmark's seed-0 jobs against their recorded reference data.

Each job runs through `run_experiment` as `bench/child.py` runs it, and
`bench/check.py`'s own comparison judges its data files with its own
tolerances: 1e-7 for exact-drive data, 1e-12 otherwise.
"""

import sys
from pathlib import Path

import pytest

from phonon_gauge.cli import run_experiment
from phonon_gauge.config import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import check  # noqa: E402
import workloads  # noqa: E402

JOBS = [job for workload in workloads.WORKLOADS for job in workloads.jobs(workload, 0)]


@pytest.mark.parametrize("job, text", JOBS, ids=[job for job, _ in JOBS])
def test_seed_zero_job_matches_its_reference(tmp_path, job, text):
    out = tmp_path / job
    files = run_experiment(parse_config(text), out, jobs=1)
    max_diff, problems = check.compare_reference(job, out, files)
    assert problems == [], problems
