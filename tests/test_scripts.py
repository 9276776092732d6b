import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from phonon_gauge.config import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
DIFF_OUTPUTS = ROOT / "scripts" / "diff_outputs.py"
HASH_OUTPUTS = ROOT / "scripts" / "hash_outputs.py"


def test_diff_outputs_names_each_data_file_and_its_largest_difference(tmp_path):
    files = {
        "a/same.csv": ("x,y\n1,2\n", "x,y\n1,2\n"),
        "a/moved.csv": ("x,y\n1,2\n3,nan\n", "x,y\n1,2.000001\n3,nan\n"),
        "a/moved.json": ('{"k": [1, null, true]}', '{"k": [1.5, null, true]}'),
        "a/renamed.json": ('{"m": 1}', '{"n": 1}'),
        "a/manifest.json": ('{"duration_seconds": 1}', '{"duration_seconds": 2}'),
        # a manifest is compared without its wall clock, number by number
        "b/manifest.json": ('{"duration_seconds": 1, "resolved": {"diagnostics": '
                            '{"magnus_steps": 10, "period_glide": true}}}',
                            '{"duration_seconds": 3, "resolved": {"diagnostics": '
                            '{"magnus_steps": 12, "period_glide": true}}}'),
        "c/manifest.json": ('{"duration_seconds": 1, "resolved": {"diagnostics": '
                            '{"period_glide": true}}}',
                            '{"duration_seconds": 1, "resolved": {"diagnostics": '
                            '{"period_glide": false}}}'),
    }
    for name, texts in files.items():
        for root, text in zip("AB", texts):
            path = tmp_path / root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    (tmp_path / "A" / "lone.csv").write_text("x\n1\n")

    def diff(*roots):
        return subprocess.run([sys.executable, str(DIFF_OUTPUTS), *map(str, roots)],
                              capture_output=True, text=True)

    out = diff(tmp_path / "A", tmp_path / "B")
    assert out.returncode == 1  # some files differ
    assert out.stdout.splitlines() == [
        "identical  a/manifest.json",
        "max abs 1e-06  max rel 5e-07  a/moved.csv",
        "max abs 0.5  max rel 0.333  a/moved.json",
        "differs in $  a/renamed.json",
        "identical  a/same.csv",
        "max abs 2  max rel 0.167  b/manifest.json",
        "differs in $.resolved.diagnostics.period_glide  c/manifest.json",
        f"only in {tmp_path / 'A'}  lone.csv",
    ]
    # a tree against itself is identical throughout, and a file under one root
    # only is a difference by itself
    same = diff(tmp_path / "A", tmp_path / "A")
    assert same.returncode == 0 and all(line.startswith("identical  ")
                                        for line in same.stdout.splitlines())
    (tmp_path / "C").mkdir()
    (tmp_path / "C" / "lone.csv").write_text("x\n1\n")
    assert diff(tmp_path / "A", tmp_path / "C").returncode == 1
    assert diff(tmp_path / "A").returncode == 2  # usage


def test_hash_outputs_prints_one_line_per_written_file(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, str(HASH_OUTPUTS), str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    lines = [re.fullmatch(r"([0-9a-f]{64})  ([^/]+)/([^/]+)", line)
             for line in out.stdout.splitlines()]
    assert all(lines), out.stdout
    hashed = {(m[2], m[3]): m[1] for m in lines}
    assert len(hashed) == len(lines)  # no file twice
    assert set(hashed) == {(p.parent.name, p.name) for p in tmp_path.glob("*/*")}
    manifests = [json.loads((tmp_path / name / "manifest.json").read_text())
                 for name in {name for name, _ in hashed}]
    assert {m["experiment"] for m in manifests} == set(EXPERIMENTS)
    # the hashed rings cover both paths of the exact drive
    assert {m["resolved"]["diagnostics"]["period_propagator"] for m in manifests
            if m["experiment"] == "fig2cd_plaquette"} == {False, True}
    for (name, file), digest in hashed.items():
        if file != "manifest.json":  # a manifest is hashed without its wall clock
            assert hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest() == digest
