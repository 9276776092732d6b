import subprocess
import sys
from pathlib import Path

DIFF_OUTPUTS = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"


def test_diff_outputs_names_each_data_file_and_its_largest_difference(tmp_path):
    files = {
        "a/same.csv": ("x,y\n1,2\n", "x,y\n1,2\n"),
        "a/moved.csv": ("x,y\n1,2\n3,nan\n", "x,y\n1,2.000001\n3,nan\n"),
        "a/moved.json": ('{"k": [1, null, true]}', '{"k": [1.5, null, true]}'),
        "a/renamed.json": ('{"m": 1}', '{"n": 1}'),
        "a/manifest.json": ('{"duration_seconds": 1}', '{"duration_seconds": 2}'),
    }
    for name, texts in files.items():
        for root, text in zip("AB", texts):
            path = tmp_path / root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    (tmp_path / "A" / "lone.csv").write_text("x\n1\n")
    out = subprocess.run([sys.executable, str(DIFF_OUTPUTS), str(tmp_path / "A"),
                          str(tmp_path / "B")], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "max abs 1e-06  max rel 5e-07  a/moved.csv",
        "max abs 0.5  max rel 0.333  a/moved.json",
        "differs in $  a/renamed.json",
        "identical  a/same.csv",
        f"only in {tmp_path / 'A'}  lone.csv",
    ]
