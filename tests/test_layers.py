"""The layer harness bench/layers.py: its quick grid runs and writes the documented file.

Only the schema and the correctness column are checked, never a timing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_grid_writes_the_schema_and_passes(tmp_path):
    out = tmp_path / "layers.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"env", "quick", "runs", "layers", "rows"}
    assert data["quick"] is True and data["runs"] == 3
    assert {"cpu_model", "python", "numpy", "blas", "blas_threads"} <= set(data["env"])
    assert {row["kind"] for row in data["rows"]} == {"gaussian", "product3"}
    for row in data["rows"]:
        assert set(row) == {
            "name", "kind", "dimension", "depth", "median_s", "reference_s", "speed_scale", "ranks", "passed"
        }
        for seconds in (row["median_s"], row["reference_s"]):
            assert set(seconds) == set(data["layers"])
            assert all(isinstance(v, float) for v in seconds.values())
        assert isinstance(row["speed_scale"], float)
        assert len(row["ranks"]) == row["depth"] + 1 and row["ranks"][0] == 1
        assert row["passed"] is True
