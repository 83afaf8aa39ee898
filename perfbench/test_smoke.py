"""Smoke test of the benchmark itself: every workload once at tiny sizes.

    python -m pytest perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that every op ran its oracle and that every failure is a listed
known defect.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_mode_emits_every_metric_and_runs_every_oracle():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"smoke_ok": True, "problems": []}
    for workload in ("exact", "lattice", "ensemble", "cli"):
        assert f"# smoke {workload}:" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
