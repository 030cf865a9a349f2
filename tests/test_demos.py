"""Every demo runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (script, arguments); "{out}" becomes a file under the test's tmp directory
DEMOS = [
    ("characterize_reuse.py", ["--shrink", "4", "--sms", "4"]),
    ("compare_schemes.py", ["--shrink", "4", "--sms", "4"]),
    ("latency_walkthrough.py", []),
    ("sweep_tables.py", ["--shrink", "8", "--presets", "combined_C1",
                         "--out", "{out}"]),
]


@pytest.mark.parametrize("script,args", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(tmp_path, script, args):
    out = tmp_path / "report.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script),
         *(a.format(out=out) for a in args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if "{out}" in args:
        assert out.exists()
