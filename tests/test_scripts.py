"""Smoke runs of the scripts under ``scripts/``: each exits 0 on a tiny
input, so an API change that breaks a script fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_hypercontractivity_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("hypercontractivity_sweep.py", "--dims", "2",
                      "--trials", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,dim,n,accept_rate,median_value,max_value"
    assert len(lines) == 6  # one row per marginal family
