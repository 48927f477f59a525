"""The scripts under scripts/ run against the package API; running each in
a fresh interpreter catches API drift that would break them silently."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name,rows", [
    ("stirling_decay.py", 15),     # k in (1, 2, 3) times five x
    ("pde_residual_grid.py", 9),   # k in (0.5, 1, 2) times three x
])
def test_script_runs(name, rows):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    assert len(lines) == 1 + rows   # header plus one row per (k, x)
