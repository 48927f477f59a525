"""The scripts under scripts/ and README's Library example run against the
package API; running each in a fresh interpreter catches API drift that
would break them silently."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    code = library[library.index("```python\n") + 10:library.index("\n```\n")]
    shown = re.search(r"^r\.value +# (\S+)", code, re.MULTILINE).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code + "\nprint(repr(r.value))"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [shown]   # README shows what the code prints
