"""Every script under demos/, and every Python block of the README, runs to
completion against the current API, with a RuntimeWarning (an overflow, a
division by zero or an invalid value) as an error, as in every other test."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)

# A demo runs as a script in a scratch directory; a README block runs as
# ``python -c`` from the repository root, where its relative paths point.
RUNS = [pytest.param([str(p)], id=p.stem) for p in DEMOS] + [
    pytest.param(["-c", code], id=f"README_block_{i}")
    for i, code in enumerate(README_BLOCKS, start=1)
]


def test_demos_exist():
    assert len(DEMOS) >= 4
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("args", RUNS)
def test_demo_runs(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=ROOT if args[0] == "-c" else tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
