"""scripts/calibrate.py prints its corpus listings and exits 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_calibration_gates_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "calibrate.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    # the chain-certified continuity reading differs on exactly one case
    assert "cases that distinguish the readings: 1" in lines
    # the intention listing names every case that declares intentions
    listed = {line.split(":")[0] for line in lines if " -> ruled " in line}
    assert listed == {f"case {id_}" for id_ in ("36", "37", "38", "39", "44")}
