"""The demo scripts run to completion against the package sources."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# 05_full_pipeline.py is the whole ``vecuforge demo`` run, which the
# acceptance tests already drive.
@pytest.mark.parametrize(
    "script",
    ["01_fingerprint_walk.py", "02_covering_arrays.py", "03_attack_trees.py", "04_fuzz_campaign.py"],
)
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
