"""The benchmark under perfbench/ still runs against the package sources.

perfbench drives vecuforge through its public names (``StateTransport``
with ``send``/``restore``, ``simulator.load_state`` and others) and wraps
them for its traced runs, so a rename there would otherwise show only
when the benchmark runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_selftest_passes():
    proc = run_python("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stderr


def test_trace_wrappers_find_every_name_they_wrap():
    proc = run_python(
        "-c",
        "import sys; sys.path.insert(0, 'perfbench'); import spans; "
        "spans.instrument(spans.Recorder())",
    )
    assert proc.returncode == 0, proc.stderr
