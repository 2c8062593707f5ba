"""The benchmark under perfbench/ still runs against the package sources.

perfbench drives vecuforge through its public names (``StateTransport``
with ``send``/``restore``, ``simulator.load_state`` and others) and wraps
them for its traced runs, so a rename there would otherwise show only
when the benchmark runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


TRACED_CAMPAIGN = """
import json, sys
sys.path.insert(0, "perfbench")
import spans
from pathlib import Path
from vecuforge import fuzz_engine, tcg
from vecuforge.executor import StateTransport
from vecuforge.frames import parse_line
from vecuforge.simulator import EcuState, SimConfig

rec = spans.Recorder()
spans.instrument(rec)
db = tcg.load_sutdb(Path(tcg.__file__).parent / "samples" / "sutdb.json")
corpus = tuple(parse_line(line) for line in db.dictionaries["fuzz_corpus"])
config = fuzz_engine.FuzzConfig(seed=1, budget=1000, corpus=corpus)
sim = SimConfig().with_vulns(sys.argv[1] == "on")
fuzz_engine.run_campaign(config, StateTransport(EcuState(config=sim)))
print(json.dumps(rec.calls))
"""


def traced_calls(vulns: str) -> dict:
    proc = run_python("-c", TRACED_CAMPAIGN, vulns)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_campaign_times_mutate_and_send():
    """A campaign that stopped calling the module-global ``mutate`` or the
    transport's ``send`` would leave those per-layer metrics at zero. On the
    seeded build every window ends crashed, and the rest of a window is
    neither drawn, built nor delivered after the crash: 35 variants built,
    56 campaign sends and 17 reproduction replays."""
    calls = traced_calls("on")
    assert calls["fuzz_engine.mutate"] == 35
    assert calls["fuzz_engine.transport_send"] == 73


def test_traced_control_campaign_builds_and_sends_every_frame():
    """Without defects no frame meets a crashed ECU, so all 800 variants
    are built and all 1000 frames delivered."""
    calls = traced_calls("off")
    assert calls["fuzz_engine.mutate"] == 800
    assert calls["fuzz_engine.transport_send"] == 1000


@pytest.mark.parametrize("workload",
                         ["demo-seeded", "demo-control", "fuzz-campaign", "covering-arrays"])
def test_one_round_of_each_workload_has_no_failure(tmp_path, workload):
    """A round whose operations fail, or whose outputs break the
    benchmark's oracles, shows here before the benchmark runs."""
    proc = run_python("perfbench/worker.py", "--workload", workload, "--seed", "1",
                      "--trace", "0", "--out", str(tmp_path), "--t0", "0")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0, report["failures"]
    assert report["problems"] == []
