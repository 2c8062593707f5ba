"""Benchmark entry point: run one workload for a fixed time, print one JSON line.

    python3 perfbench/run.py --workload demo-seeded --seed 1 --seconds 30 --trace 0

Runs whole rounds, at least one, while the next is expected to end
within ``--seconds``. Each round is a fresh ``worker.py`` process with
the repository's ``src`` on its ``PYTHONPATH``, so nothing needs to be
installed. With ``--trace 0``
it prints the end-to-end metrics, each the median over the rounds. With
``--trace 1`` every round is run twice, untraced and then traced on the
same inputs, and it prints the per-layer metrics of the traced rounds
plus the tracing overhead (traced minus untraced raw wall time). The last
line of standard output is the result object; nothing is printed there
when a round fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("demo-seeded", "demo-control", "fuzz-campaign", "covering-arrays")
ROUND_TIMEOUT_S = 120
# setup_s is the median of at least this many set-ups; runs with fewer
# rounds (the demo workloads) add set-up-only rounds.
MIN_SETUPS = 5

# Figures taken from the untraced rounds of a traced run; a workload that
# has no such figure reports 0.
FIGURE_UNITS = {"fingerprint_s": "s", "fuzz_frames_per_s": "frames/s", "ca_rows": "rows",
                "wall_raw_s": "s", "cpu_speed": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, traced: bool, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--out", str(OUT / workload), "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so that a timeout also ends the simulator it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"{workload} round did not finish within {ROUND_TIMEOUT_S}s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} round exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="vecuforge pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "vecuforge" / "__init__.py").is_file():
        print(f"error: no vecuforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    try:
        # Start another round only while it is expected to end in time.
        while not plain or (time.monotonic() - start) * (1 + 1 / len(plain)) <= args.seconds:
            round_seed = rng.randrange(2**31)
            plain.append(run_round(args.workload, round_seed, False))
            if args.trace:
                traced.append(run_round(args.workload, round_seed, True))
        setups = [r["setup_s"] for r in plain]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(run_round(args.workload, 0, False, setup_only=True)["setup_s"])
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems + [f for r in rounds for f in r["failures"]]:
        print(p, file=sys.stderr)

    def median(key: str, of: list[dict]) -> float:
        return statistics.median(r[key] if key in r else r["figures"].get(key, 0) for r in of)

    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": layer_unit(name)}
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = {
            "value": median("wall_raw_s", traced) - median("wall_raw_s", plain), "unit": "s"}
        for name, unit in FIGURE_UNITS.items():
            metrics[name] = {"value": median(name, plain), "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": median("wall_s", plain), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb", plain), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
