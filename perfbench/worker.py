"""One measured round of one workload, in its own process.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH``.
The round sets up its inputs, runs the measured work, checks every
output against ``oracles`` and prints one JSON object as its last line:
set-up and wall time, peak resident size, the operations attempted and
failed, any problems found, and with ``--trace 1`` the per-layer
metrics of ``spans.layer_metrics``.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import oracles
import spans

from vecuforge import fuzz_engine, scenario_dsl, tcg
from vecuforge.cli import main as cli_main
from vecuforge.executor import StateTransport
from vecuforge.frames import parse_line
from vecuforge.script_registry import ScriptRegistry
from vecuforge.vocabulary import PATTERNS

SAMPLES = Path(tcg.__file__).parent / "samples"

DEMO_SEED = 1
DEMO_BUDGET = 2000
DEMO_STRENGTH = 2
FUZZ_BUDGET = 400_000
CA_GRID = ((6, 4, 2), (7, 3, 2), (5, 3, 3))
# The reference kernel's time at the CPU speed that ``wall_s`` is expressed
# in; it is the kernel's typical median on the VM of the README's figures.
REF_KERNEL_S = 0.008


class Round:
    """What one round reports; ``ops`` holds the problems of each operation."""

    def __init__(self, rec: spans.Recorder | None):
        self.rec = rec
        self.ops: list[list[str]] = []
        self.problems: list[str] = []
        self.figures: dict[str, float] = {}

    def span(self, name: str):
        return self.rec.span(name) if self.rec is not None else nullcontext()


def _kernel() -> int:
    """Fixed pure-Python work (tuples in a set, bytes in a dict) that times the CPU's speed."""
    seen = {(i % 7, i % 11) for i in range(300)}
    table: dict = {}
    hits = 0
    for i in range(12000):
        hits += (i % 7, i % 13) in seen
        key = bytes((i & 0xFF, 3))
        table[key] = table.get(key[:1], 0) + len(key)
    return hits


def _kernel_samples(n: int = 6) -> list[float]:
    out = []
    for _ in range(n):
        start = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - start)
    return out


class Measured:
    """Times the measured work.

    The VM this benchmark was built on runs the same Python code up to 2x
    slower at times, over seconds to minutes, so raw wall time of CPU-bound
    work does not repeat. The reference kernel is timed just before and
    just after the work, and ``wall_s`` rescales the worker's own CPU
    seconds by ``REF_KERNEL_S`` / kernel time. Time spent waiting (on the
    simulator, on sockets) is kept as measured.
    """

    def __enter__(self):
        self._kernel = _kernel_samples()
        self.cpu = time.process_time()
        self.raw_wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_wall = time.perf_counter() - self.raw_wall
        self.cpu = time.process_time() - self.cpu
        samples = sorted(self._kernel + _kernel_samples())
        self.cpu_speed = REF_KERNEL_S / samples[len(samples) // 2]
        self.wall = self.raw_wall - self.cpu + self.cpu * self.cpu_speed
        return False


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- demo-seeded / demo-control ------------------------------------------------


def _start_simulator(vulns: bool) -> tuple[subprocess.Popen, int, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "vecuforge.simulator", "--vulns", "on" if vulns else "off"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    match = re.match(r"LISTENING data=(\d+) mgmt=(\d+)", line)
    if not match:
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError(f"simulator did not come up: {line!r} {err!r}")
    return proc, int(match.group(1)), int(match.group(2))


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    proc.stderr.close()


def run_demo(vulns: bool, t0: float, out: Path, traced: bool, setup_only: bool):
    run_dir = out / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    sim, data_port, mgmt_port = _start_simulator(vulns)
    try:
        setup_s = time.monotonic() - t0
        if setup_only:
            return setup_s, None, None
        rec = spans.Recorder() if traced else None
        if rec is not None:
            spans.instrument(rec, data_port)
        r = Round(rec)
        endpoint = f"127.0.0.1:{data_port}"
        extra = {
            "fingerprint": ["--sim-endpoint", endpoint],
            "plan": ["--seed", str(DEMO_SEED), "--budget", str(DEMO_BUDGET)],
            "tcg": ["--strength", str(DEMO_STRENGTH)],
            "execute": ["--sim-endpoint", f"{endpoint}:{mgmt_port}"],
        }
        codes = {}
        with Measured() as m:
            for stage in spans.STAGES:
                began = time.perf_counter()
                with r.span(f"cli.{stage}"):
                    codes[stage] = cli_main([stage, "--run-dir", str(run_dir), *extra.get(stage, [])])
                if stage == "fingerprint":
                    r.figures["fingerprint_s"] = time.perf_counter() - began
        r.figures["peak_rss_mb"] = _peak_rss_mb()
    finally:
        _stop(sim)
    check_demo(r, run_dir, vulns, codes)
    return setup_s, m, r


def check_demo(r: Round, run_dir: Path, vulns: bool, codes: dict) -> None:
    want = {stage: 0 for stage in spans.STAGES}
    if vulns:
        want["execute"] = want["report"] = 1
    if codes != want:
        r.problems.append(f"stage exit codes {codes}, expected {want}")

    fingerprint = json.loads((run_dir / "fingerprint.json").read_text())["fingerprints"]
    expected = oracles.expected_surface(vulns)
    for doc in fingerprint.values():
        r.ops.append(oracles.check_fingerprint(doc, expected))

    results = [json.loads(p.read_text())["result"]
               for p in sorted((run_dir / "results").glob("*.result.json"))]
    for res in results:
        r.ops.append(oracles.check_verdict(res["case_ref"], res["verdict"], vulns))
    cleanups = json.loads((run_dir / "cleanup.json").read_text())["cleanups"]
    for cleanup in cleanups:
        r.ops.append(oracles.check_cleanup(cleanup))
    cases = len(list((run_dir / "cases").glob("*.case.json")))
    if not cases or len(results) != cases or len(cleanups) != cases:
        r.problems.append(f"{cases} cases, {len(results)} results, {len(cleanups)} cleanups")

    findings = [f for res in results for rec in res["step_log"]
                for f in rec["detail"].get("findings", [])
                if rec["command"] and rec["command"].startswith("fuzz ")]
    confirmations = sum(len(rec["detail"].get("confirmed_on_wire", []))
                        for res in results for rec in res["step_log"])
    if r.rec is not None:
        r.rec.counters["executor.wire_confirmations"] = confirmations
    if vulns:
        for f in findings:
            r.problems.extend(oracles.check_trigger(parse_line(f["trigger_input"])))
        if not findings:
            r.problems.append("seeded build: the fuzz case reported no finding")
    elif findings:
        r.problems.append(f"control build: {len(findings)} fuzz finding(s)")


# -- fuzz-campaign -----------------------------------------------------------------


def run_fuzz(seed: int, t0: float, traced: bool, setup_only: bool):
    sutdb = tcg.load_sutdb(SAMPLES / "sutdb.json")
    corpus = tuple(parse_line(line) for line in sutdb.dictionaries["fuzz_corpus"])
    config = fuzz_engine.FuzzConfig(seed=seed, budget=FUZZ_BUDGET, corpus=corpus)
    transport = StateTransport(oracles.fresh_ecu(True))
    setup_s = time.monotonic() - t0
    if setup_only:
        return setup_s, None, None
    rec = spans.Recorder() if traced else None
    if rec is not None:
        spans.instrument(rec)
    r = Round(rec)
    with Measured() as m:
        result = fuzz_engine.run_campaign(config, transport)
        minimized = [fuzz_engine.minimize(f, transport) for f in result.findings]
    r.figures["peak_rss_mb"] = _peak_rss_mb()
    r.figures["fuzz_frames_per_s"] = result.stats["frames_sent"] / m.wall

    sent = result.stats["frames_sent"]
    r.ops.append([] if sent == FUZZ_BUDGET else [f"campaign sent {sent} frames, budget {FUZZ_BUDGET}"])
    minimal_ok: dict = {}
    for finding in minimized:
        smallest = finding.minimized_input
        if smallest not in minimal_ok:
            minimal_ok[smallest] = oracles.check_minimized(smallest)
        r.ops.append(oracles.check_trigger(finding.trigger_input) + minimal_ok[smallest])
    return setup_s, m, r


# -- covering-arrays -------------------------------------------------------------


def ca_scenarios(rng: random.Random) -> list[tuple[str, dict[str, list[str]], int]]:
    """One DSL scenario per grid point: k placeholders with random names,
    each over its own domain of v distinct random hex values."""
    out = []
    for k, v, t in CA_GRID:
        names = []
        while len(names) < k:
            name = "P" + "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ") for _ in range(4))
            if name not in names:
                names.append(name)
        domains = {n: [f"0x{x:04x}" for x in rng.sample(range(0x10000), v)] for n in names}
        meta = "".join(f'    domain_{n}: "D_{n}"\n' for n in names)
        args = "".join(f", {n.lower()}=${n}" for n in names)
        text = (
            f'scenario "ca-k{k}-v{v}-t{t}" {{\n'
            f'  meta {{\n    method: "functional"\n    requirement_ref: "REQ-CA"\n{meta}  }}\n'
            "  env {\n    interface bus canlike\n  }\n"
            f'  steps {{\n    pattern SEND_CAN_MSG(id="7df", data=0x02010d{args})\n  }}\n'
            "  oracle {\n    pass: all_expectations_met\n    fail: any_expectation_missed\n  }\n"
            "}\n"
        )
        out.append((text, domains, t))
    return out


def run_ca(seed: int, t0: float, traced: bool, setup_only: bool):
    points = ca_scenarios(random.Random(seed))
    sutdb = tcg.SutDatabase(
        sut_id="CA-BENCH",
        dictionaries={"bus": "can0"},
        domains={f"D_{n}": vals for _, domains, _ in points for n, vals in domains.items()},
    )
    registry = ScriptRegistry(SAMPLES / "scripts", PATTERNS)
    setup_s = time.monotonic() - t0
    if setup_only:
        return setup_s, None, None
    rec = spans.Recorder() if traced else None
    if rec is not None:
        spans.instrument(rec)
    r = Round(rec)
    outputs = []
    with Measured() as m:
        for text, _, t in points:
            scenario = scenario_dsl.parse_scenario(text)
            outputs.append((scenario, tcg.generate_cases(scenario, sutdb, registry, t=t)))
    r.figures["peak_rss_mb"] = _peak_rss_mb()
    r.figures["ca_rows"] = sum(len(cases) for _, cases in outputs)
    for (scenario, cases), (_, domains, t) in zip(outputs, points):
        bindings = [case.input_data["bindings"] for case in cases]
        r.ops.append(oracles.check_coverage(bindings, domains, t) + oracles.check_roundtrip(scenario))
    return setup_s, m, r


# -- entry point -------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["demo-seeded", "demo-control", "fuzz-campaign", "covering-arrays"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are ready and report only setup_s")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--out", required=True, help="directory for run artifacts and the trace")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    setup_only = args.setup_only

    if args.workload.startswith("demo-"):
        setup_s, m, r = run_demo(args.workload == "demo-seeded", args.t0, out, traced, setup_only)
    elif args.workload == "fuzz-campaign":
        setup_s, m, r = run_fuzz(args.seed, args.t0, traced, setup_only)
    else:
        setup_s, m, r = run_ca(args.seed, args.t0, traced, setup_only)
    if m is None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failed = [p for p in r.ops if p]
    report = {
        "setup_s": setup_s,
        "wall_s": m.wall,
        "figures": dict(r.figures, wall_raw_s=m.raw_wall, cpu_speed=m.cpu_speed),
        "attempted": len(r.ops),
        "failed": len(failed),
        "problems": r.problems,
        "failures": [p for ps in failed for p in ps][:20],
    }
    if r.rec is not None:
        r.rec.write(out / "trace.jsonl")
        report["layers"] = spans.layer_metrics(r.rec)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
