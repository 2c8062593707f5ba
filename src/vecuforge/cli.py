"""Pipeline orchestrator: every stage is a subcommand over a run store.

A run store is a directory of stage artifacts; each stage writes only
its own files and consumes only artifacts of earlier stages, so any
prefix of the pipeline can be re-run or inspected in isolation. Exit
codes: 0 success, 1 completed with failed findings, 2 usage or
configuration error (missing prerequisites name the stage to run
first), 3 infrastructure error.

A stage that reads the clock writes what it read to its own file under
``timing/`` (``fingerprint`` the time each interface was probed,
``execute`` each case's start, duration and step latencies) and nowhere
else, so two runs with the same inputs and seed leave the same files
outside ``timing/``.

``analyze`` reads ``item.json`` and the threat catalog and writes
``threats.json`` and ``risks.json``. ``concept`` derives the
requirements from those two artifacts, reading ``item.json`` for the
security goals, the catalog for entry titles, negative classes and
verification hints, and the countermeasure library; a threat whose
catalog entry is missing, or that has no risk, is a usage error.

``demo`` runs the whole pipeline against a simulator that it hosts in a
thread of its own process, over TCP as the standalone stages do, and
stops it on every exit path.
"""

import argparse
import functools
import os
import shutil
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TypeVar

from .analysis import (
    AnalysisError,
    Risk,
    SecurityRequirement,
    Threat,
    analyze_threats,
    check_consistency,
    derive_requirements,
    load_catalog,
    load_countermeasures,
)
from .executor import (
    ExecutorError,
    Resources,
    execute_case,
    open_session,
    restore,
)
from .frames import DataChannel
from .item_model import (
    Item,
    ItemError,
    ProbeConfig,
    decode,
    encode,
    fingerprint_sut,
    load_json,
    read_text,
    reconcile,
)
from .planner import PlannerError, TestPlan, build_plan, load_attack_trees
from .reporter import (
    UNTESTED_REASONS,
    ReporterError,
    TraceIndex,
    build_report,
    render,
)
from .scenario_dsl import DslError, Scenario, parse_scenario, serialize
from .script_registry import RegistryError, ScriptRegistry
from .simulator import SimConfig, SimServer
from .tcg import TcgError, TestCase, TestResult, generate_cases, load_sutdb
from .vocabulary import PATTERNS
from .vuln_scanner import ScanError, load_vulndb

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INFRA = 3

RUN_DIR_ENV = "VECUFORGE_RUN_DIR"

T = TypeVar("T")

_SAMPLES = Path(__file__).parent / "samples"

_CONFIG_ERRORS = (
    ItemError,
    AnalysisError,
    PlannerError,
    DslError,
    TcgError,
    RegistryError,
    ScanError,
    ReporterError,
    OSError,
)


class UsageError(Exception):
    """Bad flags, bad input files, or missing prerequisite artifacts."""


class InfraError(Exception):
    """The environment (SUT, network, hosted simulator) failed, not the inputs."""


# -- run store ---------------------------------------------------------------


class RunStore:
    """Directory of per-stage artifacts with canonical JSON encoding."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, rel: str) -> Path:
        return self.root / rel

    def write_bytes(self, rel: str, data: bytes) -> None:
        target = self.path(rel)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)

    def write_json(self, rel: str, doc: object) -> None:
        self.write_bytes(rel, encode(doc))

    def decode(self, rel: str, produced_by: str, kind: type[T]) -> T:
        """An artifact read as ``kind`` by ``item_model.load_json``."""
        return self.read(rel, produced_by, lambda target: load_json(kind, target, ValueError))

    def read(self, rel: str, produced_by: str, parse: Callable[[Path], T]) -> T:
        """``parse`` of an artifact's path; a missing artifact, or one that
        ``parse`` rejects with a ``ValueError``, is a usage error naming the
        stage that writes it."""
        target = self.path(rel)
        if not target.exists():
            raise UsageError(
                f"missing artifact {rel!r}; run the {produced_by!r} stage first"
            )
        try:
            return parse(target)
        except ValueError as exc:
            raise UsageError(
                f"malformed artifact {rel!r} ({exc}); re-run the {produced_by!r} stage"
            ) from None

    def decode_all(self, subdir: str, suffix: str, produced_by: str,
                   kind: type[T]) -> dict[str, T]:
        """Every artifact in a stage subdirectory by its path, in sorted
        filename order."""
        directory = self.path(subdir)
        paths = sorted(directory.glob(f"*{suffix}")) if directory.is_dir() else []
        rels = [f"{subdir}/{p.name}" for p in paths]
        return {rel: self.decode(rel, produced_by, kind) for rel in rels}

    def reset_dir(self, subdir: str) -> None:
        """Clear a stage-owned subdirectory so reruns leave no stale files."""
        directory = self.path(subdir)
        if directory.is_dir():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)


# -- helpers -----------------------------------------------------------------


def _parse_endpoint(text: str | None, *, need_mgmt: bool) -> tuple[str, int, int]:
    """Parse ``host:data_port[:mgmt_port]``."""
    if not text:
        raise UsageError(
            "this stage talks to a running SUT; pass --sim-endpoint "
            "host:data_port" + (":mgmt_port" if need_mgmt else "[:mgmt_port]")
        )
    host, *parts = text.split(":")
    try:
        ports = [int(part) for part in parts]
    except ValueError:
        ports = []
    if len(ports) == 2 or (len(ports) == 1 and not need_mgmt):
        if not all(0 < port < 65536 for port in ports):
            raise UsageError(f"--sim-endpoint {text!r}: a port must be in 1-65535")
        return host, ports[0], ports[1] if len(ports) == 2 else 0
    raise UsageError(f"cannot parse --sim-endpoint {text!r}")


@dataclass
class ThreatsArtifact:
    """``threats.json``: the threats with each one's class and regulation references."""

    threats: list[Threat]
    threat_class_by_id: dict[str, str]
    regulation_refs_by_threat: dict[str, list[str]]


@dataclass
class RisksArtifact:
    """``risks.json``: the risk of every threat."""

    risks: list[Risk]


@dataclass
class RequirementsArtifact:
    """``requirements.json``: the derived security requirements."""

    requirements: list[SecurityRequirement]


@dataclass
class ResultArtifact:
    """``results/<case id>.result.json``."""

    result: TestResult


def _load_item_artifact(store: RunStore) -> Item:
    return store.decode("item.json", "item", Item)


def _load_threats(store: RunStore) -> ThreatsArtifact:
    return store.decode("threats.json", "analyze", ThreatsArtifact)


def _load_risks(store: RunStore) -> list[Risk]:
    return store.decode("risks.json", "analyze", RisksArtifact).risks


def _load_cases(store: RunStore) -> list[TestCase]:
    cases = list(store.decode_all("cases", ".case.json", "tcg", TestCase).values())
    if not cases:
        raise UsageError("no .case.json artifacts under 'cases'; run the 'tcg' stage first")
    return cases


# -- stages ------------------------------------------------------------------


def stage_item(store: RunStore, args) -> int:
    path = Path(args.item)
    if not path.exists():
        raise UsageError(f"item definition {str(path)!r} does not exist")
    doc = load_json(dict, path, ItemError)
    decode(Item, doc, str(path), ItemError)  # the whole item, checked before anything is written
    store.write_json("item.json", doc)
    return EXIT_OK


def stage_fingerprint(store: RunStore, args) -> int:
    item = _load_item_artifact(store)
    host, data_port, _ = _parse_endpoint(args.sim_endpoint, need_mgmt=False)
    probed = [iface.id for iface in item.protocol_interfaces()]
    if not probed:
        raise UsageError("item declares no external protocol interfaces to probe")
    probe_cfg = ProbeConfig(id_range=item.config_params.fingerprint_id_range)
    # The wire codec carries no bus field, so every probed interface is the
    # same data port: one sweep is the fingerprint of each.
    probed_at = datetime.now(timezone.utc).isoformat()
    channel = DataChannel(host, data_port)
    try:
        swept = fingerprint_sut(probed[0], probe_cfg, channel=channel)
    finally:
        channel.close()
    reports = [replace(swept, probed_interface=iface_id) for iface_id in probed]
    store.write_json("fingerprint.json",
                     {"fingerprints": {fp.probed_interface: fp.to_dict() for fp in reports}})
    store.write_json("discrepancies.json",
                     {"discrepancies": [d.to_dict() for fp in reports for d in reconcile(item, fp)]})
    store.write_json("timing/fingerprint.json", {"probed_at": dict.fromkeys(probed, probed_at)})
    return EXIT_OK


def stage_analyze(store: RunStore, args) -> int:
    catalog = load_catalog(args.catalog)
    threats, risks = analyze_threats(_load_item_artifact(store), catalog)
    store.write_json("threats.json", ThreatsArtifact(
        threats,
        {t.id: catalog.entry_for(t).threat_class for t in threats},
        {t.id: list(catalog.entry_for(t).regulation_refs) for t in threats},
    ))
    store.write_json("risks.json", RisksArtifact(risks))
    return EXIT_OK


def stage_concept(store: RunStore, args) -> int:
    analysis = _load_threats(store)
    risks = _load_risks(store)
    item = _load_item_artifact(store)
    requirements = derive_requirements(
        analysis.threats,
        risks,
        analysis.threat_class_by_id,
        load_catalog(args.catalog),
        load_countermeasures(args.countermeasures),
    )
    store.write_json("requirements.json", RequirementsArtifact(requirements))
    store.write_json("consistency.json", check_consistency(requirements, item.security_goals))
    index = TraceIndex.from_artifacts(analysis.threats, risks, requirements,
                                      analysis.regulation_refs_by_threat)
    store.write_json("trace_index.json", index)
    return EXIT_OK


def stage_plan(store: RunStore, args) -> int:
    item = _load_item_artifact(store)
    analysis = _load_threats(store)
    risks = _load_risks(store)
    requirements = store.decode("requirements.json", "concept", RequirementsArtifact).requirements
    plan, scenarios = build_plan(
        item,
        risks,
        requirements,
        trees=load_attack_trees(args.attack_trees),
        threat_class_by_id=analysis.threat_class_by_id,
        threat_target_by_id={t.id: t.target for t in analysis.threats},
        seed=args.seed,
        fuzz_budget=args.budget,
    )
    store.write_json("plan.json", plan)
    store.reset_dir("scenarios")
    for scenario in scenarios:
        store.write_bytes(f"scenarios/{scenario.id}.scn", serialize(scenario).encode())
    return EXIT_OK


def _read_scenario(path: Path) -> Scenario:
    try:
        return parse_scenario(read_text(path, ValueError))
    except DslError as exc:
        raise ValueError(f"{path}: {exc}") from None


def stage_tcg(store: RunStore, args) -> int:
    store.decode("plan.json", "plan", TestPlan)
    scenario_dir = store.path("scenarios")
    paths = sorted(scenario_dir.glob("*.scn")) if scenario_dir.is_dir() else []
    if not paths:
        raise UsageError("no .scn artifacts under 'scenarios'; run the 'plan' stage first")
    sutdb = load_sutdb(args.sutdb)
    registry = ScriptRegistry(args.scripts, PATTERNS)
    cases: list[TestCase] = []
    for path in paths:
        scenario = store.read(f"scenarios/{path.name}", "plan", _read_scenario)
        cases.extend(generate_cases(scenario, sutdb, registry, t=args.strength))
    store.reset_dir("cases")
    for case in cases:
        store.write_json(f"cases/{case.id}.case.json", case)
    return EXIT_OK


def stage_execute(store: RunStore, args) -> int:
    cases = _load_cases(store)
    sutdb = load_sutdb(args.sutdb)
    registry = ScriptRegistry(args.scripts, PATTERNS)
    resources = Resources(sutdb=sutdb, vulndb=load_vulndb(args.vulndb))
    host, data_port, mgmt_port = _parse_endpoint(args.sim_endpoint, need_mgmt=True)

    try:
        session = open_session(
            cases, sutdb, host=host, data_port=data_port, mgmt_port=mgmt_port
        )
    except ExecutorError as exc:
        raise InfraError(f"cannot prepare the test environment: {exc}") from None

    store.reset_dir("results")
    cleanups: list[dict] = []
    any_fail = False
    broken = None
    try:
        for case in cases:
            result = execute_case(case, session, resources, registry)
            store.write_json(f"results/{case.id}.result.json", ResultArtifact(result))
            any_fail = any_fail or result.verdict == "fail"
            cleanup = restore(session)
            cleanups.append({"case_ref": case.id, **vars(cleanup)})
            if session.lost:
                broken = f"the SUT dropped the connection during case {case.id!r}: {session.lost}"
                break
            if not (cleanup.restored and cleanup.verified):
                broken = f"SUT state restore failed after case {case.id!r}: {cleanup.detail}"
                break
    finally:
        session.close()
        store.write_json("cleanup.json", {"cleanups": cleanups})
        store.write_json("timing/execute.json", {"cases": session.timing})
    if broken is not None:
        raise InfraError(f"{broken}; remaining cases skipped")
    return EXIT_FINDINGS if any_fail else EXIT_OK


def stage_report(store: RunStore, args) -> int:
    plan = store.decode("plan.json", "plan", TestPlan)
    cases = _load_cases(store)
    index = store.decode("trace_index.json", "concept", TraceIndex)
    results = []
    for rel, artifact in store.decode_all("results", ".result.json", "execute",
                                          ResultArtifact).items():
        if rel != f"results/{artifact.result.case_ref}.result.json":
            raise UsageError(f"artifact {rel!r} holds the result of case "
                             f"{artifact.result.case_ref!r}; re-run the 'execute' stage")
        results.append(artifact.result)
    report = build_report(
        plan, cases, results, index, untested_reason=args.untested_reason
    )
    store.write_bytes("report.json", render(report, "machine"))
    store.write_bytes("report.txt", render(report, "text"))
    return EXIT_FINDINGS if report.dashboard["fail"] else EXIT_OK


def stage_demo(store: RunStore, args) -> int:
    # A bad SUT database is a usage error before any stage writes an artifact.
    load_sutdb(args.sutdb)
    try:
        server = SimServer(SimConfig().with_vulns(args.vulns == "on")).start()
    except OSError as exc:
        raise InfraError(f"simulator did not come up: {exc}") from None
    try:
        host, data_port = server.data_endpoint
        live = argparse.Namespace(**vars(args))
        live.sim_endpoint = f"{host}:{data_port}:{server.mgmt_endpoint[1]}"
        stage_item(store, live)
        stage_fingerprint(store, live)
        stage_analyze(store, live)
        stage_concept(store, live)
        stage_plan(store, live)
        stage_tcg(store, live)
        stage_execute(store, live)
        return stage_report(store, live)
    finally:
        server.stop()


_STAGES = {
    "item": stage_item,
    "fingerprint": stage_fingerprint,
    "analyze": stage_analyze,
    "concept": stage_concept,
    "plan": stage_plan,
    "tcg": stage_tcg,
    "execute": stage_execute,
    "report": stage_report,
    "demo": stage_demo,
}


# -- argument parsing ----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # One flat parser: every stage accepts every flag and ignores the ones
    # it does not use. Built once, so ``main`` reads $VECUFORGE_RUN_DIR.
    parser = argparse.ArgumentParser(
        prog="vecuforge",
        description="automated security-testing pipeline for diagnostic ECUs",
    )
    parser.add_argument("stage", choices=_STAGES)
    parser.add_argument("--run-dir", help=f"artifact directory (default: ${RUN_DIR_ENV})")
    parser.add_argument("--item", default=str(_SAMPLES / "item.json"))
    parser.add_argument("--catalog", default=str(_SAMPLES / "catalog.json"))
    parser.add_argument("--countermeasures", default=str(_SAMPLES / "countermeasures.json"))
    parser.add_argument("--attack-trees", default=str(_SAMPLES / "attack_trees.json"))
    parser.add_argument("--vulndb", default=str(_SAMPLES / "vulndb.json"))
    parser.add_argument("--sutdb", default=str(_SAMPLES / "sutdb.json"))
    parser.add_argument("--scripts", default=str(_SAMPLES / "scripts"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--strength", type=int, default=2,
                        help="covering-array interaction strength")
    parser.add_argument("--budget", type=int, default=2000,
                        help="fuzz campaign frame budget")
    parser.add_argument("--sim-endpoint", default=None,
                        help="running SUT as host:data_port[:mgmt_port]")
    parser.add_argument("--untested-reason", choices=UNTESTED_REASONS, default="other")
    parser.add_argument("--vulns", choices=["on", "off"], default="on",
                        help="demo only: run the simulator with or without its seeded defects")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.run_dir is None:
        args.run_dir = os.environ.get(RUN_DIR_ENV)
    if not args.run_dir:
        print(
            f"error: no run directory; pass --run-dir or set ${RUN_DIR_ENV}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        store = RunStore(args.run_dir)
        return _STAGES[args.stage](store, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfraError, ExecutorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    raise SystemExit(main())
